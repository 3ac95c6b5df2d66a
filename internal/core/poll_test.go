package core

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/protocol"
)

// serveTCP starts the engine on a real loopback listener: accept, TCP
// segmentation and the handshake's buffered reader, which an attached
// in-process pair does not have.
func serveTCP(t *testing.T, e *Engine, mode string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l, mode)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// dialPeer connects a raw-protocol peer over real TCP.
func dialPeer(t *testing.T, addr string) *testPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testPeer{t: t, conn: conn.(*net.TCPConn), buf: make([]byte, 8192)}
}

// pollRegistered reports whether any attached client is on the poll path.
func pollRegistered(e *Engine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.clients {
		if c.poll.Load() != nil {
			return true
		}
	}
	return false
}

func TestPollPartialFrameAcrossWakeups(t *testing.T) {
	e := newTestEngine(t, Config{})
	addr := serveTCP(t, e, "raw")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "split"}}})
	// Two separate TCP segments, far enough apart that the kernel delivers
	// two distinct readiness events: the decoder must carry the partial
	// protocol frame across wakeups.
	half := len(frame) / 2
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := conn.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}

	p := &testPeer{t: t, conn: conn.(*net.TCPConn), buf: make([]byte, 8192)}
	if m := p.expectKind(protocol.KindSubAck, 5*time.Second); m.Status != protocol.StatusOK {
		t.Fatalf("SUBACK status = %v", m.Status)
	}
	if !pollRegistered(e) {
		t.Fatal("TCP connection did not register with the poll loop")
	}
}

// maskedWSFrame builds one masked client→server binary frame by hand (the
// test forges wire bytes so it can split them at arbitrary boundaries).
func maskedWSFrame(payload []byte) []byte {
	mask := [4]byte{0x11, 0x22, 0x33, 0x44}
	out := []byte{0x82} // FIN | binary
	n := len(payload)
	switch {
	case n < 126:
		out = append(out, 0x80|byte(n))
	case n <= 0xFFFF:
		out = append(out, 0x80|126, byte(n>>8), byte(n))
	default:
		panic("test frame too large")
	}
	out = append(out, mask[:]...)
	for i, b := range payload {
		out = append(out, b^mask[i&3])
	}
	return out
}

// readWSServerMessage reads one unmasked server→client binary frame.
func readWSServerMessage(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		t.Fatal(err)
	}
	n := int(hdr[1] & 0x7F)
	switch n {
	case 126:
		ext := make([]byte, 2)
		if _, err := io.ReadFull(br, ext); err != nil {
			t.Fatal(err)
		}
		n = int(ext[0])<<8 | int(ext[1])
	case 127:
		t.Fatal("unexpected 8-byte length in test")
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestPollWebSocketFrameAcrossWakeups(t *testing.T) {
	e := newTestEngine(t, Config{})
	addr := serveTCP(t, e, "ws")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	key := base64.StdEncoding.EncodeToString(make([]byte, 16))
	req := "GET / HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for { // consume the 101 response headers
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}

	// One WebSocket frame, dribbled byte by byte: every wakeup hands the
	// StreamReader a fragment of the header or masked payload.
	wire := maskedWSFrame(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "ws-split"}}}))
	for i := range wire {
		if _, err := conn.Write(wire[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var dec protocol.StreamDecoder
	dec.Feed(readWSServerMessage(t, br))
	m, err := dec.Next()
	if err != nil || m == nil || m.Kind != protocol.KindSubAck {
		t.Fatalf("reply = %v %v, want SUBACK", m, err)
	}
}

func TestPollWebSocketPipelinedFrame(t *testing.T) {
	e := newTestEngine(t, Config{})
	addr := serveTCP(t, e, "ws")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Handshake request and first frame in ONE write: the server's
	// handshake reader buffers the frame, so the kernel never reports the
	// socket readable for it — only the registration kick (FeedBuffered)
	// can deliver it.
	key := base64.StdEncoding.EncodeToString(make([]byte, 16))
	req := "GET / HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
	wire := maskedWSFrame(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "pipelined"}}}))
	if _, err := conn.Write(append([]byte(req), wire...)); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	var dec protocol.StreamDecoder
	dec.Feed(readWSServerMessage(t, br))
	m, err := dec.Next()
	if err != nil || m == nil || m.Kind != protocol.KindSubAck {
		t.Fatalf("reply = %v %v, want SUBACK", m, err)
	}
}

// TestPollCloseVsReadyRace hammers the teardown-vs-readiness window: peers
// write continuously while the engine disconnects them, so readiness
// events race evClose teardowns (run under -race in CI).
func TestPollCloseVsReadyRace(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 2})
	addr := serveTCP(t, e, "raw")

	const conns = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	frame := protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "race"}}})
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Write(frame); err != nil {
					return
				}
				// Paced, not firehosed: ingress Push never blocks, so an
				// unthrottled writer just grows the io queue and buries the
				// evClose this test is waiting on. The race pressure comes
				// from wakeups overlapping teardown, not from throughput.
				time.Sleep(500 * time.Microsecond)
			}
		}(conn)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.NumClients() < conns && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		e.CloseAllClients()
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for e.NumClients() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := e.NumClients(); n != 0 {
		t.Fatalf("%d clients still attached after close storm", n)
	}
}

// TestPollGoroutinesFlat is the read path's core property: attaching N
// connections must not add ~N goroutines — accepted sockets and
// in-process pairs alike, since both are descriptors on the poller.
func TestPollGoroutinesFlat(t *testing.T) {
	for _, network := range []string{"tcp", "inproc"} {
		t.Run(network, func(t *testing.T) {
			e := newTestEngine(t, Config{IoThreads: 2, Workers: 2})
			connect := func() *testPeer { return attachPeer(t, e) }
			if network == "tcp" {
				addr := serveTCP(t, e, "raw")
				connect = func() *testPeer { return dialPeer(t, addr) }
			}

			before := runtime.NumGoroutine()
			const conns = 100
			peers := make([]*testPeer, conns)
			for i := range peers {
				peers[i] = connect()
				peers[i].send(&protocol.Message{Kind: protocol.KindSubscribe,
					Topics: []protocol.TopicPosition{{Topic: fmt.Sprintf("flat-%d", i)}}})
			}
			for _, p := range peers {
				p.expectKind(protocol.KindSubAck, 5*time.Second)
			}
			after := runtime.NumGoroutine()
			// 2 poll-loop goroutines total. Allow generous slack for
			// runtime/test goroutines, but fail hard on goroutine-per-conn.
			if grew := after - before; grew > conns/4 {
				t.Fatalf("goroutines grew by %d for %d connections — reader-per-conn suspected", grew, conns)
			}
		})
	}
}

// TestCloseTearsDownSocketClients: Close must tear real-socket clients
// down itself — a closed fd leaves the poller's set without an event —
// rather than wait out its deadline with them still attached.
func TestCloseTearsDownSocketClients(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 2, TopicGroups: 1})
	addr := serveTCP(t, e, "raw")
	const conns = 50
	for i := 0; i < conns; i++ {
		p := dialPeer(t, addr)
		p.send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: fmt.Sprintf("close-%d", i)}}})
		p.expectKind(protocol.KindSubAck, 5*time.Second)
	}
	if !e.GroupHasSubscribers(0) {
		t.Fatal("GroupHasSubscribers(0) = false with 50 live subscribers")
	}
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Close took %v with %d idle socket clients, want < 500ms", took, conns)
	}
	if n := e.NumClients(); n != 0 {
		t.Errorf("%d clients still attached after Close", n)
	}
	if e.GroupHasSubscribers(0) {
		t.Error("GroupHasSubscribers(0) = true after Close: the detach never reached the workers")
	}
}
