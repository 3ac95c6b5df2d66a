package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"migratorydata/internal/protocol"
	"migratorydata/internal/transport"
	"migratorydata/internal/websocket"
)

// testPeer is the remote end of an attached connection, speaking the raw
// protocol directly.
type testPeer struct {
	t    *testing.T
	conn interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
		Close() error
		SetReadDeadline(time.Time) error
	}
	dec protocol.StreamDecoder
	buf []byte
}

// testPipe returns both ends of an inproc connection; size 0 keeps the
// kernel's default socket buffers.
func testPipe(t testing.TB, aName, bName string, size int) (a, b net.Conn) {
	t.Helper()
	a, b, err := transport.NewPipeSize(
		transport.Addr{Net: "inproc", Address: aName},
		transport.Addr{Net: "inproc", Address: bName},
		size,
	)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// attachPeer connects a raw-protocol peer to the engine via an inproc pipe.
func attachPeer(t *testing.T, e *Engine) *testPeer {
	t.Helper()
	a, b := testPipe(t, fmt.Sprintf("peer-%p", t), "server", 0)
	if _, err := e.Attach(NewRawFramed(b)); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	p := &testPeer{t: t, conn: a, buf: make([]byte, 8192)}
	t.Cleanup(func() { a.Close() })
	return p
}

func (p *testPeer) send(m *protocol.Message) {
	p.t.Helper()
	if _, err := p.conn.Write(protocol.Encode(m)); err != nil {
		p.t.Fatalf("send: %v", err)
	}
}

// recv returns the next message or nil on timeout.
func (p *testPeer) recv(timeout time.Duration) *protocol.Message {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if m, err := p.dec.Next(); err != nil {
			p.t.Fatalf("decode: %v", err)
		} else if m != nil {
			return m
		}
		p.conn.SetReadDeadline(deadline)
		n, err := p.conn.Read(p.buf)
		if n > 0 {
			p.dec.Feed(p.buf[:n])
			continue
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return nil
		}
	}
}

// mustRecv fails the test if no message arrives.
func (p *testPeer) mustRecv(timeout time.Duration) *protocol.Message {
	p.t.Helper()
	m := p.recv(timeout)
	if m == nil {
		p.t.Fatal("expected a message, got none")
	}
	return m
}

// expectKind receives until a message of the wanted kind arrives.
func (p *testPeer) expectKind(kind protocol.Kind, timeout time.Duration) *protocol.Message {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m := p.recv(time.Until(deadline))
		if m == nil {
			break
		}
		if m.Kind == kind {
			return m
		}
	}
	p.t.Fatalf("no %v message within %v", kind, timeout)
	return nil
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.IoThreads == 0 {
		cfg.IoThreads = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	e := New(cfg)
	t.Cleanup(func() { e.Close() })
	return e
}

func TestConnectConnAck(t *testing.T) {
	e := newTestEngine(t, Config{ServerID: "srv-A"})
	p := attachPeer(t, e)
	p.send(&protocol.Message{Kind: protocol.KindConnect, ClientID: "c1"})
	ack := p.mustRecv(time.Second)
	if ack.Kind != protocol.KindConnAck || ack.ClientID != "srv-A" {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestPublishSubscribeNotify(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "scores"}}})
	if ack := sub.mustRecv(time.Second); ack.Kind != protocol.KindSubAck {
		t.Fatalf("suback = %+v", ack)
	}

	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "scores",
		ID: "m1", Payload: []byte("goal!"), Timestamp: 42})

	n := sub.expectKind(protocol.KindNotify, time.Second)
	if n.Topic != "scores" || string(n.Payload) != "goal!" || n.Seq != 1 || n.ID != "m1" || n.Timestamp != 42 {
		t.Fatalf("notify = %+v", n)
	}
}

func TestPublishAck(t *testing.T) {
	e := newTestEngine(t, Config{})
	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t", ID: "m1",
		Flags: protocol.FlagAckRequired})
	ack := pub.expectKind(protocol.KindPubAck, time.Second)
	if ack.Status != protocol.StatusOK || ack.ID != "m1" || ack.Seq != 1 {
		t.Fatalf("puback = %+v", ack)
	}
}

func TestPublishEmptyTopicFails(t *testing.T) {
	e := newTestEngine(t, Config{})
	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, ID: "m1",
		Flags: protocol.FlagAckRequired})
	ack := pub.expectKind(protocol.KindPubAck, time.Second)
	if ack.Status != protocol.StatusFailed {
		t.Fatalf("puback = %+v, want failed", ack)
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t"}}})
	sub.mustRecv(time.Second)

	pub := attachPeer(t, e)
	const n = 20
	for i := 0; i < n; i++ {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t",
			ID: fmt.Sprintf("m%d", i)})
	}
	for i := 1; i <= n; i++ {
		m := sub.expectKind(protocol.KindNotify, time.Second)
		if m.Seq != uint64(i) {
			t.Fatalf("notify %d has seq %d (total order per topic broken)", i, m.Seq)
		}
	}
}

func TestTwoSubscribersSameOrder(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 4, Workers: 4})
	subs := []*testPeer{attachPeer(t, e), attachPeer(t, e)}
	for _, s := range subs {
		s.send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "t"}}})
		s.mustRecv(time.Second)
	}
	// Two concurrent publishers to the same topic.
	pubs := []*testPeer{attachPeer(t, e), attachPeer(t, e)}
	const perPub = 25
	for _, p := range pubs {
		go func(p *testPeer) {
			for i := 0; i < perPub; i++ {
				p.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t"})
			}
		}(p)
	}
	var orders [2][]uint64
	for si, s := range subs {
		for i := 0; i < 2*perPub; i++ {
			m := s.expectKind(protocol.KindNotify, 2*time.Second)
			orders[si] = append(orders[si], m.Seq)
		}
	}
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			t.Fatalf("subscribers diverge at %d: %d vs %d", i, orders[0][i], orders[1][i])
		}
		if orders[0][i] != uint64(i+1) {
			t.Fatalf("gap or reorder at %d: seq %d", i, orders[0][i])
		}
	}
}

func TestSubscribeWithResumeReplaysHistory(t *testing.T) {
	e := newTestEngine(t, Config{})
	pub := attachPeer(t, e)
	for i := 1; i <= 5; i++ {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t",
			ID: fmt.Sprintf("m%d", i), Flags: protocol.FlagAckRequired})
		pub.expectKind(protocol.KindPubAck, time.Second)
	}

	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t", Epoch: 1, Seq: 2}}})
	sub.mustRecv(time.Second) // SubAck
	for i := 3; i <= 5; i++ {
		m := sub.expectKind(protocol.KindNotify, time.Second)
		if m.Seq != uint64(i) {
			t.Fatalf("replay seq = %d, want %d", m.Seq, i)
		}
		if m.Flags&protocol.FlagRetransmission == 0 {
			t.Fatalf("replayed message missing retransmission flag: %+v", m)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t"}}})
	sub.mustRecv(time.Second)
	sub.send(&protocol.Message{Kind: protocol.KindUnsubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t"}}})
	time.Sleep(50 * time.Millisecond) // let unsubscribe settle

	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t"})
	if m := sub.recv(150 * time.Millisecond); m != nil {
		t.Fatalf("received %+v after unsubscribe", m)
	}
}

func TestPingPong(t *testing.T) {
	e := newTestEngine(t, Config{})
	p := attachPeer(t, e)
	p.send(&protocol.Message{Kind: protocol.KindPing, Timestamp: 777})
	pong := p.mustRecv(time.Second)
	if pong.Kind != protocol.KindPong || pong.Timestamp != 777 {
		t.Fatalf("pong = %+v", pong)
	}
}

func TestDisconnectCleansUp(t *testing.T) {
	e := newTestEngine(t, Config{})
	p := attachPeer(t, e)
	p.send(&protocol.Message{Kind: protocol.KindConnect})
	p.mustRecv(time.Second)
	if e.NumClients() != 1 {
		t.Fatalf("NumClients = %d", e.NumClients())
	}
	p.send(&protocol.Message{Kind: protocol.KindDisconnect})
	waitFor(t, time.Second, func() bool { return e.NumClients() == 0 })
}

func TestProtocolViolationDisconnects(t *testing.T) {
	e := newTestEngine(t, Config{})
	p := attachPeer(t, e)
	p.send(&protocol.Message{Kind: protocol.KindNotify, Topic: "t"})
	waitFor(t, time.Second, func() bool { return e.NumClients() == 0 })
}

func TestCloseAllClients(t *testing.T) {
	e := newTestEngine(t, Config{})
	for i := 0; i < 5; i++ {
		attachPeer(t, e)
	}
	waitFor(t, time.Second, func() bool { return e.NumClients() == 5 })
	e.CloseAllClients()
	waitFor(t, time.Second, func() bool { return e.NumClients() == 0 })
}

func TestStatsCounters(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t"}}})
	sub.mustRecv(time.Second)
	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t"})
	sub.expectKind(protocol.KindNotify, time.Second)

	s := e.Stats()
	if s.Published != 1 || s.Delivered != 1 || s.Connects != 2 || s.BytesOut == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAttachAfterClose(t *testing.T) {
	e := New(Config{IoThreads: 1, Workers: 1})
	e.Close()
	a, b := testPipe(t, "x", "y", 0)
	defer a.Close()
	if _, err := e.Attach(NewRawFramed(b)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestBatchingDeliversEverything(t *testing.T) {
	e := newTestEngine(t, Config{
		BatchMaxBytes: 4096,
		BatchMaxDelay: 5 * time.Millisecond,
	})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "t"}}})
	sub.mustRecv(time.Second)

	pub := attachPeer(t, e)
	const n = 50
	for i := 0; i < n; i++ {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "t"})
	}
	for i := 1; i <= n; i++ {
		m := sub.expectKind(protocol.KindNotify, 2*time.Second)
		if m.Seq != uint64(i) {
			t.Fatalf("batched delivery out of order: seq %d at position %d", m.Seq, i)
		}
	}
}

func TestConflationCoalesces(t *testing.T) {
	e := newTestEngine(t, Config{ConflationInterval: 30 * time.Millisecond})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "ticker"}}})
	sub.mustRecv(time.Second)
	time.Sleep(10 * time.Millisecond)

	pub := attachPeer(t, e)
	const n = 10
	for i := 1; i <= n; i++ {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "ticker",
			Payload: []byte(fmt.Sprintf("price-%d", i))})
	}
	// The conflated notification must carry the LAST value.
	m := sub.expectKind(protocol.KindNotify, 2*time.Second)
	if string(m.Payload) != fmt.Sprintf("price-%d", n) {
		t.Fatalf("conflated payload = %q, want price-%d", m.Payload, n)
	}
	if m.Flags&protocol.FlagConflated == 0 {
		t.Fatalf("conflated message missing flag: %+v", m)
	}
}

func TestServeWebSocketMode(t *testing.T) {
	e := newTestEngine(t, Config{ServerID: "ws-srv"})
	l, err := transport.Listen("inproc", "engine-ws-test")
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l, "ws")

	nc, err := transport.Dial("inproc", "engine-ws-test")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := websocket.ClientHandshake(nc, "engine-ws-test", "/")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if err := ws.WriteMessage(websocket.OpBinary,
		protocol.Encode(&protocol.Message{Kind: protocol.KindConnect, ClientID: "wsc"})); err != nil {
		t.Fatal(err)
	}
	// One blocking read through the deframer, as client/session.go does it.
	var dec protocol.StreamDecoder
	sr := ws.NewStreamReader(nil)
	if err := sr.FeedBuffered(dec.Feed); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Feed(buf[:n], dec.Feed); err != nil {
		t.Fatal(err)
	}
	ack, err := dec.Next()
	if err != nil || ack == nil || ack.Kind != protocol.KindConnAck || ack.ClientID != "ws-srv" {
		t.Fatalf("ws connack = %+v, %v", ack, err)
	}
}

func TestServeRawMode(t *testing.T) {
	e := newTestEngine(t, Config{})
	l, err := transport.Listen("inproc", "engine-raw-test")
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l, "raw")
	nc, err := transport.Dial("inproc", "engine-raw-test")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(protocol.Encode(&protocol.Message{Kind: protocol.KindPing}))
	buf := make([]byte, 1024)
	nc.SetReadDeadline(time.Now().Add(time.Second))
	n, err := nc.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("no pong: %v", err)
	}
}

func TestPinningStableAndSpread(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 4, Workers: 4})
	ioSeen := map[int]bool{}
	wSeen := map[int]bool{}
	for i := 0; i < 64; i++ {
		a, b := testPipe(t, fmt.Sprintf("pin-%d", i), "server", 0)
		defer a.Close()
		c, err := e.Attach(NewRawFramed(b))
		if err != nil {
			t.Fatal(err)
		}
		if c.io == nil || c.worker == nil {
			t.Fatal("client not pinned")
		}
		ioSeen[c.io.index] = true
		wSeen[c.worker.index] = true
	}
	if len(ioSeen) < 3 || len(wSeen) < 3 {
		t.Fatalf("poor spread: ioThreads used %d/4, workers used %d/4", len(ioSeen), len(wSeen))
	}
}

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within timeout")
}
