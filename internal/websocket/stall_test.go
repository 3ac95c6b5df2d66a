package websocket

import (
	"bytes"
	"sync"
	"syscall"
	"testing"
	"time"
)

// stallPair returns a connected pair over the smallest socket buffers the
// kernel grants, so the server's writes stall soon after the client stops
// reading, and the server's send-buffer size as the kernel reports it.
func stallPair(t *testing.T) (client, server *Conn, sndbuf int) {
	t.Helper()
	a, b := testPipe(t, 1)
	rc, err := b.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	if cerr := rc.Control(func(fd uintptr) {
		sndbuf, err = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); cerr != nil || err != nil {
		t.Fatalf("SO_SNDBUF: %v %v", cerr, err)
	}
	var wg sync.WaitGroup
	var serr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, serr = ServerHandshake(b)
	}()
	c, cerr := ClientHandshake(a, "test", "/ws")
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	t.Cleanup(func() {
		c.Close()
		server.Close()
	})
	return c, server, sndbuf
}

// TestControlCarryBoundedAndReaderDrained proves the two control-frame
// properties of stall-aware mode: (1) pong responses to a ping-flooding,
// never-reading peer cannot grow the carry past controlCarryCap — excess
// control frames are dropped, since control traffic is not charged to any
// egress budget; (2) control-only carry needs no engine traffic to drain —
// the read loop flushes it as soon as the peer talks again and the
// transport has room.
func TestControlCarryBoundedAndReaderDrained(t *testing.T) {
	client, server, sndbuf := stallPair(t)
	server.SetWriteStall()

	// Server read loop: answers every ping with a pong (stall-aware, so it
	// never blocks on the full peer).
	readDone := make(chan error, 1)
	go func() {
		_, err := newMsgReader(server).next(1)
		readDone <- err
	}()

	// Flood pings without reading: the server's pongs (12 wire bytes each)
	// fill the socket buffer, then the carry — which must stay bounded. 500
	// more than the buffer could hold overrun the cap several times.
	for i := 0; i < 500+sndbuf/12; i++ {
		if err := client.WriteControl(OpPing, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil := time.Now().Add(2 * time.Second)
	for server.StalledBytes() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	// Generous slack over the cap: one in-flight frame may straddle it.
	if sb := server.StalledBytes(); sb > controlCarryCap+256 {
		t.Fatalf("control carry grew to %d bytes (cap %d): ping flood pins unbounded memory", sb, controlCarryCap)
	}

	// The peer starts reading (drain pongs) and keeps pinging: the server
	// read loop must flush the withheld pongs without any engine traffic.
	go newMsgReader(client).next(1) // only pongs arrive: returns when the conn closes
	pinger := time.NewTicker(5 * time.Millisecond)
	defer pinger.Stop()
	deadline := time.After(5 * time.Second)
	for server.StalledBytes() > 0 {
		select {
		case <-pinger.C:
			_ = client.WriteControl(OpPing, nil)
		case <-deadline:
			t.Fatalf("control carry never drained (%d bytes left)", server.StalledBytes())
		}
	}
}

// TestWriteStallCarriesAndFlushes proves the stall-aware write contract on
// the WebSocket layer: a write against a full peer returns without
// waiting, with the remainder carried wire-exact, later frames queue
// behind it in order, and once the reader drains, retried flushes deliver
// every message intact.
func TestWriteStallCarriesAndFlushes(t *testing.T) {
	client, server, sndbuf := stallPair(t)
	server.SetWriteStall()

	// Two messages, both larger than the transport buffer: the first write
	// must carry a remainder instead of blocking, the second must append
	// behind it.
	msgA := bytes.Repeat([]byte("a"), 4*sndbuf)
	msgB := bytes.Repeat([]byte("b"), 2*sndbuf)
	start := time.Now()
	if err := server.WriteMessage(OpBinary, msgA); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteMessage(OpBinary, msgB); err != nil {
		t.Fatal(err)
	}
	if blocked := time.Since(start); blocked > time.Second {
		t.Fatalf("stall-aware writes blocked %v", blocked)
	}
	if server.StalledBytes() == 0 {
		t.Fatal("nothing carried despite a full peer")
	}

	// Drain on the reader side while the writer retries flushes — the
	// engine's stalled-retry loop in miniature.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var flushed int64
		for server.StalledBytes() > 0 {
			n, err := server.FlushStalled()
			if err != nil {
				t.Errorf("FlushStalled: %v", err)
				return
			}
			flushed += n
			time.Sleep(time.Millisecond)
		}
		if flushed == 0 {
			t.Error("FlushStalled reported zero bytes written across the drain")
		}
	}()
	r := newMsgReader(client)
	for _, want := range [][]byte{msgA, msgB} {
		got, err := r.next(len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read: err=%v len=%d want len=%d (first byte %q)",
				err, len(got), len(want), want[0])
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("carry never drained")
	}
	if server.StalledBytes() != 0 {
		t.Fatalf("StalledBytes = %d after drain", server.StalledBytes())
	}
}

// TestStallWritesCopyNothing pins the zero-copy server path in stall-aware
// mode: header and payload leave in one writev straight from the caller's
// slice, so frames written while the socket has room — and those that run
// into a full one — never grow the masked path's frame buffer, and only
// the unwritten suffix is ever copied, into the carry.
func TestStallWritesCopyNothing(t *testing.T) {
	_, server, sndbuf := stallPair(t)
	server.SetWriteStall()
	payload := bytes.Repeat([]byte("p"), 1000)
	frames := 4 * sndbuf / len(payload) // well past a full socket
	for i := 0; i < frames; i++ {
		if err := server.writeFrame(true, OpBinary, payload); err != nil {
			t.Fatal(err)
		}
	}
	if server.StalledBytes() == 0 {
		t.Fatal("nothing carried: the socket never filled")
	}
	if c := cap(server.writeBuf); c != 0 {
		t.Fatalf("cap(writeBuf) = %d after %d stall-mode server frames, want 0 (payload copied)", c, frames)
	}
	if wire := int64(frames * (len(payload) + 4)); server.StalledBytes() >= wire {
		t.Fatalf("carry holds %d of %d wire bytes: nothing reached the socket", server.StalledBytes(), wire)
	}
}
