package core

import (
	"fmt"
	"testing"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/protocol"
)

// attachClient attaches a raw-framed connection and returns both the
// engine-side Client (for internal-state assertions) and the peer end.
func attachClient(t *testing.T, e *Engine, name string) (*Client, *testPeer) {
	t.Helper()
	a, b := testPipe(t, name, "server", 0)
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return c, &testPeer{t: t, conn: a, buf: make([]byte, 8192)}
}

// inPendingFlush reads c's membership in its ioThread's pendingFlush set on
// the ioThread loop itself (the only race-free place to look).
func inPendingFlush(t *testing.T, c *Client) bool {
	t.Helper()
	var present bool
	if !c.io.do(func() { _, present = c.io.pendingFlush[c] }) {
		t.Fatal("ioThread already shut down")
	}
	return present
}

// TestSizeFlushRemovesPendingFlush is the regression test for the
// pendingFlush bookkeeping: a client whose batcher got flushed by the size
// trigger must leave the pendingFlush set immediately, so subsequent ticks
// do not re-visit a client with nothing due.
func TestSizeFlushRemovesPendingFlush(t *testing.T) {
	e := newTestEngine(t, Config{
		BatchMaxBytes: 64,
		BatchMaxDelay: time.Hour, // only the size trigger can flush
		TickInterval:  time.Hour, // ticks are driven manually below
	})
	c, peer := attachClient(t, e, "pending-flush")

	// A small frame batches without flushing: the client goes pending.
	c.SendFrame(make([]byte, 16))
	if !inPendingFlush(t, c) {
		t.Fatal("client with batched output not tracked in pendingFlush")
	}

	// Crossing maxBytes flushes by size — and must drop the stale
	// pendingFlush entry along the way.
	c.SendFrame(make([]byte, 64))
	if inPendingFlush(t, c) {
		t.Fatal("size-flushed client still tracked in pendingFlush")
	}

	// A manual tick must find nothing to do for this client: no re-visit,
	// no second write.
	flushesBefore := e.Stats().IOFlushes
	c.io.in.Push(ioEvent{kind: evTick})
	if inPendingFlush(t, c) {
		t.Fatal("tick re-admitted a flushed client to pendingFlush")
	}
	if got := e.Stats().IOFlushes; got != flushesBefore {
		t.Fatalf("tick performed %d extra flushes for an already-flushed client", got-flushesBefore)
	}

	// The peer received exactly the one 80-byte batch.
	total := 0
	deadline := time.Now().Add(2 * time.Second)
	for total < 80 && time.Now().Before(deadline) {
		peer.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _ := peer.conn.Read(peer.buf)
		total += n
	}
	if total != 80 {
		t.Fatalf("peer received %d bytes, want 80", total)
	}
}

// TestGroupedFanoutEventCount pins the tentpole property: delivering one
// message to subscribers spread over the IoThreads costs at most one
// grouped write event per IoThread — not one per subscriber.
func TestGroupedFanoutEventCount(t *testing.T) {
	const ioThreads = 4
	const subscribers = 16
	e := newTestEngine(t, Config{IoThreads: ioThreads, Workers: 1})

	peers := make([]*testPeer, subscribers)
	for i := range peers {
		_, p := attachClient(t, e, fmt.Sprintf("fan-%d", i))
		peers[i] = p
		p.send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "hot"}}})
		p.expectKind(protocol.KindSubAck, 2*time.Second)
	}

	before := e.Stats()
	if n := e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("x")}); n != 1 {
		t.Fatalf("Deliver enqueued %d worker events, want 1 (single worker)", n)
	}
	for i, p := range peers {
		m := p.expectKind(protocol.KindNotify, 2*time.Second)
		if m.Seq != 1 || m.Topic != "hot" {
			t.Fatalf("peer %d got %+v", i, m)
		}
	}
	st := e.Stats()
	events := st.FanoutEvents - before.FanoutEvents
	if events < 1 || events > ioThreads {
		t.Fatalf("fan-out to %d subscribers pushed %d grouped events, want 1..%d",
			subscribers, events, ioThreads)
	}
	if delivered := st.Delivered - before.Delivered; delivered != subscribers {
		t.Fatalf("delivered counter = %d, want %d", delivered, subscribers)
	}

	// A second delivery costs the same O(ioThreads) again (scratch reuse,
	// no leftover state from round one).
	if e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 2, Payload: []byte("y")}) != 1 {
		t.Fatal("second Deliver routing changed")
	}
	for _, p := range peers {
		p.expectKind(protocol.KindNotify, 2*time.Second)
	}
	if d := e.Stats().FanoutEvents - st.FanoutEvents; d < 1 || d > ioThreads {
		t.Fatalf("second fan-out pushed %d grouped events, want 1..%d", d, ioThreads)
	}
}

// TestGroupedFanoutSkipsClosedClients: a client torn down between the
// worker staging a write set and the ioThread draining it must simply be
// skipped, and the remaining members of the set still get the frame.
func TestGroupedFanoutSkipsClosedClients(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	cDead, _ := attachClient(t, e, "dead")
	_, alive := attachClient(t, e, "alive")
	alive.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "hot"}}})
	alive.expectKind(protocol.KindSubAck, 2*time.Second)

	// Subscribe the doomed client on the worker loop directly so we control
	// its lifecycle without a peer read loop.
	if !cDead.worker.do(func() {
		cDead.worker.subscribe(cDead, &protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "hot"}}})
	}) {
		t.Fatal("worker shut down")
	}
	// Mark it closed as a teardown in flight would.
	cDead.closed.Store(true)

	e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("x")})
	if m := alive.expectKind(protocol.KindNotify, 2*time.Second); m.Seq != 1 {
		t.Fatalf("live subscriber got %+v", m)
	}
}

// TestHandleBytesReleasesMessageOnClosedWorkerQueue is the regression test
// for the shutdown leak in handleBytes: the worker queue rejects pushes
// once the engine closes it, and a rejected weClientMsg used to drop its
// decoded message — pool-backed struct and 8 KiB payload both — on the
// floor. Driving handleBytes directly against a closed engine makes the
// race deterministic; with the rejected message released, the loop runs
// allocation-free on pool reuse, while a leak costs two fresh allocations
// per message.
func TestHandleBytesReleasesMessageOnClosedWorkerQueue(t *testing.T) {
	e := newTestEngine(t, Config{})
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	frame := protocol.Encode(&protocol.Message{
		Kind:    protocol.KindPublish,
		Payload: make([]byte, 64),
	})
	c := &Client{worker: e.workers[0]}
	c.decoder.PoolPayloads = true
	c.decoder.PoolMessages = true
	io0 := e.ioThreads[0]

	allocs := testing.AllocsPerRun(50, func() {
		io0.handleBytes(c, frame)
	})
	if allocs > 0.5 {
		t.Fatalf("handleBytes allocates %.2f/op against a closed worker queue: rejected messages are not returned to their pools", allocs)
	}
}
