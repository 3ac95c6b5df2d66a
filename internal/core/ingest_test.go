package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/protocol"
)

// TestConcurrentPublishersOrdering guards the encode-outside-lock hand-off:
// N goroutines publish to one topic through the restructured sequencer (via
// real connections, so the pooled decode→dispatch→publish pipeline is the
// one under test), and a subscriber must observe every message exactly
// once, in strictly increasing (epoch, seq) order with no gaps. Run under
// -race (the CI test job does) this also exercises the drainer hand-off
// for data races.
func TestConcurrentPublishersOrdering(t *testing.T) {
	const publishers = 8
	const perPublisher = 250
	const total = publishers * perPublisher

	e := newTestEngine(t, Config{IoThreads: 4, Workers: 4})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "ordered"}}})
	if ack := sub.mustRecv(time.Second); ack.Kind != protocol.KindSubAck {
		t.Fatalf("expected SUBACK, got %+v", ack)
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pub := attachPeer(t, e)
		wg.Add(1)
		go func(p int, pub *testPeer) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				frame := protocol.Encode(&protocol.Message{
					Kind: protocol.KindPublish, Topic: "ordered",
					ID:      fmt.Sprintf("p%d:%d", p, i),
					Payload: []byte("x"),
				})
				if _, err := pub.conn.Write(frame); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}(p, pub)
	}
	defer wg.Wait()

	var lastEpoch uint32
	var lastSeq uint64
	for n := 0; n < total; n++ {
		m := sub.expectKind(protocol.KindNotify, 10*time.Second)
		if m.Epoch < lastEpoch || (m.Epoch == lastEpoch && m.Seq != lastSeq+1) {
			t.Fatalf("notification %d out of order: got (%d,%d) after (%d,%d)",
				n, m.Epoch, m.Seq, lastEpoch, lastSeq)
		}
		lastEpoch, lastSeq = m.Epoch, m.Seq
	}
	if lastSeq != total {
		t.Fatalf("final seq = %d, want %d (dense, nothing lost)", lastSeq, total)
	}
}

// TestPublishTakesOneGroupLockAcquisition pins the tentpole invariant at
// the unit level: each publication acquires the cache's topic-group write
// lock exactly once (the single AppendNext), not the three acquisitions of
// the old sequencer-lock → Position → Append shape.
func TestPublishTakesOneGroupLockAcquisition(t *testing.T) {
	e := newTestEngine(t, Config{})
	pub := attachPeer(t, e)
	const publishes = 32
	before := e.Cache().MemStats().GroupLockAcquisitions
	for i := 0; i < publishes; i++ {
		pub.send(&protocol.Message{
			Kind: protocol.KindPublish, Topic: "one-lock",
			ID: fmt.Sprintf("m%d", i), Flags: protocol.FlagAckRequired,
		})
		if ack := pub.expectKind(protocol.KindPubAck, time.Second); ack.Seq != uint64(i+1) {
			t.Fatalf("publish %d acked with seq %d", i, ack.Seq)
		}
	}
	if got := e.Cache().MemStats().GroupLockAcquisitions - before; got != publishes {
		t.Fatalf("%d publishes took %d group-lock acquisitions, want exactly %d",
			publishes, got, publishes)
	}
}

// TestEnginePublishServerOriginated covers the exported Publish entry point
// (server-originated publications, pooled-message ownership transfer).
func TestEnginePublishServerOriginated(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "srv"}}})
	sub.expectKind(protocol.KindSubAck, time.Second)

	for i := 0; i < 3; i++ {
		m := protocol.AcquireMessage()
		m.Kind = protocol.KindPublish
		m.Topic = "srv"
		m.ID = fmt.Sprintf("s%d", i)
		m.Payload = []byte("payload")
		e.Publish(m) // takes ownership of m
	}
	for i := 0; i < 3; i++ {
		m := sub.expectKind(protocol.KindNotify, time.Second)
		if m.Seq != uint64(i+1) || string(m.Payload) != "payload" {
			t.Fatalf("notify %d = %+v", i, m)
		}
	}
	if got := e.Stats().Published; got != 3 {
		t.Fatalf("Published = %d, want 3", got)
	}
}

// TestDetachReleasesClientState guards the teardown path: a client that
// disconnects permanently must have its subscription map released (nil, not
// reallocated) and its topics de-indexed, so a churning fleet of short-lived
// connections does not accumulate per-dead-client state.
func TestDetachReleasesClientState(t *testing.T) {
	e := newTestEngine(t, Config{})
	a, b := testPipe(t, "detach-client", "server", 0)
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatal(err)
	}
	p := &testPeer{t: t, conn: a, buf: make([]byte, 8192)}
	p.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "d1"}, {Topic: "d2"}}})
	p.expectKind(protocol.KindSubAck, time.Second)
	if !e.subIndex.contains("d1", c.worker.index) {
		t.Fatal("subscription not indexed before teardown")
	}

	a.Close()
	deadline := time.Now().Add(2 * time.Second)
	for e.NumClients() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.NumClients() != 0 {
		t.Fatal("client not unregistered after close")
	}
	// Read worker-owned state on the worker loop: after the detach event
	// the subscription set must be gone, not replaced by a fresh one.
	var subsAfter topicSet
	if !c.worker.do(func() { subsAfter = c.subs }) {
		t.Fatal("worker rejected introspection")
	}
	if subsAfter != nil {
		t.Fatalf("detached client still holds a subscription set: %v", subsAfter)
	}
	if e.subIndex.contains("d1", c.worker.index) || e.subIndex.contains("d2", c.worker.index) {
		t.Fatal("detached client's topics still indexed")
	}
}
