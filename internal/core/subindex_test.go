package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/protocol"
)

var clientPeerCounter atomic.Uint64

// attachClientPeer is attachPeer plus the server-side Client, so tests can
// observe worker pinning.
func attachClientPeer(t *testing.T, e *Engine) (*testPeer, *Client) {
	t.Helper()
	a, b := testPipe(t, fmt.Sprintf("cpeer-%d", clientPeerCounter.Add(1)), "server", 0)
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	p := &testPeer{t: t, conn: a, buf: make([]byte, 8192)}
	t.Cleanup(func() { a.Close() })
	return p, c
}

// checkIndexConsistency verifies that the engine's topic→worker index
// matches every worker's subsByTopic exactly, in both directions. Callers
// must have quiesced subscription churn first (the worker barriers below
// only order the check after events already enqueued).
func checkIndexConsistency(t *testing.T, e *Engine) {
	t.Helper()
	// Barrier: every worker drains the events enqueued before this point.
	for _, w := range e.workers {
		w.do(func() {})
	}
	// Forward: every topic with local subscribers is indexed for the worker.
	for _, w := range e.workers {
		w := w
		w.do(func() {
			for topic, set := range w.subsByTopic {
				if set.size() == 0 {
					t.Errorf("worker %d retains an empty subscriber set for %q", w.index, topic)
				}
				if !e.subIndex.contains(topic, w.index) {
					t.Errorf("worker %d has %d subscriber(s) for %q but is not indexed", w.index, set.size(), topic)
				}
			}
		})
	}
	// Reverse: every indexed (topic, worker) pair has live subscribers.
	for topic, workers := range e.subIndex.snapshot() {
		for _, wi := range workers {
			w := e.workers[wi]
			topic := topic
			w.do(func() {
				if w.subsByTopic[topic].size() == 0 {
					t.Errorf("index lists worker %d for %q but it has no subscribers", w.index, topic)
				}
			})
		}
	}
}

// TestDeliverRoutesToExactlyOneWorker pins all subscribers of one topic to
// a single worker (out of 8) and proves a publication enqueues exactly one
// weDeliver event — the headline property of subscription-aware routing.
func TestDeliverRoutesToExactlyOneWorker(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 8})
	var peers []*testPeer
	var clients []*Client
	for i := 0; i < 32; i++ {
		p, c := attachClientPeer(t, e)
		peers = append(peers, p)
		clients = append(clients, c)
	}
	// Subscribers of "solo" all sit on the first peer's worker; everyone
	// else subscribes to a different topic so their workers stay busy with
	// unrelated state.
	target := clients[0].worker.index
	soloSubs := 0
	for i, c := range clients {
		topic := "elsewhere"
		if c.worker.index == target {
			topic = "solo"
			soloSubs++
		}
		peers[i].send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: topic}}})
		peers[i].expectKind(protocol.KindSubAck, time.Second)
	}
	if soloSubs == 0 {
		t.Fatal("no subscriber landed on the target worker")
	}

	base := e.Stats()
	pub, _ := attachClientPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "solo", ID: "m1"})
	for i, c := range clients {
		if c.worker.index == target {
			if m := peers[i].expectKind(protocol.KindNotify, time.Second); m.Topic != "solo" {
				t.Fatalf("notify = %+v", m)
			}
		}
	}
	st := e.Stats()
	if routed := st.DeliverRouted - base.DeliverRouted; routed != 1 {
		t.Fatalf("publish enqueued %d weDeliver events, want exactly 1", routed)
	}
	if skipped := st.DeliverSkipped - base.DeliverSkipped; skipped != 7 {
		t.Fatalf("publish skipped %d workers, want 7", skipped)
	}
	// Direct Deliver agrees with the counters, as does the group-aware fast
	// path (with and without a valid pre-computed group).
	if n := e.Deliver("solo", cache.Entry{Epoch: 1, Seq: 99}); n != 1 {
		t.Fatalf("Deliver routed to %d workers, want 1", n)
	}
	if n := e.DeliverGroup(e.cache.GroupOf("solo"), "solo", cache.Entry{Epoch: 1, Seq: 100}); n != 1 {
		t.Fatalf("DeliverGroup routed to %d workers, want 1", n)
	}
	if n := e.DeliverGroup(-1, "solo", cache.Entry{Epoch: 1, Seq: 101}); n != 1 {
		t.Fatalf("DeliverGroup with out-of-range group routed to %d workers, want 1", n)
	}
}

// TestDeliverUnsubscribedTopicZeroAllocs is the regression test for the
// zero-cost path: a publication to a topic with no subscribers anywhere
// must not encode a frame and must not allocate at all.
func TestDeliverUnsubscribedTopicZeroAllocs(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 4})
	entry := cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("nobody reads this")}
	allocs := testing.AllocsPerRun(100, func() {
		if n := e.Deliver("cold-topic", entry); n != 0 {
			t.Fatalf("routed %d events for an unsubscribed topic", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("Deliver to an unsubscribed topic allocates %v times per call, want 0", allocs)
	}
}

// TestSubIndexMatchesWorkerStateAcrossLifecycle drives subscribe →
// unsubscribe → disconnect (mid-publication-stream) → resubscribe and
// verifies after every phase that the topic→worker index agrees exactly
// with each worker's subscriber sets.
func TestSubIndexMatchesWorkerStateAcrossLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 4})
	topics := []string{"alpha", "beta", "gamma"}
	const n = 12
	peers := make([]*testPeer, n)
	conns := make([]*testPeer, 0) // live peers after disconnects
	for i := 0; i < n; i++ {
		p, _ := attachClientPeer(t, e)
		peers[i] = p
		p.send(&protocol.Message{Kind: protocol.KindSubscribe, Topics: []protocol.TopicPosition{
			{Topic: "alpha"}, {Topic: "beta"}, {Topic: "gamma"},
		}})
		p.expectKind(protocol.KindSubAck, time.Second)
	}
	checkIndexConsistency(t, e)

	// Unsubscribe every even client from beta and gamma. Unsubscribe has no
	// ack, so a ping/pong on the same connection orders the check after it.
	for i := 0; i < n; i += 2 {
		peers[i].send(&protocol.Message{Kind: protocol.KindUnsubscribe, Topics: []protocol.TopicPosition{
			{Topic: "beta"}, {Topic: "gamma"},
		}})
		peers[i].send(&protocol.Message{Kind: protocol.KindPing})
		peers[i].expectKind(protocol.KindPong, time.Second)
	}
	checkIndexConsistency(t, e)

	// Disconnect a third of the clients while a publisher streams into the
	// same topics (detach racing live deliveries).
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	pub, _ := attachClientPeer(t, e)
	go func() {
		defer close(pubDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pub.conn.Write(protocol.Encode(&protocol.Message{
				Kind: protocol.KindPublish, Topic: topics[i%len(topics)],
				ID: fmt.Sprintf("mid-%d", i), Payload: []byte("x"),
			}))
			time.Sleep(time.Millisecond)
		}
	}()
	dropped := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			peers[i].conn.Close()
			dropped++
		} else {
			conns = append(conns, peers[i])
		}
	}
	// +1 for the publisher connection still attached.
	waitFor(t, 2*time.Second, func() bool { return e.NumClients() == n-dropped+1 })
	close(stop)
	<-pubDone
	checkIndexConsistency(t, e)

	// Resubscribe the survivors to gamma plus a brand-new topic.
	for _, p := range conns {
		p.send(&protocol.Message{Kind: protocol.KindSubscribe, Topics: []protocol.TopicPosition{
			{Topic: "gamma"}, {Topic: "delta"},
		}})
		p.expectKind(protocol.KindSubAck, 2*time.Second)
	}
	checkIndexConsistency(t, e)

	// Full teardown leaves the index empty.
	for _, p := range conns {
		p.conn.Close()
	}
	pub.conn.Close()
	waitFor(t, 2*time.Second, func() bool { return e.NumClients() == 0 })
	for _, w := range e.workers {
		w.do(func() {})
	}
	if snap := e.subIndex.snapshot(); len(snap) != 0 {
		t.Fatalf("index not empty after all clients detached: %v", snap)
	}
}

// TestInterestHookFiresOnGroupTransitions drives the engine-level interest
// hook the cluster layer builds its gossip digest on: it must fire exactly
// when a topic group gains its first local subscriber or loses its last
// one, and never on intermediate subscription churn. TopicGroups is 1 so
// every topic lands in group 0 and the transitions are deterministic.
func TestInterestHookFiresOnGroupTransitions(t *testing.T) {
	var mu sync.Mutex
	var events []bool // state of group 0 as observed at each hook call
	e := New(Config{IoThreads: 1, Workers: 2, TopicGroups: 1})
	t.Cleanup(func() { e.Close() })
	e.SetInterestHook(func(g int) {
		if g != 0 {
			t.Errorf("hook fired for group %d, want 0", g)
		}
		mu.Lock()
		events = append(events, e.GroupHasSubscribers(g))
		mu.Unlock()
	})

	snapshot := func() []bool {
		for _, w := range e.workers {
			w.do(func() {}) // barrier: drain enqueued subscription events
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]bool(nil), events...)
	}

	a, _ := attachClientPeer(t, e)
	b, _ := attachClientPeer(t, e)
	a.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "first"}}})
	a.expectKind(protocol.KindSubAck, time.Second)
	if got := snapshot(); len(got) != 1 || !got[0] {
		t.Fatalf("after first subscribe: hook events = %v, want [true]", got)
	}
	if !e.GroupHasSubscribers(0) {
		t.Fatal("GroupHasSubscribers(0) = false with a live subscriber")
	}

	// More subscriptions in the same (only) group: no transition.
	b.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "second"}}})
	b.expectKind(protocol.KindSubAck, time.Second)
	if got := snapshot(); len(got) != 1 {
		t.Fatalf("after second subscribe: hook events = %v, want no new event", got)
	}

	// Dropping one of two topics keeps the group occupied.
	a.send(&protocol.Message{Kind: protocol.KindUnsubscribe,
		Topics: []protocol.TopicPosition{{Topic: "first"}}})
	a.send(&protocol.Message{Kind: protocol.KindPing})
	a.expectKind(protocol.KindPong, time.Second)
	if got := snapshot(); len(got) != 1 {
		t.Fatalf("after partial unsubscribe: hook events = %v, want no new event", got)
	}

	// Last subscriber detaches: the group empties.
	b.conn.Close()
	waitFor(t, 2*time.Second, func() bool { return !e.GroupHasSubscribers(0) })
	if got := snapshot(); len(got) != 2 || got[1] {
		t.Fatalf("after last detach: hook events = %v, want [true false]", got)
	}
}

// TestAggregateFrameSingleMessageReuse verifies flushConflated's frame
// choice: a single-message aggregate reuses the frame encoded at Deliver
// time byte-for-byte, while a multi-message aggregate re-encodes with
// FlagConflated.
func TestAggregateFrameSingleMessageReuse(t *testing.T) {
	entry := cache.Entry{Epoch: 1, Seq: 7, Payload: []byte("px=101.5"), Timestamp: 9}
	frame := protocol.Encode(notifyMessage("ticker", entry, 0))
	agg := &aggregate{topic: "ticker", entry: entry, frame: frame, count: 1}
	got := aggregateFrame(agg)
	if &got[0] != &frame[0] {
		t.Fatal("single-message aggregate re-encoded instead of reusing the pre-encoded frame")
	}

	agg.count = 2
	got = aggregateFrame(agg)
	if &got[0] == &frame[0] {
		t.Fatal("multi-message aggregate must not reuse the unconflated frame")
	}
	var dec protocol.StreamDecoder
	dec.Feed(got)
	m, err := dec.Next()
	if err != nil || m == nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Flags&protocol.FlagConflated == 0 {
		t.Fatalf("multi-message aggregate missing FlagConflated: %+v", m)
	}
	if m.Seq != entry.Seq || string(m.Payload) != string(entry.Payload) {
		t.Fatalf("aggregate frame = %+v", m)
	}
}

// TestConflationSingleMessageUnflagged is the end-to-end companion: with
// conflation on, a topic that saw exactly one message in the interval is
// delivered without the conflated flag and with the original content.
func TestConflationSingleMessageUnflagged(t *testing.T) {
	e := newTestEngine(t, Config{ConflationInterval: 20 * time.Millisecond})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "calm"}}})
	sub.mustRecv(time.Second)
	time.Sleep(10 * time.Millisecond)

	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "calm",
		ID: "only", Payload: []byte("steady")})
	m := sub.expectKind(protocol.KindNotify, 2*time.Second)
	if m.Flags&protocol.FlagConflated != 0 {
		t.Fatalf("single message within the interval carries FlagConflated: %+v", m)
	}
	if string(m.Payload) != "steady" || m.ID != "only" {
		t.Fatalf("notify = %+v", m)
	}
}
