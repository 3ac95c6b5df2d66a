package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"migratorydata/internal/protocol"
)

// attachSmallPeer attaches a raw-protocol peer over a deliberately tiny
// pipe, so a peer that stops reading stalls the transport almost
// immediately — the slow-consumer shape the overload path exists for.
func attachSmallPeer(t *testing.T, e *Engine, name string, pipeBuffer int) *testPeer {
	t.Helper()
	a, b := testPipe(t, name, "server", pipeBuffer)
	if _, err := e.Attach(NewRawFramed(b)); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	p := &testPeer{t: t, conn: a, buf: make([]byte, 1<<16)}
	t.Cleanup(func() { a.Close() })
	return p
}

// subscribeFrom subscribes the peer from the given resume position and
// waits for the ack.
func subscribeFrom(t *testing.T, p *testPeer, topic string, epoch uint32, seq uint64) {
	t.Helper()
	p.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: topic, Epoch: epoch, Seq: seq}}})
	if m := p.mustRecv(2 * time.Second); m.Kind != protocol.KindSubAck {
		t.Fatalf("expected SUBACK, got %v", m.Kind)
	}
}

// publishN publishes n server-originated messages of size bytes to topic.
func publishN(e *Engine, topic string, n, size int) {
	for i := 0; i < n; i++ {
		m := protocol.AcquireMessage()
		m.Kind = protocol.KindPublish
		m.Topic = topic
		m.ID = fmt.Sprintf("p:%d", i)
		m.Payload = make([]byte, size)
		m.Timestamp = 1
		e.Publish(m)
	}
}

// TestNegativeEgressBudgetRejected: overload protection has no off switch.
// Open refuses a negative budget, rather than reading it as some other
// value, before it starts any IoThread, Worker or timer goroutine.
func TestNegativeEgressBudgetRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := Open(Config{EgressBudgetBytes: -(1 << 20)})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted a negative EgressBudgetBytes")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across a rejected Open", before, after)
	}
}

// TestStalledClientDoesNotBlockPeers pins a stalled subscriber and a live
// one to the SAME IoThread and asserts the live one keeps receiving — the
// core isolation property: with stall-aware writes, a full transport
// diverts into the carry/backlog instead of blocking the thread (before
// the overload path, the blocking write wedged the IoThread for up to the
// 30s write timeout).
func TestStalledClientDoesNotBlockPeers(t *testing.T) {
	e := New(Config{
		ServerID: "stall", IoThreads: 1, Workers: 1, TopicGroups: 4,
		EgressBudgetBytes: 64 << 10,
		Classify:          func(string) DeliveryClass { return ClassConflatable },
	})
	defer e.Close()

	stalled := attachSmallPeer(t, e, "stalled-peer", 512)
	live := attachSmallPeer(t, e, "live-peer", 1<<16)
	subscribeFrom(t, stalled, "hot", 0, 0)
	subscribeFrom(t, live, "hot", 0, 0)

	// The stalled peer never reads again. Publish enough to fill its pipe
	// many times over; the live peer must still see every message promptly.
	const msgs = 50
	go publishN(e, "hot", msgs, 512)
	var last uint64
	deadline := time.Now().Add(5 * time.Second)
	for last < msgs {
		m := live.recv(time.Until(deadline))
		if m == nil {
			t.Fatalf("live peer starved at seq %d: stalled peer blocked the IoThread", last)
		}
		if m.Kind == protocol.KindNotify {
			last = m.Seq
		}
	}
	if st := e.Stats(); st.SlowConsumers != 1 {
		t.Fatalf("slow_consumers = %d, want 1", st.SlowConsumers)
	}
}

// TestPressureDropsBoundedAndRecovers stalls a conflatable-topic subscriber
// under sustained load and asserts: (1) the overload policy drops frames
// (conflation/drop-oldest) instead of disconnecting, (2) the client's
// staged bytes stay bounded by the budget, (3) when the reader resumes it
// receives the NEWEST message (drop-oldest keeps fresh data), and the
// egress ledger drains back to zero.
func TestPressureDropsBoundedAndRecovers(t *testing.T) {
	const budget = 16 << 10
	e := New(Config{
		ServerID: "drops", IoThreads: 1, Workers: 1, TopicGroups: 4,
		EgressBudgetBytes: budget,
		Classify:          func(string) DeliveryClass { return ClassConflatable },
	})
	defer e.Close()

	p := attachSmallPeer(t, e, "drops-peer", 512)
	subscribeFrom(t, p, "ticker", 0, 0)

	const msgs = 300
	publishN(e, "ticker", msgs, 512) // ~160KB staged at a 16KB budget
	waitFor(t, 5*time.Second, func() bool { return e.Stats().PressureDrops > 0 })
	// Quiesce the pipeline before sampling the bound: frames are charged at
	// staging, so publications still queued on the worker or ioThread count
	// toward SlowConsumerBytes even though the backlog policy has not seen
	// them yet — sampling mid-flight reads an arbitrarily inflated figure.
	for _, w := range e.workers {
		w.do(func() {})
	}
	for _, it := range e.ioThreads {
		it.do(func() {})
	}

	st := e.Stats()
	if st.PressureDisconnects != 0 {
		t.Fatalf("conflatable overload must not disconnect, got %d", st.PressureDisconnects)
	}
	if st.SlowConsumers != 1 {
		t.Fatalf("slow_consumers = %d, want 1", st.SlowConsumers)
	}
	// The budget plus one in-flight write attempt bounds the staged bytes.
	if limit := int64(budget + 4096); st.SlowConsumerBytes > limit {
		t.Fatalf("slow consumer pins %d staged bytes, budget is %d", st.SlowConsumerBytes, budget)
	}
	if e.NumClients() != 1 {
		t.Fatalf("clients = %d, want 1 (still connected)", e.NumClients())
	}

	// Resume reading: the retried flushes drain carry + backlog; the newest
	// publication must arrive (drop-oldest preserves fresh data).
	sawLast := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawLast && time.Now().Before(deadline) {
		m := p.recv(time.Until(deadline))
		if m == nil {
			break
		}
		if m.Kind == protocol.KindNotify && m.Seq == msgs {
			sawLast = true
		}
	}
	if !sawLast {
		t.Fatal("resumed reader never received the newest message")
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().EgressQueueBytes == 0 })
	if st := e.Stats(); st.SlowConsumers != 0 {
		t.Fatalf("slow_consumers = %d after recovery, want 0", st.SlowConsumers)
	}
}

// TestOverloadDisconnectAndResume drives a reliable-topic subscriber past
// its budget: the policy must never drop reliable frames, so the client is
// fenced off at the critical tier — and then recovers every message with no
// loss through the ordinary resume/replay path. Runs under -race in CI.
func TestOverloadDisconnectAndResume(t *testing.T) {
	const budget = 8 << 10
	e := New(Config{
		ServerID: "fence", IoThreads: 1, Workers: 1, TopicGroups: 4,
		EgressBudgetBytes: budget, // ClassReliable by default: no drops
	})
	defer e.Close()

	p := attachSmallPeer(t, e, "fence-peer", 512)
	subscribeFrom(t, p, "audit", 0, 0)

	// Read the first few messages, then stall.
	const msgs = 100
	go publishN(e, "audit", msgs, 512)
	var epoch uint32
	var seq uint64
	for seq < 3 {
		m := p.mustRecv(2 * time.Second)
		if m.Kind == protocol.KindNotify {
			epoch, seq = m.Epoch, m.Seq
		}
	}
	waitFor(t, 5*time.Second, func() bool { return e.Stats().PressureDisconnects == 1 })
	if drops := e.Stats().PressureDrops; drops != 0 {
		t.Fatalf("reliable frames were dropped: pressure_drops = %d", drops)
	}
	waitFor(t, 2*time.Second, func() bool { return e.NumClients() == 0 })

	// Fenced: reconnect and resume from the last received position. The
	// cache replay must hand back seq+1..msgs densely — zero loss.
	p2 := attachSmallPeer(t, e, "fence-peer-2", 1<<16)
	subscribeFrom(t, p2, "audit", epoch, seq)
	next := seq + 1
	deadline := time.Now().Add(5 * time.Second)
	for next <= msgs {
		m := p2.recv(time.Until(deadline))
		if m == nil {
			t.Fatalf("resume stalled at seq %d of %d", next, msgs)
		}
		if m.Kind != protocol.KindNotify {
			continue
		}
		if m.Epoch == epoch && m.Seq < next {
			continue // duplicate around the replay boundary (at-least-once)
		}
		if m.Epoch != epoch || m.Seq != next {
			t.Fatalf("gap after fenced disconnect: got (%d,%d), want (%d,%d)",
				m.Epoch, m.Seq, epoch, next)
		}
		next++
	}
}

// TestEgressLedgerBalances verifies the budget accounting closes: after a
// burst is fully delivered and read, every charged byte has been released.
func TestEgressLedgerBalances(t *testing.T) {
	e := New(Config{ServerID: "ledger", IoThreads: 2, Workers: 2, TopicGroups: 4})
	defer e.Close()
	p := attachPeer(t, e)
	subscribeFrom(t, p, "t", 0, 0)
	go publishN(e, "t", 50, 140)
	var seq uint64
	for seq < 50 {
		m := p.mustRecv(2 * time.Second)
		if m.Kind == protocol.KindNotify {
			seq = m.Seq
		}
	}
	waitFor(t, 2*time.Second, func() bool { return e.Stats().EgressQueueBytes == 0 })
	st := e.Stats()
	if st.SlowConsumers != 0 || st.PressureDrops != 0 || st.PressureDisconnects != 0 {
		t.Fatalf("healthy run tripped the overload path: %+v", st)
	}
}

// parkIoThread blocks it inside a do callback until the returned release
// is called, so everything queued meanwhile is handled in one loop pass.
func parkIoThread(it *ioThread) (release func()) {
	parked, done := make(chan struct{}), make(chan struct{})
	go it.do(func() {
		close(parked)
		<-done
	})
	<-parked
	return func() { close(done) }
}

// queueAtIoThread publishes n reliable messages of size bytes to topic and
// returns once the worker has pushed every delivery to its IoThread.
func queueAtIoThread(t *testing.T, e *Engine, topic string, n, size int) {
	t.Helper()
	want := e.Stats().Delivered + int64(n)
	publishN(e, topic, n, size)
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Delivered >= want })
	e.workers[0].do(func() {})
}

// holdVariants runs body without a hold and with one: the chain tests
// below must hold whether the chain is written when its pass ends or
// outlives it. The subtests differ only in the batching Config fields.
func holdVariants(t *testing.T, maxBytes int, delay time.Duration, body func(t *testing.T, cfg Config)) {
	t.Run("hold_0", func(t *testing.T) { body(t, Config{}) })
	t.Run("hold_"+delay.String(), func(t *testing.T) {
		body(t, Config{BatchMaxBytes: maxBytes, BatchMaxDelay: delay})
	})
}

// TestPassChainOrderAcrossStall stages a chain far larger than the peer's
// socket while the peer is still unblocked, so the end-of-pass (or
// size-triggered) write fills the socket part-way: the chain must reach the
// wire, or divert into the backlog, ahead of every frame published after
// it. When the peer resumes it receives every reliable frame exactly once,
// in order, and the egress ledger returns to 0.
func TestPassChainOrderAcrossStall(t *testing.T) {
	holdVariants(t, 16<<10, 5*time.Millisecond, testPassChainOrderAcrossStall)
}

func testPassChainOrderAcrossStall(t *testing.T, cfg Config) {
	cfg.ServerID, cfg.IoThreads, cfg.Workers, cfg.TopicGroups = "chain", 1, 1, 4
	e := New(cfg)
	defer e.Close()
	p := attachSmallPeer(t, e, "chain-peer", 512)
	subscribeFrom(t, p, "audit", 0, 0)

	const staged, later = 100, 100 // ~53 KB each way at 512 B payloads
	release := parkIoThread(e.ioThreads[0])
	queueAtIoThread(t, e, "audit", staged, 512)
	release()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().SlowConsumers == 1 })
	queueAtIoThread(t, e, "audit", later, 512)

	for seq := uint64(1); seq <= staged+later; seq++ {
		m := p.mustRecv(5 * time.Second)
		if m.Kind != protocol.KindNotify || m.Seq != seq {
			t.Fatalf("got %v seq %d, want NOTIFY seq %d", m.Kind, m.Seq, seq)
		}
	}
	if m := p.recv(20 * time.Millisecond); m != nil {
		t.Fatalf("duplicate after the last frame: %v seq %d", m.Kind, m.Seq)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := e.Stats()
		return st.EgressQueueBytes == 0 && st.SlowConsumers == 0
	})
	if st := e.Stats(); st.PressureDrops != 0 || st.PressureDisconnects != 0 {
		t.Fatalf("reliable chain hit the overload policy: %+v", st)
	}
}

// TestTeardownReleasesStagedChain closes a client in the same loop pass
// that staged frames for it: teardown releases the chain's egress charges,
// and nothing is written to the connection after Close. The hold is
// finite because the SUBACK is held as well.
func TestTeardownReleasesStagedChain(t *testing.T) {
	holdVariants(t, 64<<10, 20*time.Millisecond, testTeardownReleasesStagedChain)
}

func testTeardownReleasesStagedChain(t *testing.T, cfg Config) {
	cfg.ServerID, cfg.IoThreads, cfg.Workers, cfg.TopicGroups = "chain-close", 1, 1, 4
	e := New(cfg)
	defer e.Close()
	a, b := testPipe(t, "chain-close-peer", "server", 1<<16)
	defer a.Close()
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatal(err)
	}
	p := &testPeer{t: t, conn: a, buf: make([]byte, 1<<16)}
	subscribeFrom(t, p, "audit", 0, 0)

	release := parkIoThread(e.ioThreads[0])
	queueAtIoThread(t, e, "audit", 32, 140)
	if got := c.egress.bytes.Load(); got == 0 {
		t.Fatal("queued frames were not charged")
	}
	flushes := e.Stats().IOFlushes
	c.CloseAsync()
	release()
	waitFor(t, 5*time.Second, func() bool { return e.NumClients() == 0 })
	e.ioThreads[0].do(func() {})

	if got := c.egress.bytes.Load(); got != 0 {
		t.Fatalf("closed client still holds %d charged bytes", got)
	}
	if got := c.egress.events.Load(); got != 0 {
		t.Fatalf("closed client still holds %d charged events", got)
	}
	if got := e.Stats().IOFlushes - flushes; got != 0 {
		t.Fatalf("%d writes after Close", got)
	}
	if m := p.recv(50 * time.Millisecond); m != nil {
		t.Fatalf("peer received %v seq %d after Close", m.Kind, m.Seq)
	}
}
