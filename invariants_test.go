// The engine's counter invariants as plain tests: lock acquisitions,
// allocations, queue events, goroutines and bytes per operation are
// deterministic, so they need no special CI lane or iteration count —
// `go test ./...` runs them on every commit. Nothing here gates a time
// (timings come from benchmark/, over real sockets on the production read
// path); the one timing ratio, slow-consumer isolation, is held to a loose
// 0.5 and logged.
package migratorydata_test

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/core"
	"migratorydata/internal/loadgen"
	"migratorydata/internal/protocol"
	"migratorydata/internal/transport"
)

// attachDrainedSubscribers attaches n in-process subscribers of topic whose
// client side only drains (the server side is what the tests observe), then
// waits until a probe publication reaches all of them — every subscription
// registered with its worker and indexed.
func attachDrainedSubscribers(t *testing.T, e *core.Engine, n int, topic string, probe func()) {
	t.Helper()
	attach := loadgen.SingleEngineAttach(e, 1<<16)
	for i := 0; i < n; i++ {
		conn, err := attach(i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: topic}}})); err != nil {
			t.Fatal(err)
		}
		go func() {
			buf := make([]byte, 1<<15)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}()
	}
	if n == 0 {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := e.Stats().Delivered
		probe()
		time.Sleep(10 * time.Millisecond)
		reached := e.Stats().Delivered - before
		if int(reached) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions not ready: probe reached %d of %d subscribers", reached, n)
		}
	}
}

// reachDelivered waits until the engine's delivered counter reaches target
// and reports whether it did.
func reachDelivered(e *core.Engine, target int64) bool {
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().Delivered < target {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// reachEgressBelow waits until the bytes staged toward clients but not yet
// written fall to limit or below, and reports whether they did.
func reachEgressBelow(e *core.Engine, limit int64) bool {
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().EgressQueueBytes > limit {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// waitDelivered is reachDelivered for the test goroutine: a stall is fatal.
func waitDelivered(t *testing.T, e *core.Engine, target int64) {
	t.Helper()
	if !reachDelivered(e, target) {
		t.Fatalf("fan-out stalled: delivered=%d target=%d", e.Stats().Delivered, target)
	}
}

// deliverMany calls Deliver n times with a 140-byte entry and waits until
// all n × reached deliveries happened, letting the fan-out drain every 256
// publications so queues stay bounded.
func deliverMany(t *testing.T, e *core.Engine, topic string, n, reached int) {
	t.Helper()
	entry := cache.Entry{Epoch: 1, Seq: 1, Payload: make([]byte, 140)}
	from := e.Stats().Delivered
	for i := 1; i <= n; i++ {
		e.Deliver(topic, entry)
		if i%256 == 0 || i == n {
			waitDelivered(t, e, from+int64(reached)*int64(i))
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// ingestPayload is shared by every message TestIngestInvariants publishes
// (the cache retains payload references; content is irrelevant).
var ingestPayload = make([]byte, 140)

// TestIngestInvariants holds the ingest path to its design point — many
// concurrent publishers hammering one topic (one topic group) — with the
// segment log off and on:
//
//   - exactly one group-lock acquisition per publish (cache.MemStats counts
//     the append-path write-lock acquisitions; before the ingest overhaul a
//     publish paid three — sequencer mutex, Position, Append);
//   - allocations per publish: ~0 with no subscriber, ~1 with one (the
//     NOTIFY frame encode, which happens OUTSIDE the group lock), each with
//     0.25 of slack for the rest of the process;
//   - durable: every publish staged toward a healthy segment log —
//     write-behind keeps persistence off the publish critical path, so the
//     two bounds above do not move.
func TestIngestInvariants(t *testing.T) {
	const (
		topic     = "ingest-hot"
		publishes = 20_000
	)
	run := func(t *testing.T, subscribers int, durable bool, maxAllocs float64) {
		cfg := core.Config{ServerID: "ingest", IoThreads: 2, Workers: 2, TopicGroups: 100}
		if durable {
			cfg.DataDir = t.TempDir() // default fsync policy, 100ms interval
		}
		e, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		publishOne := func() {
			m := protocol.AcquireMessage()
			m.Kind = protocol.KindPublish
			m.Topic = topic
			m.ID = "ingest"
			m.Payload = ingestPayload
			m.Timestamp = 1
			e.Publish(m) // takes ownership; allocation-free with pooled messages
		}
		attachDrainedSubscribers(t, e, subscribers, topic, publishOne)
		// Warm every pool (messages, payload buffers, staging, queue slabs)
		// outside the measured region, then let the pipeline drain.
		from := e.Stats().Delivered
		for i := 0; i < 256; i++ {
			publishOne()
		}
		waitDelivered(t, e, from+256*int64(subscribers))

		deliveredStart := e.Stats().Delivered
		lockStart := e.Cache().MemStats().GroupLockAcquisitions
		var next atomic.Int64
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var wg sync.WaitGroup
		for p := 0; p < runtime.GOMAXPROCS(0); p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := next.Add(1)
					if n > publishes {
						return
					}
					publishOne()
					// Bound queue growth: periodically let the fan-out drain,
					// to the wire too — Delivered counts at worker staging, so
					// publishers would otherwise outrun the subscriber until
					// its egress budget (correctly) fences it as a slow
					// consumer.
					if subscribers > 0 && n%2048 == 0 &&
						(!reachDelivered(e, deliveredStart+(n-2048)*int64(subscribers)) ||
							!reachEgressBelow(e, 16<<10)) {
						return // the final waitDelivered reports the stall
					}
				}
			}()
		}
		wg.Wait()
		waitDelivered(t, e, deliveredStart+publishes*int64(subscribers))
		runtime.ReadMemStats(&m1)

		if got := e.Cache().MemStats().GroupLockAcquisitions - lockStart; got != publishes {
			t.Errorf("%d publishes took %d group-lock acquisitions, want exactly one each", publishes, got)
		}
		// MemStats covers the whole process (publishers, workers, ioThreads,
		// the drain); under the race detector sync.Pool drops a quarter of
		// its Puts by design, so the pooled path cannot be held to a count.
		allocs := float64(m1.Mallocs-m0.Mallocs) / publishes
		t.Logf("%.4f allocs/publish (bound %.2f), cache %d bytes", allocs, maxAllocs, e.Cache().MemStats().Bytes())
		if !raceEnabled() && allocs > maxAllocs {
			t.Errorf("steady-state publish path allocates %.3f objects/publish, want <= %.2f", allocs, maxAllocs)
		}
		if durable {
			// Warm-up and readiness probes append too, hence >=.
			st := e.Stats()
			if st.SeglogAppends < publishes {
				t.Errorf("seglog staged %d of %d published entries", st.SeglogAppends, publishes)
			}
			if st.SeglogFailed != 0 {
				t.Error("segment log hit a terminal sink error")
			}
		}
	}
	t.Run("no-subscribers", func(t *testing.T) { run(t, 0, false, 0.25) })
	t.Run("one-subscriber", func(t *testing.T) { run(t, 1, false, 1.25) })
	t.Run("durable-no-subscribers", func(t *testing.T) { run(t, 0, true, 0.25) })
	t.Run("durable-one-subscriber", func(t *testing.T) { run(t, 1, true, 1.25) })
}

// TestDenseFanoutEventsPerPublish holds grouped egress to its bound on the
// paper's dense shape: one hot topic whose 1000 subscribers are spread over
// 4 IoThreads. The worker buckets the subscribers by owning IoThread and
// pushes one evWriteMulti per IoThread, so fan-out events per publication
// must stay <= the IoThread count (measured: exactly 4.000) — before the
// egress overhaul it was one MPSC push per SUBSCRIBER. A single Worker makes
// the bound exact (with W workers it is W × IoThreads, still independent of
// the subscriber count).
func TestDenseFanoutEventsPerPublish(t *testing.T) {
	const (
		ioThreads   = 4
		subscribers = 1000
		publishes   = 500
	)
	e := core.New(core.Config{ServerID: "dense", IoThreads: ioThreads, Workers: 1, TopicGroups: 100})
	t.Cleanup(func() { e.Close() })
	attachDrainedSubscribers(t, e, subscribers, "hot", func() {
		e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1})
	})

	start := e.Stats()
	deliverMany(t, e, "hot", publishes, subscribers)
	st := e.Stats()
	fanPerOp := float64(st.FanoutEvents-start.FanoutEvents) / publishes
	t.Logf("%.3f fanout-events, %.3f deliver-events per publish to %d subscribers",
		fanPerOp, float64(st.DeliverRouted-start.DeliverRouted)/publishes, subscribers)
	if fanPerOp > ioThreads {
		t.Errorf("grouped fan-out pushed %.2f events per publish, want <= %d (the IoThread count)",
			fanPerOp, ioThreads)
	}
}

// TestSparseFanoutWorkerPushes holds subscription-aware routing to its
// bounds on an 8-worker engine: a publication to a topic nobody subscribes
// to pushes ZERO worker events, a topic whose subscriber sits on one worker
// pushes exactly one, and 64 subscribers spread over all workers push at
// most one per worker — the cost the pre-index engine paid for EVERY
// publication.
func TestSparseFanoutWorkerPushes(t *testing.T) {
	const (
		workers   = 8
		publishes = 5000
	)
	for _, tc := range []struct {
		name        string
		subscribers int
		publishTo   string
		minPerOp    float64
		maxPerOp    float64
	}{
		// One unrelated subscriber so the engine is not empty.
		{"unsubscribed-topic", 1, "cold", 0, 0},
		{"one-worker", 1, "hot", 1, 1},
		{"broadcast-dense", 64, "hot", 1, workers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := core.New(core.Config{ServerID: "sparse", IoThreads: 2, Workers: workers, TopicGroups: 100})
			t.Cleanup(func() { e.Close() })
			attachDrainedSubscribers(t, e, tc.subscribers, "hot", func() {
				e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1})
			})
			reached := 0
			if tc.publishTo == "hot" {
				reached = tc.subscribers
			}
			start := e.Stats()
			deliverMany(t, e, tc.publishTo, publishes, reached)
			st := e.Stats()
			perOp := float64(st.DeliverRouted-start.DeliverRouted) / publishes
			t.Logf("%.3f worker pushes, %.3f skipped per publish",
				perOp, float64(st.DeliverSkipped-start.DeliverSkipped)/publishes)
			if perOp < tc.minPerOp || perOp > tc.maxPerOp {
				t.Errorf("%.3f worker pushes per publish, want within [%g, %g]", perOp, tc.minPerOp, tc.maxPerOp)
			}
		})
	}
}

// gatedFramed parks the IoThread that owns its client: once armed, the
// next WriteBatch signals parked and blocks until release, so work queues
// behind a loop pass that has not ended yet.
type gatedFramed struct {
	core.Framed
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (g *gatedFramed) WriteBatch(batch []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		g.parked <- struct{}{}
		<-g.release
	}
	return g.Framed.WriteBatch(batch)
}

// TestPassCoalescesWrites pins the batching-off egress to one write per
// client per IoThread loop pass: every frame a pass staged for a client
// leaves in chunks of whole frames of at most 4096 bytes — not one write
// per frame — in (epoch, seq) order; a pass holding one frame writes it
// alone, and that pass allocates nothing. The IoThread is parked inside a
// write (gatedFramed) while k publications queue behind it, so the next
// pass drains all of them at once.
func TestPassCoalescesWrites(t *testing.T) {
	const (
		topic    = "coalesce"
		k        = 64
		chunk    = 4096 // the IoThread's coalesced-write cap
		frameLen = 256  // divides chunk, so whole frames fill every chunk
		lone     = 16
	)
	e := core.New(core.Config{ServerID: "coalesce", IoThreads: 1, Workers: 1, TopicGroups: 4})
	defer e.Close()
	conn, server, err := transport.NewPipeSize(
		transport.Addr{Net: "inproc", Address: "coalesce-client"},
		transport.Addr{Net: "inproc", Address: "coalesce-server"},
		1<<16,
	)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gate := &gatedFramed{Framed: core.NewRawFramed(server),
		parked: make(chan struct{}), release: make(chan struct{})}
	c, err := e.Attach(gate)
	if err != nil {
		t.Fatal(err)
	}

	var dec protocol.StreamDecoder
	buf := make([]byte, 1<<16)
	recv := func() *protocol.Message {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			m, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				return m
			}
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			dec.Feed(buf[:n])
		}
	}
	expectSeq := func(seq uint64) {
		t.Helper()
		m := recv()
		if m.Kind != protocol.KindNotify || m.Epoch != 1 || m.Seq != seq {
			t.Fatalf("got %v (%d,%d), want NOTIFY (1,%d)", m.Kind, m.Epoch, m.Seq, seq)
		}
		if n := len(protocol.Encode(m)); n != frameLen {
			t.Fatalf("frame of %d bytes, want %d", n, frameLen)
		}
	}
	// flushesReach waits for the write counter to reach want (a write is
	// counted just after the peer can read it) and returns its value.
	flushesReach := func(want int64) int64 {
		deadline := time.Now().Add(5 * time.Second)
		for e.Stats().IOFlushes < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return e.Stats().IOFlushes
	}

	if _, err := conn.Write(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: topic}}})); err != nil {
		t.Fatal(err)
	}
	if m := recv(); m.Kind != protocol.KindSubAck {
		t.Fatalf("got %v, want SUBACK", m.Kind)
	}
	// Size the payload so every NOTIFY frame (seq < 128) is frameLen bytes.
	payload := []byte{}
	for len(protocol.Encode(&protocol.Message{Kind: protocol.KindNotify, Topic: topic,
		Epoch: 1, Seq: 1, Payload: payload})) < frameLen {
		payload = append(payload, 'x')
	}
	deliver := func(seq uint64) {
		e.Deliver(topic, cache.Entry{Epoch: 1, Seq: seq, Payload: payload})
	}

	// Park the IoThread in the write of seq 1; queue k publications behind it.
	gate.armed.Store(true)
	deliver(1)
	<-gate.parked
	st := e.Stats()
	for seq := uint64(2); seq <= k+1; seq++ {
		deliver(seq)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().FanoutEvents < st.FanoutEvents+k {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d publications reached the IoThread", e.Stats().FanoutEvents-st.FanoutEvents, k)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	for seq := uint64(1); seq <= k+1; seq++ {
		expectSeq(seq)
	}
	// One write for the parked pass's lone frame, then whole 4 KiB chunks.
	want := st.IOFlushes + 1 + (k*frameLen+chunk-1)/chunk
	if got := flushesReach(want); got != want {
		t.Fatalf("%d publications drained in one pass took %d writes, want %d",
			k, got-st.IOFlushes-1, want-st.IOFlushes-1)
	}

	// One frame per pass: one write per delivery.
	before := e.Stats().IOFlushes
	for seq := uint64(k + 2); seq < k+2+lone; seq++ {
		deliver(seq)
		expectSeq(seq)
	}
	if got := flushesReach(before + lone); got != before+lone {
		t.Fatalf("%d lone-frame passes took %d writes", lone, got-before)
	}

	// The lone-frame pass — stage, end-of-pass flush, write — allocates
	// nothing (the frame is written as it is, not copied).
	frame := protocol.Encode(&protocol.Message{Kind: protocol.KindNotify, Topic: topic,
		Epoch: 1, Seq: 1, Payload: payload})
	conn.SetReadDeadline(time.Time{})
	sendOne := func() {
		c.SendFrame(frame)
		if _, err := io.ReadFull(conn, buf[:len(frame)]); err != nil {
			t.Fatal(err)
		}
	}
	sendOne()
	if allocs := testing.AllocsPerRun(200, sendOne); allocs != 0 {
		t.Errorf("a lone-frame pass allocates %.0f objects, want 0", allocs)
	}
}

// TestSlowConsumerIsolation holds the overload path to its design point
// (docs/ARCHITECTURE.md, "The overload path"): 1000 subscribers on
// conflatable topics, of which K = 8 stall mid-stream — they keep their
// connections open but stop reading.
//
//   - isolation: the fast subscribers keep at least half the msgs/s of a
//     no-stall baseline run (before the overload path, one stalled
//     transport write wedged its IoThread and starved every client on it).
//     The ratio is logged (~0.97 measured), not held tighter: it is a
//     timing ratio of two 2 s windows;
//   - bounded memory: the stalled clients' staged egress bytes never exceed
//     the per-client budget × K plus one in-flight write each, and the
//     post-run heap returns to baseline;
//   - no spurious fencing: a conflatable workload is absorbed by drops,
//     never by disconnects, and fast subscribers see zero gaps.
func TestSlowConsumerIsolation(t *testing.T) {
	if raceEnabled() {
		// Race instrumentation slows 1000 reader goroutines enough that on a
		// small box the whole "fast" fleet runs past its 32 KB budget and is
		// (correctly) conflated; the overload path runs under the detector
		// at a scale it can carry in internal/core/pressure_test.go and
		// internal/loadgen/slowconsumer_test.go.
		t.Skip("full-scale isolation run is not meaningful under the race detector")
	}
	const (
		subscribers = 1000
		stallK      = 8
		budgetBytes = 32 << 10
	)
	run := func(stall int) loadgen.SlowConsumerResult {
		e := core.New(core.Config{
			ServerID: "slowc", IoThreads: 4, Workers: 2, TopicGroups: 100,
			EgressBudgetBytes: budgetBytes,
			Classify:          func(string) core.DeliveryClass { return core.ClassConflatable },
		})
		defer e.Close()
		res, err := loadgen.RunSlowConsumerScenario(e, loadgen.SlowConsumerScenario{
			Scenario: loadgen.Scenario{
				Subscribers:     subscribers,
				Topics:          10,
				PayloadSize:     256,
				PublishInterval: 10 * time.Millisecond,
				Warmup:          time.Second,
				Measure:         2 * time.Second,
				TopicPrefix:     "slow",
				Seed:            21,
			},
			StallReaders: stall,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Gaps != 0 {
			t.Fatalf("fast subscribers saw %d gaps", res.Gaps)
		}
		return res
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := run(0)
	stalled := run(stallK)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heapGrowth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)

	t.Logf("fast subscribers: %.0f msgs/s with %d stalled peers, %.0f baseline (ratio %.3f); "+
		"max staged %d bytes, %d drops, heap growth %d bytes",
		stalled.FastMsgsPerSec, stallK, base.FastMsgsPerSec, stalled.FastMsgsPerSec/base.FastMsgsPerSec,
		stalled.MaxSlowConsumerBytes, stalled.PressureDrops, heapGrowth)
	if stalled.FastMsgsPerSec*2 < base.FastMsgsPerSec {
		t.Errorf("fast subscribers dropped to %.0f msgs/s with %d stalled peers (baseline %.0f): isolation broken",
			stalled.FastMsgsPerSec, stallK, base.FastMsgsPerSec)
	}
	if bound := int64(stallK * (budgetBytes + (4 << 10))); stalled.MaxSlowConsumerBytes > bound {
		t.Errorf("stalled clients pinned %d staged bytes, budget bound is %d",
			stalled.MaxSlowConsumerBytes, bound)
	}
	if heapGrowth > 64<<20 {
		t.Errorf("heap grew %d bytes across the stalled run: slow consumers pin unbounded memory", heapGrowth)
	}
	if stalled.PressureDisconnects != 0 {
		t.Errorf("conflatable overload fenced %d clients, want drops only", stalled.PressureDisconnects)
	}
	if stalled.MaxSlowConsumers < stallK {
		t.Errorf("slow_consumers peaked at %d, want %d", stalled.MaxSlowConsumers, stallK)
	}
}

// idleBytesBudget is what one idle real-socket connection may cost in
// post-GC heap — both halves of the pair, since engine and dialer share the
// test process (measured ~1.4 KB).
const idleBytesBudget = 16 << 10

// TestIdleConnectionFootprint is the connection-scale invariant over REAL
// sockets: dial C10M_CONNS (default 2000; CI's c10m-scale lane runs 100000)
// loopback TCP connections, subscribe each to its own topic, let everything
// idle, and hold what an idle connection costs: < 0.01 goroutines —
// connections must NOT cost a reader goroutine each, the poll loops are
// per-IoThread — and <= idleBytesBudget of heap. A liveness probe publishes to one fleet topic and waits for
// delivery, so the engine still works at the target count, not merely the
// sockets opened.
func TestIdleConnectionFootprint(t *testing.T) {
	conns := 2000
	if v := os.Getenv("C10M_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("C10M_CONNS=%q: %v", v, err)
		}
		conns = n
	}
	if _, err := loadgen.RaiseFDLimit(uint64(2*conns) + 4096); err != nil {
		t.Logf("RaiseFDLimit: %v (continuing with the current limit)", err)
	}
	e := core.New(core.Config{ServerID: "c10m-idle", IoThreads: 4, Workers: 2, TopicGroups: 100})
	defer e.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go e.Serve(l, "raw")

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()

	fleet, err := loadgen.DialIdleFleet(loadgen.IdleFleetOptions{
		Addr: l.Addr().String(), Conns: conns, TopicPrefix: "idle",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := e.NumClients(); got != conns {
		t.Fatalf("engine sustains %d of %d connections", got, conns)
	}

	// Idle steady state: everything subscribed, nothing flowing.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	g1 := runtime.NumGoroutine()
	bytesPerConn := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(conns)
	goroutinesPerConn := float64(g1-g0) / float64(conns)

	// Liveness probe: the fleet is sustained only if delivery still works.
	probeTarget := e.Stats().Delivered + 1
	e.Deliver(fmt.Sprintf("idle-%d", conns/2), cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("ping")})
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Delivered < probeTarget {
		if time.Now().After(deadline) {
			t.Fatalf("liveness probe undelivered at %d connections", conns)
		}
		time.Sleep(time.Millisecond)
	}

	t.Logf("%d conns: %.0f bytes/conn, %.4f goroutines/conn", conns, bytesPerConn, goroutinesPerConn)
	if goroutinesPerConn >= 0.01 {
		t.Errorf("%.4f goroutines per connection (%d for %d conns), want < 0.01 — reader-per-conn suspected",
			goroutinesPerConn, g1-g0, conns)
	}
	if bytesPerConn > idleBytesBudget {
		t.Errorf("%.0f heap bytes per idle connection, budget is %d", bytesPerConn, idleBytesBudget)
	}
}

// TestScenarioLibraryGreen runs the whole named scenario library at full
// scale and holds every scenario to its own degradation thresholds plus the
// two guarantees no traffic shape may bend: zero reliable gaps and zero
// pressure disconnects. (Reduced-scale runs of the storm shapes, with
// shape-specific assertions, live in internal/loadgen/scenarios_test.go.)
func TestScenarioLibraryGreen(t *testing.T) {
	for _, sc := range loadgen.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := sc.Run(loadgen.ScenarioOptions{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f msgs/s, p99 %.2f ms, drop rate %.3f, %d reconnects",
				rep.MsgsPerSec, rep.Latency.P99, rep.DropRate, rep.Reconnects)
			if !rep.Green() {
				t.Errorf("scenario violated its thresholds:\n  %s", strings.Join(rep.Violations, "\n  "))
			}
			if rep.Gaps != 0 {
				t.Errorf("%d reliable gaps, want 0", rep.Gaps)
			}
			if rep.WindowDisconnects != 0 {
				t.Errorf("%d pressure disconnects in the window, want 0", rep.WindowDisconnects)
			}
		})
	}
}

// TestRawReadPathAllocFree proves the pooled-chunk contract end to end on
// the raw transport's read path — the only one, and the one production
// runs: once the pools are warm, a ReadReady + recycle cycle (the poll
// loop's per-read work plus the IoThread's release) performs no heap
// allocation. The chunk is read straight into a pooled buffer, and
// netpoll.ReadConn carries its arguments through a pooled op instead of a
// closure (which cost 3 objects per read).
func TestRawReadPathAllocFree(t *testing.T) {
	client, server, err := transport.NewPipeSize(
		transport.Addr{Net: "inproc", Address: "alloc-client"},
		transport.Addr{Net: "inproc", Address: "alloc-server"},
		1<<16,
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()
	framed := core.NewRawFramed(server)
	if _, err := framed.PollConn(); err != nil {
		t.Fatal(err)
	}
	frame := protocol.Encode(&protocol.Message{
		Kind: protocol.KindPublish, Topic: "t", ID: "id",
		Payload: make([]byte, 140), Timestamp: 1,
	})

	var got int
	emit := func(chunk []byte) {
		got = len(chunk)
		core.RecycleReadChunk(chunk)
	}
	readOne := func() {
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
		got = 0
		if err := framed.ReadReady(emit); err != nil {
			t.Fatal(err)
		}
		if got != len(frame) {
			t.Fatalf("chunk length %d, want %d", got, len(frame))
		}
	}
	readOne() // warm the pools' per-P slots
	allocs := testing.AllocsPerRun(500, readOne)
	if allocs > 0.1 {
		t.Errorf("raw read path allocates %.2f objects per read, want ~0", allocs)
	}
}
