// Informational benchmarks regenerating the shapes of the paper's evaluation
// (§6) that benchmark/ has no workload for yet: one benchmark per table and
// figure, plus ablations of the design decisions the paper calls out. The
// paper's testbed drove up to one million real WebSocket connections into
// 2×8-core Xeon servers over 10 GbE; these run the engine over in-process
// socketpairs (the production read path, but no TCP, generators in the same
// process, one run each) with client counts scaled down by ScaleDivisor. Shapes — linear CPU growth,
// flat-then-rising latency, tail inflation at saturation, bounded
// degradation after a fail-stop, zero message loss — are preserved; the
// numbers are printed, never gated, and no performance claim rides on them:
// claims ride on benchmark/ (real sockets, several runs, a noise bound). The
// engine's counter invariants are plain tests in invariants_test.go.
package migratorydata_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/cluster"
	"migratorydata/internal/core"
	"migratorydata/internal/loadgen"
	"migratorydata/internal/protocol"
)

// ScaleDivisor maps the paper's client counts onto this environment:
// 100,000 paper subscribers -> 1,000 here.
const ScaleDivisor = 100

// benchEngine builds the engine in the paper's evaluation configuration
// (batching and conflation off).
func benchEngine(b *testing.B) *core.Engine {
	b.Helper()
	e := core.New(core.Config{ServerID: "bench", TopicGroups: 100})
	b.Cleanup(func() { e.Close() })
	return e
}

// requireDescriptors skips a row the descriptor budget cannot hold: an
// in-process connection costs two descriptors (both socketpair ends live in
// this process), plus slack for publishers, pollers and the runtime. The
// soft limit is raised as far as the hard limit allows first.
func requireDescriptors(b *testing.B, conns int) {
	b.Helper()
	need := uint64(2*conns) + 512
	got, err := loadgen.RaiseFDLimit(need)
	if err != nil || got < need {
		b.Skipf("%d in-process connections need %d descriptors (2 each + 512); RLIMIT_NOFILE allows %d (err %v)",
			conns, need, got, err)
	}
}

// reportScenario attaches a Result's key numbers to the benchmark output.
func reportScenario(b *testing.B, r loadgen.Result) {
	b.Helper()
	b.ReportMetric(r.Latency.Mean, "lat-mean-ms")
	b.ReportMetric(r.Latency.Median, "lat-median-ms")
	b.ReportMetric(r.Latency.P99, "lat-p99-ms")
	b.ReportMetric(r.CPU*100, "cpu-%")
	b.ReportMetric(r.Gbps*1000, "traffic-mbps")
	b.ReportMetric(r.MsgsPerSec, "msgs/s")
	if r.Gaps != 0 {
		b.Fatalf("ordering/completeness violated: %d gaps", r.Gaps)
	}
}

// BenchmarkTable1VerticalScalability regenerates Table 1 (and the data
// behind Figure 3): 10 steps of 100K paper-subscribers each (scaled), one
// topic per 10K paper-subscribers, one 140-byte message per topic per
// second. Expect CPU to grow roughly linearly with the subscriber count and
// the latency tail (P99) to grow faster than the median toward the top end.
func BenchmarkTable1VerticalScalability(b *testing.B) {
	for step := 1; step <= 10; step++ {
		paperSubs := step * 100_000
		b.Run(fmt.Sprintf("subs-%dK", paperSubs/1000), func(b *testing.B) {
			requireDescriptors(b, paperSubs/ScaleDivisor)
			for i := 0; i < b.N; i++ {
				e := core.New(core.Config{ServerID: "bench", TopicGroups: 100})
				res, err := loadgen.RunScenario(e, loadgen.Scenario{
					Subscribers:     paperSubs / ScaleDivisor,
					Topics:          step * 10, // the paper's 10..100 topics
					PayloadSize:     140,
					PublishInterval: time.Second,
					Warmup:          time.Second,
					Measure:         2 * time.Second,
					TopicPrefix:     "sport",
					Seed:            int64(step),
				})
				e.Close()
				if err != nil {
					b.Fatal(err)
				}
				reportScenario(b, res)
			}
		})
	}
}

// BenchmarkFigure3LatencyCPUCurve samples three points of the Figure 3
// curve (low / mid / saturated) — the full 10-point sweep is Table 1 above.
func BenchmarkFigure3LatencyCPUCurve(b *testing.B) {
	for _, step := range []int{2, 6, 10} {
		paperSubs := step * 100_000
		b.Run(fmt.Sprintf("subs-%dK", paperSubs/1000), func(b *testing.B) {
			requireDescriptors(b, paperSubs/ScaleDivisor)
			for i := 0; i < b.N; i++ {
				e := core.New(core.Config{ServerID: "bench", TopicGroups: 100})
				res, err := loadgen.RunScenario(e, loadgen.Scenario{
					Subscribers:     paperSubs / ScaleDivisor,
					Topics:          step * 10,
					PublishInterval: time.Second,
					Warmup:          time.Second,
					Measure:         2 * time.Second,
					Seed:            int64(step),
				})
				e.Close()
				if err != nil {
					b.Fatal(err)
				}
				reportScenario(b, res)
			}
		})
	}
}

// BenchmarkTable2FailoverLatency regenerates Table 2: 300K paper-clients
// (scaled) on a 3-server cluster receiving 300K paper-messages per second,
// fail-stop of one server, latency before and after. Expect the survivors
// to absorb ~50% more load each with a bounded latency increase and zero
// message loss.
func BenchmarkTable2FailoverLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := loadgen.RunFailover(loadgen.FailoverConfig{
			Members: 3,
			Scenario: loadgen.Scenario{
				Subscribers:     300_000 / ScaleDivisor,
				Topics:          30,
				PayloadSize:     140,
				PublishInterval: time.Second,
				Warmup:          2 * time.Second,
				Seed:            7,
			},
			BeforeMeasure:    3 * time.Second,
			AfterMeasure:     3 * time.Second,
			SettleAfterCrash: 2 * time.Second,
			Engine:           core.Config{TopicGroups: 100},
			SessionTTL:       500 * time.Millisecond,
			OpTimeout:        2 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Before.Mean, "before-mean-ms")
		b.ReportMetric(res.Before.P99, "before-p99-ms")
		b.ReportMetric(res.After.Mean, "after-mean-ms")
		b.ReportMetric(res.After.P99, "after-p99-ms")
		b.ReportMetric(res.CPUBefore*100, "cpu-before-%")
		b.ReportMetric(res.CPUAfter*100, "cpu-after-%")
		b.ReportMetric(float64(res.Reconnects), "reconnects")
		if res.Gaps != 0 {
			b.Fatalf("message loss or reordering across failover: %d gaps", res.Gaps)
		}
	}
}

// BenchmarkC10MScenario regenerates the C10M supplement: many more
// connections (10M paper-clients, scaled), each the sole subscriber of its
// own topic, receiving one 512-byte message per minute. Expect the engine
// to sustain the connection count with modest CPU, since per-client traffic
// is tiny.
func BenchmarkC10MScenario(b *testing.B) {
	const paperClients = 10_000_000
	const scale = 1000 // deeper scaling: the bottleneck here is connections
	clients := paperClients / scale
	requireDescriptors(b, clients)
	for i := 0; i < b.N; i++ {
		e := core.New(core.Config{ServerID: "c10m", TopicGroups: 100})
		res, err := loadgen.RunScenario(e, loadgen.Scenario{
			Subscribers:     clients,
			Topics:          clients, // every client its own topic
			PayloadSize:     512,
			PublishInterval: time.Minute,
			Warmup:          time.Second,
			Measure:         4 * time.Second,
			TopicPrefix:     "device",
			Seed:            42,
		})
		e.Close()
		if err != nil {
			b.Fatal(err)
		}
		reportScenario(b, res)
		b.ReportMetric(float64(clients), "connections")
	}
}

// BenchmarkAblationBatching measures §4's batching claim: under a
// high-frequency topic, batching collapses many notifications into one I/O
// operation per client. Compare achieved delivery rate and CPU.
func BenchmarkAblationBatching(b *testing.B) {
	run := func(b *testing.B, batchDelay time.Duration) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			e := core.New(core.Config{
				ServerID: "batch", TopicGroups: 100,
				BatchMaxBytes: 32 << 10, BatchMaxDelay: batchDelay,
			})
			res, err := loadgen.RunScenario(e, loadgen.Scenario{
				Subscribers:     500,
				Topics:          5,
				PublishInterval: 5 * time.Millisecond, // 200 msg/s per topic
				Warmup:          time.Second,
				Measure:         2 * time.Second,
				Seed:            3,
			})
			e.Close()
			if err != nil {
				b.Fatal(err)
			}
			reportScenario(b, res)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on-5ms", func(b *testing.B) { run(b, 5*time.Millisecond) })
}

// BenchmarkAblationConflation measures §4's conflation claim: aggregating
// a high-frequency topic caps the per-client notification rate.
func BenchmarkAblationConflation(b *testing.B) {
	run := func(b *testing.B, interval time.Duration) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			e := core.New(core.Config{
				ServerID: "conflate", TopicGroups: 100,
				ConflationInterval: interval,
			})
			res, err := loadgen.RunScenario(e, loadgen.Scenario{
				Subscribers:     500,
				Topics:          5,
				PublishInterval: 5 * time.Millisecond,
				Warmup:          time.Second,
				Measure:         2 * time.Second,
				Seed:            4,
			})
			e.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MsgsPerSec, "delivered-msgs/s")
			b.ReportMetric(res.CPU*100, "cpu-%")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on-50ms", func(b *testing.B) { run(b, 50*time.Millisecond) })
}

// BenchmarkAblationReplicationOverhead quantifies §5.2's replication cost:
// the publish-to-ack round trip on a single server (local sequencer, no
// replication) versus through a 3-member cluster (coordinator lookup +
// broadcast + second-copy ack). The paper's design goal is that this
// overhead stays small because acknowledgement needs only one extra copy.
func BenchmarkAblationReplicationOverhead(b *testing.B) {
	b.Run("single-node", func(b *testing.B) {
		e := benchEngine(b)
		p := newBenchPublisher(b, loadgen.SingleEngineAttach(e, 8192))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.publishAndWait(b, "ablate-topic")
		}
	})
	b.Run("cluster-3", func(b *testing.B) {
		net := cluster.NewNetwork()
		ids := []string{"rb-0", "rb-1", "rb-2"}
		var nodes []*cluster.Node
		for i, id := range ids {
			nodes = append(nodes, cluster.NewNode(cluster.Config{
				ID: id, Peers: ids,
				Engine:     core.Config{TopicGroups: 100},
				SessionTTL: 500 * time.Millisecond,
				OpTimeout:  2 * time.Second,
				TickEvery:  5 * time.Millisecond,
				Seed:       int64(i + 1),
			}, net))
		}
		b.Cleanup(func() {
			for _, n := range nodes {
				n.Stop()
			}
		})
		waitForLeader(b, nodes)
		p := newBenchPublisher(b, loadgen.SingleEngineAttach(nodes[0].Engine(), 8192))
		// First publication elects the coordinator; do it outside the
		// measured region.
		p.publishAndWait(b, "ablate-topic")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.publishAndWait(b, "ablate-topic")
		}
	})
}

// BenchmarkAblationReplicationDegree measures the §5.2 extension's cost:
// publish-to-ack round trip at replication degree 2 (the paper's production
// single-fault model) versus degree 3 (tolerates two faults). The paper's
// rationale for degree 2 is precisely that higher degrees cost more acks
// before the publisher can proceed.
func BenchmarkAblationReplicationDegree(b *testing.B) {
	run := func(b *testing.B, ackCopies int) {
		b.Helper()
		net := cluster.NewNetwork()
		ids := []string{"ad-0", "ad-1", "ad-2", "ad-3"}
		var nodes []*cluster.Node
		for i, id := range ids {
			nodes = append(nodes, cluster.NewNode(cluster.Config{
				ID: id, Peers: ids,
				Engine:     core.Config{TopicGroups: 100},
				SessionTTL: 500 * time.Millisecond,
				OpTimeout:  2 * time.Second,
				TickEvery:  5 * time.Millisecond,
				AckCopies:  ackCopies,
				Seed:       int64(i + 1),
			}, net))
		}
		b.Cleanup(func() {
			for _, n := range nodes {
				n.Stop()
			}
		})
		waitForLeader(b, nodes)
		p := newBenchPublisher(b, loadgen.SingleEngineAttach(nodes[0].Engine(), 8192))
		p.publishAndWait(b, "degree-topic") // election outside the timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.publishAndWait(b, "degree-topic")
		}
	}
	b.Run("degree-2", func(b *testing.B) { run(b, 2) })
	b.Run("degree-3", func(b *testing.B) { run(b, 3) })
}

// waitForLeader blocks until the cluster's coordination service is ready.
func waitForLeader(b *testing.B, nodes []*cluster.Node) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Coord().IsLeader() {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatal("no coordination leader")
}

// BenchmarkAblationPinnedVsLocked isolates the §4 thread-model claim: a
// client's decoder touched only by its pinned IoThread needs no lock. The
// pinned variant decodes on per-goroutine state; the pooled variant models
// a shared thread pool where any thread may touch any client, guarding each
// decode with a mutex.
func BenchmarkAblationPinnedVsLocked(b *testing.B) {
	frame := protocol.Encode(&protocol.Message{
		Kind: protocol.KindNotify, Topic: "t", Payload: make([]byte, 140), Seq: 1,
	})
	b.Run("pinned-lock-free", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var dec protocol.StreamDecoder // per-"client", owned by one thread
			for pb.Next() {
				dec.Feed(frame)
				if _, err := dec.Next(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("shared-pool-locked", func(b *testing.B) {
		var mu sync.Mutex
		var dec protocol.StreamDecoder // shared: any pool thread may touch it
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				dec.Feed(frame)
				_, err := dec.Next()
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// benchPublisher is a minimal reliable publisher for RTT measurement.
type benchPublisher struct {
	conn interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
		Close() error
	}
	dec protocol.StreamDecoder
	buf []byte
	seq int
}

func newBenchPublisher(b *testing.B, attach loadgen.AttachFunc) *benchPublisher {
	b.Helper()
	conn, err := attach(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	return &benchPublisher{conn: conn, buf: make([]byte, 4096)}
}

func (p *benchPublisher) publishAndWait(b *testing.B, topic string) {
	p.seq++
	id := fmt.Sprintf("bp:%d", p.seq)
	frame := protocol.Encode(&protocol.Message{
		Kind: protocol.KindPublish, Topic: topic, ID: id,
		Payload: make([]byte, 140), Flags: protocol.FlagAckRequired,
	})
	for {
		if _, err := p.conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		for acked := false; !acked; {
			m, err := p.dec.Next()
			if err != nil {
				b.Fatal(err)
			}
			if m != nil {
				if m.Kind == protocol.KindPubAck && m.ID == id {
					if m.Status == protocol.StatusOK {
						return
					}
					acked = true // failed: republish (at-least-once, §3)
				}
				continue
			}
			n, err := p.conn.Read(p.buf)
			if err != nil {
				b.Fatal(err)
			}
			p.dec.Feed(p.buf[:n])
		}
	}
}

// BenchmarkClusterSparseForward measures cluster-wide interest-aware
// delivery — the cross-node analogue of TestSparseFanoutWorkerPushes. Both runs
// drive the same workload into a 3-member cluster; they differ only in
// subscriber placement. "sparse" concentrates every subscriber on member 0
// while the publisher sits on member 1: the coordinators learn from the
// gossiped interest digests that the remaining member has no subscribers in
// the active topic groups and downgrade its replicas to metadata-only
// frames — payload forwards to uninterested members drop to ~0, visible as
// cluster_payloads_suppressed ("suppressed/msg" > 0, roughly one of the two
// remote copies per publication net of the quorum top-up). "dense-baseline"
// spreads subscribers over all members: every member is interested, nothing
// is suppressed, and the delivered-message count is unchanged relative to
// an interest-blind broadcast.
func BenchmarkClusterSparseForward(b *testing.B) {
	run := func(b *testing.B, subscriberNodes []int, wantSuppression bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := loadgen.RunClusterScenario(loadgen.ClusterScenario{
				Scenario: loadgen.Scenario{
					Subscribers:     300,
					Topics:          10,
					PayloadSize:     140,
					PublishInterval: 100 * time.Millisecond,
					Warmup:          1500 * time.Millisecond,
					Measure:         2 * time.Second,
					TopicPrefix:     "csf",
					Seed:            11,
				},
				Members:           3,
				SubscriberNodes:   subscriberNodes,
				PublisherNode:     1,
				Engine:            core.Config{TopicGroups: 100},
				SessionTTL:        500 * time.Millisecond,
				OpTimeout:         2 * time.Second,
				InterestSyncEvery: 100 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Gaps != 0 {
				b.Fatalf("ordering/completeness violated: %d gaps", res.Gaps)
			}
			msgs := float64(res.PayloadsForwarded + res.PayloadsSuppressed)
			if msgs > 0 {
				b.ReportMetric(float64(res.PayloadsForwarded)/msgs*2, "payload-fwd/msg")
				b.ReportMetric(float64(res.PayloadsSuppressed)/msgs*2, "suppressed/msg")
			}
			b.ReportMetric(res.MsgsPerSec, "delivered-msgs/s")
			b.ReportMetric(res.Latency.Mean, "lat-mean-ms")
			if wantSuppression && res.PayloadsSuppressed == 0 {
				b.Errorf("sparse run suppressed no payloads (forwarded %d)", res.PayloadsForwarded)
			}
			if !wantSuppression && res.PayloadsSuppressed != 0 {
				b.Errorf("dense baseline suppressed %d payloads, want 0", res.PayloadsSuppressed)
			}
		}
	}
	b.Run("sparse", func(b *testing.B) { run(b, []int{0}, true) })
	b.Run("dense-baseline", func(b *testing.B) { run(b, nil, false) })
}
