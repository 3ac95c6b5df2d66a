package loadgen

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
	"migratorydata/internal/transport"
)

// Scenario describes one benchmark run in the shape of the paper's
// evaluation (§6): S subscribers spread over T topics, each topic updated
// once per PublishInterval with PayloadSize random bytes, measured for
// Measure after a Warmup.
type Scenario struct {
	Subscribers     int
	Topics          int
	PayloadSize     int           // default 140 (the paper's C1M workload)
	PublishInterval time.Duration // default 1s per topic
	Warmup          time.Duration // default 2s
	Measure         time.Duration // default 10s
	// ColdTopics adds topics that the publisher updates but nobody
	// subscribes to — the sparse-subscription workload (many topics,
	// subscribers concentrated on few workers). With subscription-aware
	// routing a cold publication enqueues no worker events at all.
	ColdTopics int
	// PipeBuffer is the socket buffer size asked of the kernel for the
	// in-process connections (it rounds up to its floor). Default 2048.
	PipeBuffer int
	// TopicPrefix names the topics (prefix-0 .. prefix-N). Default "topic".
	TopicPrefix string
	// Failover enables subscriber reconnection (cluster runs).
	Failover bool
	// Reliable makes the publisher wait for acks and republish (cluster
	// fault-tolerance runs need it so no message is lost, §3).
	Reliable bool
	Seed     int64
}

// withDefaults fills zero fields.
func (s Scenario) withDefaults() Scenario {
	if s.Subscribers <= 0 {
		s.Subscribers = 1000
	}
	if s.Topics <= 0 {
		s.Topics = 10
	}
	if s.PayloadSize <= 0 {
		s.PayloadSize = 140
	}
	if s.PublishInterval <= 0 {
		s.PublishInterval = time.Second
	}
	if s.Warmup <= 0 {
		s.Warmup = 2 * time.Second
	}
	if s.Measure <= 0 {
		s.Measure = 10 * time.Second
	}
	if s.PipeBuffer <= 0 {
		s.PipeBuffer = 2048
	}
	if s.TopicPrefix == "" {
		s.TopicPrefix = "topic"
	}
	return s
}

// TopicNames materializes the scenario's subscribed topic list.
func (s Scenario) TopicNames() []string {
	out := make([]string, s.Topics)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", s.TopicPrefix, i)
	}
	return out
}

// PublishTopicNames materializes the publisher's topic list: the subscribed
// topics followed by the ColdTopics nobody listens to.
func (s Scenario) PublishTopicNames() []string {
	out := s.TopicNames()
	for i := 0; i < s.ColdTopics; i++ {
		out = append(out, fmt.Sprintf("%s-cold-%d", s.TopicPrefix, i))
	}
	return out
}

// Result is one benchmark row, mirroring the columns of the paper's
// Table 1 (latency statistics, CPU, traffic, topics) plus the integrity
// counters used by the fault-tolerance runs.
type Result struct {
	Subscribers int
	Topics      int
	Latency     metrics.Stats
	CPU         float64 // engine busy fraction of total capacity
	Gbps        float64 // outgoing notification traffic
	MsgsPerSec  float64 // delivered notifications per second
	Received    int64
	Recovered   int64
	Reconnects  int64
	Gaps        int64
	// DeliverRouted/DeliverSkipped snapshot the engine's routing counters:
	// worker deliver events enqueued vs. avoided relative to a broadcast
	// fan-out (cumulative over the run, warm-up included).
	DeliverRouted  int64
	DeliverSkipped int64
	// FanoutEvents/IOFlushes/IOFlushBytes snapshot the engine's egress
	// counters (summed over members on cluster runs): grouped write events
	// pushed to ioThreads, transport write operations, and bytes written —
	// IOFlushBytes/IOFlushes is the achieved output batch size.
	FanoutEvents int64
	IOFlushes    int64
	IOFlushBytes int64
	// PayloadsForwarded/PayloadsSuppressed snapshot the cluster-layer
	// interest-routing counters summed over all members: full-payload
	// replicas shipped between nodes vs. replicas downgraded to
	// metadata-only frames because the receiving node had no subscriber in
	// the topic's group (zero on single-engine runs).
	PayloadsForwarded  int64
	PayloadsSuppressed int64
	// CacheTopics/CacheEntries/CacheBytes gauge the history cache at the
	// end of the run (summed over members on cluster runs): cached topics,
	// live entries, and the measured footprint in bytes — ring slots plus
	// payloads (see cache.MemStats). With memory-proportional rings this
	// tracks the history actually cached, not topics × per-topic cap.
	CacheTopics  int64
	CacheEntries int64
	CacheBytes   int64
	// Overload-path observability (summed over members on cluster runs):
	// EgressQueueBytes/SlowConsumers snapshot the staged-egress gauges at
	// the end of the run; PressureDrops/PressureDisconnects count frames
	// dropped by the pressure policy and fenced slow-consumer disconnects
	// (see core.Stats and metrics.PressureCounters).
	EgressQueueBytes    int64
	SlowConsumers       int64
	PressureDrops       int64
	PressureDisconnects int64
}

// SingleEngineAttach attaches connections to one engine over small-buffered
// in-process socketpairs (the vertical-scalability setup: one server machine,
// benchmark tools alongside).
func SingleEngineAttach(e *core.Engine, pipeBuffer int) AttachFunc {
	var counter atomic.Int64
	return func(i int) (net.Conn, error) {
		return attachPipe(e, i, counter.Add(1), pipeBuffer)
	}
}

// attachPipe opens an in-process connection (two descriptors) for fleet
// slot i, attaches its server end to e and returns the client end.
func attachPipe(e *core.Engine, i int, n int64, pipeBuffer int) (net.Conn, error) {
	a, b, err := transport.NewPipeSize(
		transport.Addr{Net: "inproc", Address: fmt.Sprintf("lg-%d-%d", i, n)},
		transport.Addr{Net: "inproc", Address: e.ServerID()},
		pipeBuffer,
	)
	if err != nil {
		return nil, err
	}
	if _, err := e.Attach(core.NewRawFramed(b)); err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	return a, nil
}

// MultiEngineAttach spreads connections round-robin over several engines
// (the horizontal-scalability setup), skipping engines that reject the
// attachment (crashed servers) — the live-server failover path.
func MultiEngineAttach(engines []*core.Engine, pipeBuffer int) AttachFunc {
	var counter atomic.Int64
	return func(i int) (net.Conn, error) {
		n := counter.Add(1)
		var lastErr error
		for try := 0; try < len(engines); try++ {
			a, err := attachPipe(engines[(int(n)+try)%len(engines)], i, n, pipeBuffer)
			if err == nil {
				return a, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("loadgen: no live engine accepts connections: %w", lastErr)
	}
}

// RunScenario executes one vertical-scalability row against an engine:
// attach subscribers, start the publisher, warm up, measure, and report.
func RunScenario(e *core.Engine, sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	attach := SingleEngineAttach(e, sc.PipeBuffer)
	return runWith(sc, attach, attach, e.Stats, func() { e.ResetMeters() })
}

// StartScenarioMulti starts the benchmark tools against several engines
// with subscriber failover enabled and returns them without driving the
// measurement, so fault-tolerance harnesses (Table 2) control warm-up,
// fail-stop injection, and before/after windows themselves.
func StartScenarioMulti(engines []*core.Engine, sc Scenario) (*Benchsub, *Benchpub, error) {
	sc = sc.withDefaults()
	sc.Failover = true
	attach := MultiEngineAttach(engines, sc.PipeBuffer)
	return startScenario(sc, attach, attach)
}

// runWith is the single-engine scenario driver.
func runWith(sc Scenario, subAttach, pubAttach AttachFunc,
	meters func() core.Stats, resetMeters func()) (Result, error) {

	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: sc.Subscribers,
		Topics:      sc.TopicNames(),
		Attach:      subAttach,
		Histogram:   hist,
		Failover:    sc.Failover,
		Seed:        sc.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	defer bs.Close()

	bp, err := StartBenchpub(PubConfig{
		Topics:      sc.PublishTopicNames(),
		Interval:    sc.PublishInterval,
		PayloadSize: sc.PayloadSize,
		Attach:      pubAttach,
		Seed:        sc.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	defer bp.Close()

	time.Sleep(sc.Warmup)
	resetMeters()
	bs.StartRecording()
	receivedBefore := bs.Received()
	time.Sleep(sc.Measure)
	bs.StopRecording()
	st := meters()
	received := bs.Received() - receivedBefore

	return Result{
		Subscribers:    sc.Subscribers,
		Topics:         sc.Topics,
		Latency:        hist.Snapshot(),
		CPU:            st.CPUUtilized,
		Gbps:           st.Gbps,
		MsgsPerSec:     float64(received) / sc.Measure.Seconds(),
		Received:       bs.Received(),
		Recovered:      bs.Recovered(),
		Reconnects:     bs.Reconnects(),
		Gaps:           bs.Gaps(),
		DeliverRouted:  st.DeliverRouted,
		DeliverSkipped: st.DeliverSkipped,
		FanoutEvents:   st.FanoutEvents,
		IOFlushes:      st.IOFlushes,
		IOFlushBytes:   st.IOFlushBytes,
		CacheTopics:    st.CacheTopics,
		CacheEntries:   st.CacheEntries,
		CacheBytes:     st.CacheBytes,

		EgressQueueBytes:    st.EgressQueueBytes,
		SlowConsumers:       st.SlowConsumers,
		PressureDrops:       st.PressureDrops,
		PressureDisconnects: st.PressureDisconnects,
	}, nil
}

// startScenario starts the tools without driving the measurement phases.
func startScenario(sc Scenario, subAttach, pubAttach AttachFunc) (*Benchsub, *Benchpub, error) {
	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: sc.Subscribers,
		Topics:      sc.TopicNames(),
		Attach:      subAttach,
		Histogram:   hist,
		Failover:    sc.Failover,
		Seed:        sc.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	bp, err := StartBenchpub(PubConfig{
		Topics:      sc.PublishTopicNames(),
		Interval:    sc.PublishInterval,
		PayloadSize: sc.PayloadSize,
		Attach:      pubAttach,
		Reliable:    sc.Reliable,
		Seed:        sc.Seed,
	})
	if err != nil {
		bs.Close()
		return nil, nil, err
	}
	return bs, bp, nil
}

// Histogram returns the histogram a started Benchsub records into.
func (b *Benchsub) Histogram() *metrics.Histogram { return b.cfg.Histogram }
