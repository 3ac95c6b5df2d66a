package loadgen

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"migratorydata/internal/cluster"
	"migratorydata/internal/consensus"
	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
)

// ClusterScenario describes one clustered benchmark run with control over
// where the subscribers sit. The interest-aware replication tier makes the
// placement matter: when subscribers are concentrated on a minority of the
// members (the sparse shape), the coordinator ships full payloads only to
// those members (plus what the replication degree requires) and sequencing
// metadata to the rest — the cross-node analogue of the engine's
// topic→worker routing.
type ClusterScenario struct {
	// Scenario is the workload (subscribers, topics, rates, windows).
	Scenario Scenario
	// Members is the cluster size. Default 3.
	Members int
	// SubscriberNodes lists the member indices the subscriber connections
	// are spread over (round-robin). Empty means all members — the dense
	// baseline.
	SubscriberNodes []int
	// PublisherNode is the member index the publisher connects to.
	PublisherNode int
	// Engine tunes each member's engine.
	Engine core.Config
	// SessionTTL / OpTimeout / TickEvery / InterestSyncEvery tune the
	// coordination service and the digest anti-entropy.
	SessionTTL        time.Duration
	OpTimeout         time.Duration
	TickEvery         time.Duration
	InterestSyncEvery time.Duration
}

// PinnedEngineAttach spreads connections round-robin over the given subset
// of engines (by index), skipping engines that reject the attachment.
func PinnedEngineAttach(engines []*core.Engine, allowed []int, pipeBuffer int) AttachFunc {
	var counter atomic.Int64
	return func(i int) (net.Conn, error) {
		n := counter.Add(1)
		var lastErr error
		for try := 0; try < len(allowed); try++ {
			a, err := attachPipe(engines[allowed[(int(n)+try)%len(allowed)]], i, n, pipeBuffer)
			if err == nil {
				return a, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("loadgen: no allowed engine accepts connections: %w", lastErr)
	}
}

// RunClusterScenario executes one clustered benchmark run: build the
// cluster, pin the subscribers to the configured members, warm up, measure,
// and report — including the summed cluster payload-routing counters.
func RunClusterScenario(cfg ClusterScenario) (Result, error) {
	var res Result
	if cfg.Members <= 0 {
		cfg.Members = 3
	}
	if cfg.PublisherNode < 0 || cfg.PublisherNode >= cfg.Members {
		return res, errors.New("loadgen: publisher node out of range")
	}
	for _, idx := range cfg.SubscriberNodes {
		if idx < 0 || idx >= cfg.Members {
			return res, errors.New("loadgen: subscriber node out of range")
		}
	}
	sc := cfg.Scenario.withDefaults()
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 500 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}

	bus := cluster.NewBus()
	mesh := consensus.NewMesh()
	ids := make([]string, cfg.Members)
	for i := range ids {
		ids[i] = fmt.Sprintf("srv-%d", i)
	}
	nodes := make([]*cluster.Node, cfg.Members)
	engines := make([]*core.Engine, cfg.Members)
	for i, id := range ids {
		nodes[i] = cluster.NewNode(cluster.Config{
			ID: id, Peers: ids,
			Engine:            cfg.Engine,
			SessionTTL:        cfg.SessionTTL,
			OpTimeout:         cfg.OpTimeout,
			TickEvery:         cfg.TickEvery,
			InterestSyncEvery: cfg.InterestSyncEvery,
			Seed:              int64(i + 1),
		}, bus, mesh)
		engines[i] = nodes[i].Engine()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	if err := waitCoordReady(nodes, 10*time.Second); err != nil {
		return res, err
	}

	subNodes := cfg.SubscriberNodes
	if len(subNodes) == 0 {
		subNodes = make([]int, cfg.Members)
		for i := range subNodes {
			subNodes[i] = i
		}
	}
	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: sc.Subscribers,
		Topics:      sc.TopicNames(),
		Attach:      PinnedEngineAttach(engines, subNodes, sc.PipeBuffer),
		Histogram:   hist,
		Failover:    sc.Failover,
		Seed:        sc.Seed,
	})
	if err != nil {
		return res, err
	}
	defer bs.Close()
	bp, err := StartBenchpub(PubConfig{
		Topics:      sc.PublishTopicNames(),
		Interval:    sc.PublishInterval,
		PayloadSize: sc.PayloadSize,
		Attach:      SingleEngineAttach(engines[cfg.PublisherNode], sc.PipeBuffer),
		Reliable:    sc.Reliable,
		Seed:        sc.Seed,
	})
	if err != nil {
		return res, err
	}
	defer bp.Close()

	time.Sleep(sc.Warmup)
	for _, e := range engines {
		e.ResetMeters()
	}
	bs.StartRecording()
	receivedBefore := bs.Received()
	before := make([]cluster.ClusterStats, len(nodes))
	for i, n := range nodes {
		before[i] = n.Stats()
	}
	time.Sleep(sc.Measure)
	bs.StopRecording()
	received := bs.Received() - receivedBefore

	res = Result{
		Subscribers: sc.Subscribers,
		Topics:      sc.Topics,
		Latency:     hist.Snapshot(),
		MsgsPerSec:  float64(received) / sc.Measure.Seconds(),
		Received:    bs.Received(),
		Recovered:   bs.Recovered(),
		Reconnects:  bs.Reconnects(),
		Gaps:        bs.Gaps(),
	}
	for i, n := range nodes {
		st := n.Stats()
		res.PayloadsForwarded += st.PayloadsForwarded - before[i].PayloadsForwarded
		res.PayloadsSuppressed += st.PayloadsSuppressed - before[i].PayloadsSuppressed
	}
	for _, e := range engines {
		st := e.Stats()
		res.CPU += st.CPUUtilized
		res.Gbps += st.Gbps
		res.DeliverRouted += st.DeliverRouted
		res.DeliverSkipped += st.DeliverSkipped
		res.FanoutEvents += st.FanoutEvents
		res.IOFlushes += st.IOFlushes
		res.IOFlushBytes += st.IOFlushBytes
		res.CacheTopics += st.CacheTopics
		res.CacheEntries += st.CacheEntries
		res.CacheBytes += st.CacheBytes
		res.EgressQueueBytes += st.EgressQueueBytes
		res.SlowConsumers += st.SlowConsumers
		res.PressureDrops += st.PressureDrops
		res.PressureDisconnects += st.PressureDisconnects
	}
	res.CPU /= float64(len(engines))
	return res, nil
}
