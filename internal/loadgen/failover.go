package loadgen

import (
	"errors"
	"fmt"
	"time"

	"migratorydata/internal/cluster"
	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
)

// FailoverConfig describes a Table-2-shaped run: a cluster of Members
// servers under the scenario's load, one fail-stop partway through, and
// latency windows measured before and after the failure.
type FailoverConfig struct {
	// Members is the cluster size (the paper uses 3).
	Members int
	// Scenario is the workload (subscribers spread over all members).
	Scenario Scenario
	// BeforeMeasure / AfterMeasure are the two recording windows.
	BeforeMeasure time.Duration
	AfterMeasure  time.Duration
	// SettleAfterCrash is the pause between the fail-stop and the "after"
	// window, covering client reconnection (the paper reports failover
	// latency "in the range of at most a few seconds").
	SettleAfterCrash time.Duration
	// Engine tunes each member's engine.
	Engine core.Config
	// SessionTTL / OpTimeout / TickEvery tune the coordination service.
	SessionTTL time.Duration
	OpTimeout  time.Duration
	TickEvery  time.Duration
}

// FailoverResult mirrors Table 2 plus the integrity counters the paper
// reports in prose (all messages recovered; reconnections scattered).
type FailoverResult struct {
	Before        metrics.Stats
	After         metrics.Stats
	CPUBefore     float64 // mean per-server engine busy fraction
	CPUAfter      float64
	ClientsBefore []int // per-server connection counts before the crash
	ClientsAfter  []int // per-surviving-server counts after failover
	Reconnects    int64
	Recovered     int64 // cache retransmissions delivered during failover
	Gaps          int64 // per-topic order/completeness violations (must be 0)
	Duplicates    int64 // re-deliveries dropped (allowed under at-least-once)
	PublishErrors int64
}

// RunFailover executes the full Table 2 experiment.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	var res FailoverResult
	if cfg.Members < 3 {
		return res, errors.New("loadgen: failover run needs >= 3 members (replication quorum)")
	}
	sc := cfg.Scenario.withDefaults()
	if cfg.BeforeMeasure <= 0 {
		cfg.BeforeMeasure = 5 * time.Second
	}
	if cfg.AfterMeasure <= 0 {
		cfg.AfterMeasure = 5 * time.Second
	}
	if cfg.SettleAfterCrash <= 0 {
		cfg.SettleAfterCrash = 2 * time.Second
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 500 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}

	// Build the cluster.
	net := cluster.NewNetwork()
	ids := make([]string, cfg.Members)
	for i := range ids {
		ids[i] = fmt.Sprintf("srv-%d", i)
	}
	nodes := make([]*cluster.Node, cfg.Members)
	engines := make([]*core.Engine, cfg.Members)
	for i, id := range ids {
		nodes[i] = cluster.NewNode(cluster.Config{
			ID: id, Peers: ids,
			Engine:     cfg.Engine,
			SessionTTL: cfg.SessionTTL,
			OpTimeout:  cfg.OpTimeout,
			TickEvery:  cfg.TickEvery,
			Seed:       int64(i + 1),
		}, net)
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

	// Subscribers spread across all members with failover; the reliable
	// publisher is pinned to member 0 (a survivor), mirroring the paper's
	// Benchpub on the fourth machine.
	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: sc.Subscribers,
		Topics:      sc.TopicNames(),
		Attach:      MultiEngineAttach(engines, sc.PipeBuffer),
		Histogram:   hist,
		Failover:    true,
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
		Attach:      SingleEngineAttach(engines[0], sc.PipeBuffer),
		Reliable:    true,
		AckTimeout:  2 * time.Second,
		Seed:        sc.Seed,
	})
	if err != nil {
		return res, err
	}
	defer bp.Close()

	// Warm up, then the "before" window.
	time.Sleep(sc.Warmup)
	for _, e := range engines {
		e.ResetMeters()
	}
	bs.StartRecording()
	time.Sleep(cfg.BeforeMeasure)
	bs.StopRecording()
	res.Before = hist.Snapshot()
	for _, e := range engines {
		res.CPUBefore += e.Stats().CPUUtilized
		res.ClientsBefore = append(res.ClientsBefore, e.NumClients())
	}
	res.CPUBefore /= float64(len(engines))
	hist.Reset()

	// Fail-stop the last member (never the publisher's).
	crashIdx := cfg.Members - 1
	nodes[crashIdx].Stop()

	// Let clients fail over, then the "after" window.
	time.Sleep(cfg.SettleAfterCrash)
	survivors := engines[:crashIdx]
	for _, e := range survivors {
		e.ResetMeters()
	}
	bs.StartRecording()
	time.Sleep(cfg.AfterMeasure)
	bs.StopRecording()
	res.After = hist.Snapshot()
	for _, e := range survivors {
		res.CPUAfter += e.Stats().CPUUtilized
		res.ClientsAfter = append(res.ClientsAfter, e.NumClients())
	}
	res.CPUAfter /= float64(len(survivors))

	res.Reconnects = bs.Reconnects()
	res.Recovered = bs.Recovered()
	res.Gaps = bs.Gaps()
	res.Duplicates = bs.Duplicates()
	res.PublishErrors = bp.Errors()
	return res, nil
}

// waitCoordReady blocks until the coordination service elects a leader.
func waitCoordReady(nodes []*cluster.Node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Coord().IsLeader() {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("loadgen: coordination service not ready")
}
