package loadgen

import (
	"testing"
	"time"

	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New(core.Config{ServerID: "lg-test", IoThreads: 2, Workers: 2, TopicGroups: 16})
	t.Cleanup(func() { e.Close() })
	return e
}

func TestBenchsubReceivesAndMeasures(t *testing.T) {
	e := newEngine(t)
	attach := SingleEngineAttach(e, 2048)
	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: 20,
		Topics:      []string{"a", "b"},
		Attach:      attach,
		Histogram:   hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bs.StartRecording()

	bp, err := StartBenchpub(PubConfig{
		Topics:      []string{"a", "b"},
		Interval:    20 * time.Millisecond,
		PayloadSize: 140,
		Attach:      attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()

	deadline := time.Now().Add(5 * time.Second)
	for bs.Received() < 100 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if bs.Received() < 100 {
		t.Fatalf("received only %d notifications", bs.Received())
	}
	if bs.Gaps() != 0 {
		t.Fatalf("gaps = %d, want 0", bs.Gaps())
	}
	if hist.Count() == 0 {
		t.Fatal("no latency samples recorded")
	}
	s := hist.Snapshot()
	if s.Mean <= 0 || s.Mean > 5000 {
		t.Fatalf("implausible mean latency %v ms", s.Mean)
	}
	if bp.Sent() == 0 || bp.Errors() != 0 {
		t.Fatalf("publisher sent=%d errors=%d", bp.Sent(), bp.Errors())
	}
}

func TestBenchsubRecordingGate(t *testing.T) {
	e := newEngine(t)
	attach := SingleEngineAttach(e, 2048)
	hist := &metrics.Histogram{}
	bs, err := StartBenchsub(SubConfig{
		Connections: 5, Topics: []string{"t"}, Attach: attach, Histogram: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	// Without StartRecording, samples must not accumulate.
	bp, err := StartBenchpub(PubConfig{
		Topics: []string{"t"}, Interval: 10 * time.Millisecond, Attach: attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	deadline := time.Now().Add(3 * time.Second)
	for bs.Received() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if bs.Received() < 10 {
		t.Fatal("no traffic")
	}
	if hist.Count() != 0 {
		t.Fatalf("recorded %d samples before StartRecording", hist.Count())
	}
}

func TestRunScenarioProducesResult(t *testing.T) {
	e := newEngine(t)
	res, err := RunScenario(e, Scenario{
		Subscribers:     50,
		Topics:          5,
		PublishInterval: 50 * time.Millisecond,
		Warmup:          200 * time.Millisecond,
		Measure:         500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	if res.MsgsPerSec <= 0 {
		t.Fatalf("MsgsPerSec = %v", res.MsgsPerSec)
	}
	if res.Gaps != 0 {
		t.Fatalf("gaps = %d", res.Gaps)
	}
}

func TestMultiEngineAttachSkipsDeadEngines(t *testing.T) {
	e1 := newEngine(t)
	e2 := core.New(core.Config{ServerID: "dead", IoThreads: 1, Workers: 1})
	e2.Close() // dead engine rejects attachments
	attach := MultiEngineAttach([]*core.Engine{e2, e1}, 2048)
	for i := 0; i < 4; i++ {
		conn, err := attach(i)
		if err != nil {
			t.Fatalf("attach %d failed despite a live engine: %v", i, err)
		}
		conn.Close()
	}
}

func TestBenchsubFailoverResumes(t *testing.T) {
	// Two engines sharing a cache-feeding publisher isn't needed — this
	// exercises only the reconnect+resume machinery against one engine
	// that we bounce connections off.
	e := newEngine(t)
	attach := SingleEngineAttach(e, 2048)
	bs, err := StartBenchsub(SubConfig{
		Connections: 3, Topics: []string{"f"}, Attach: attach,
		Failover: true, ReconnectWaitMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bp, err := StartBenchpub(PubConfig{
		Topics: []string{"f"}, Interval: 10 * time.Millisecond, Attach: attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()

	deadline := time.Now().Add(3 * time.Second)
	for bs.Received() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Kick every subscriber off the server; they must reconnect and resume.
	e.CloseAllClients()
	deadline = time.Now().Add(5 * time.Second)
	for bs.Reconnects() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if bs.Reconnects() < 3 {
		t.Fatalf("reconnects = %d, want 3", bs.Reconnects())
	}
	// CloseAllClients also severed the publisher (it is a client of the
	// same engine and Benchpub does not reconnect); start a fresh one.
	bp2, err := StartBenchpub(PubConfig{
		Topics: []string{"f"}, Interval: 10 * time.Millisecond, Attach: attach, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bp2.Close()
	before := bs.Received()
	deadline = time.Now().Add(3 * time.Second)
	for bs.Received() == before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if bs.Received() == before {
		t.Fatal("no notifications after failover")
	}
	if bs.Gaps() != 0 {
		t.Fatalf("gaps after failover = %d, want 0 (completeness)", bs.Gaps())
	}
}

// TestSparseScenarioSkipsColdTopics drives the sparse-subscription workload
// (many published topics, few with subscribers): cold-topic publications
// must produce far more skipped than routed worker events, while delivery
// to the hot topics stays complete and in order.
func TestSparseScenarioSkipsColdTopics(t *testing.T) {
	e := core.New(core.Config{ServerID: "sparse", IoThreads: 2, Workers: 8, TopicGroups: 16})
	defer e.Close()
	res, err := RunScenario(e, Scenario{
		Subscribers:     8,
		Topics:          4,
		ColdTopics:      60,
		PayloadSize:     64,
		PublishInterval: 50 * time.Millisecond,
		Warmup:          300 * time.Millisecond,
		Measure:         700 * time.Millisecond,
		TopicPrefix:     "sparse",
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gaps != 0 {
		t.Fatalf("gaps = %d", res.Gaps)
	}
	if res.Received == 0 {
		t.Fatal("hot topics delivered nothing")
	}
	if res.DeliverRouted == 0 {
		t.Fatal("no deliver events routed")
	}
	// 60 of 64 published topics have no subscribers at all, and the 4 hot
	// topics' subscribers occupy at most 8 workers, so the broadcast events
	// avoided must dominate the ones enqueued.
	if res.DeliverSkipped <= res.DeliverRouted {
		t.Fatalf("skipped = %d, routed = %d: sparse workload should skip most worker pushes",
			res.DeliverSkipped, res.DeliverRouted)
	}
}
