package loadgen

import (
	"testing"
	"time"

	"migratorydata/internal/core"
)

func TestRunFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	res, err := RunFailover(FailoverConfig{
		Members: 3,
		Scenario: Scenario{
			Subscribers:     90,
			Topics:          9,
			PublishInterval: 100 * time.Millisecond,
			Warmup:          500 * time.Millisecond,
		},
		BeforeMeasure:    time.Second,
		AfterMeasure:     time.Second,
		SettleAfterCrash: time.Second,
		Engine: core.Config{
			IoThreads: 1, Workers: 1, TopicGroups: 16, CacheCapacity: 256,
		},
		SessionTTL: 300 * time.Millisecond,
		OpTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Count == 0 || res.After.Count == 0 {
		t.Fatalf("missing samples: before=%d after=%d", res.Before.Count, res.After.Count)
	}
	// The crashed member's clients must have reconnected to survivors.
	if res.Reconnects == 0 {
		t.Fatal("no reconnections after the fail-stop")
	}
	// Completeness: no gaps ever.
	if res.Gaps != 0 {
		t.Fatalf("gaps = %d, want 0 (messages lost or reordered)", res.Gaps)
	}
	// Survivors absorbed the crashed member's clients.
	total := 0
	for _, c := range res.ClientsAfter {
		total += c
	}
	if total < 90 {
		t.Fatalf("clients after failover = %v (total %d), want >= 90", res.ClientsAfter, total)
	}
}

func TestRunFailoverRejectsSmallCluster(t *testing.T) {
	if _, err := RunFailover(FailoverConfig{Members: 2}); err == nil {
		t.Fatal("2-member failover run must be rejected")
	}
}
