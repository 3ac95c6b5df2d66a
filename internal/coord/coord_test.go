package coord

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/consensus"
)

// cluster spins up n coordination replicas on an in-process mesh.
type cluster struct {
	mesh     *consensus.Mesh[struct{}]
	services []*Service
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	mesh := consensus.NewMesh[struct{}]()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("srv-%d", i)
	}
	c := &cluster{mesh: mesh}
	for i, id := range ids {
		svc := New(Config{
			ID: id, Peers: ids,
			SessionTTL: 300 * time.Millisecond,
			OpTimeout:  2 * time.Second,
			TickEvery:  5 * time.Millisecond,
			Seed:       int64(i + 1),
		}, mesh.Send)
		mesh.Register(id, svc.Runner(), nil)
		c.services = append(c.services, svc)
	}
	t.Cleanup(func() {
		for _, s := range c.services {
			s.Stop()
		}
	})
	c.waitForLeader(t)
	return c
}

func (c *cluster) waitForLeader(t *testing.T) *Service {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range c.services {
			if s.IsLeader() && !s.stopped.Load() {
				return s
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no coordination leader elected")
	return nil
}

func TestCreateEphemeralOnce(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.services[0].CreateEphemeral("group/7", "srv-0"); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if _, err := c.services[1].CreateEphemeral("group/7", "srv-1"); !errors.Is(err, ErrExists) {
		t.Fatalf("second create err = %v, want ErrExists", err)
	}
	// Every replica converges to the same value.
	waitUntil(t, 2*time.Second, func() bool {
		for _, s := range c.services {
			if v, ok := s.Get("group/7"); !ok || v != "srv-0" {
				return false
			}
		}
		return true
	})
}

func TestCreateRaceSingleWinner(t *testing.T) {
	c := newCluster(t, 3)
	var wg sync.WaitGroup
	wins := make(chan string, 3)
	for _, s := range c.services {
		wg.Add(1)
		go func(s *Service) {
			defer wg.Done()
			if _, err := s.CreateEphemeral("group/race", s.ID()); err == nil {
				wins <- s.ID()
			}
		}(s)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("winners = %v, want exactly one (linearizable create-if-absent)", winners)
	}
	owner, ok := c.services[0].Owner("group/race")
	if !ok || owner != winners[0] {
		t.Fatalf("owner = %q %v, want %q", owner, ok, winners[0])
	}
}

func TestLocalReads(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.services[0].Create("persistent/x", "v1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		for _, s := range c.services {
			if v, ok := s.Get("persistent/x"); !ok || v != "v1" {
				return false
			}
		}
		return true
	})
	snap := c.services[1].Snapshot()
	if snap["persistent/x"] != "v1" {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestDeleteFiresWatch(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.services[0].CreateEphemeral("watched", "v"); err != nil {
		t.Fatal(err)
	}
	fired := make(chan string, 1)
	c.services[1].WatchDelete("watched", func(key string) { fired <- key })
	if err := c.services[2].Delete("watched"); err != nil {
		t.Fatal(err)
	}
	select {
	case key := <-fired:
		if key != "watched" {
			t.Fatalf("watch fired with key %q", key)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watch did not fire on delete")
	}
}

func TestWatchOnMissingKeyFiresImmediately(t *testing.T) {
	c := newCluster(t, 3)
	fired := make(chan string, 1)
	c.services[0].WatchDelete("never-created", func(key string) { fired <- key })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("watch on missing key did not fire")
	}
}

func TestSessionExpiryRemovesEphemerals(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.services[2].CreateEphemeral("eph/owned-by-2", "x"); err != nil {
		t.Fatal(err)
	}
	// Wait for the entry to replicate to srv-0 before watching: a watch on
	// a locally-missing key fires immediately by design.
	waitUntil(t, 2*time.Second, func() bool {
		_, ok := c.services[0].Get("eph/owned-by-2")
		return ok
	})
	fired := make(chan string, 1)
	c.services[0].WatchDelete("eph/owned-by-2", func(key string) { fired <- key })

	// Crash replica 2: unregister from the mesh and stop heartbeats.
	c.mesh.Unregister("srv-2")
	c.services[2].Stop()

	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("ephemeral entry survived its owner's crash")
	}
	if _, ok := c.services[0].Get("eph/owned-by-2"); ok {
		t.Fatal("ephemeral key still present after session expiry")
	}
}

func TestPersistentKeySurvivesOwnerCrash(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.services[2].Create("persist/owned-by-2", "x"); err != nil {
		t.Fatal(err)
	}
	c.mesh.Unregister("srv-2")
	c.services[2].Stop()
	// Wait past the TTL: the persistent key must remain.
	time.Sleep(time.Second)
	if _, ok := c.services[0].Get("persist/owned-by-2"); !ok {
		t.Fatal("persistent key lost after owner crash")
	}
}

func TestPartitionedReplicaWritesFail(t *testing.T) {
	c := newCluster(t, 3)
	// Find a replica to isolate (prefer a follower so the rest keep quorum
	// without re-election, but either works).
	var victim *Service
	for _, s := range c.services {
		if !s.IsLeader() {
			victim = s
			break
		}
	}
	c.mesh.SetPartitioned(victim.ID(), true)
	victim.cfg.OpTimeout = 300 * time.Millisecond // fail fast for the test
	_, err := victim.CreateEphemeral("from-minority", "x")
	if err == nil {
		t.Fatal("write from partitioned replica succeeded")
	}
	// The healthy majority still works.
	leader := c.waitForLeaderExcluding(t, victim.ID())
	if _, err := leader.CreateEphemeral("from-majority", "x"); err != nil {
		t.Fatalf("majority write failed: %v", err)
	}
}

func (c *cluster) waitForLeaderExcluding(t *testing.T, exclude string) *Service {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range c.services {
			if s.ID() != exclude && s.IsLeader() {
				return s
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader among the majority")
	return nil
}

func TestTakeoverAfterExpiry(t *testing.T) {
	// The full §5.2.1 choreography: srv-1 owns a group; srv-1 dies; srv-0's
	// watch fires; srv-0 races and wins the new entry with its own session.
	c := newCluster(t, 3)
	if _, err := c.services[1].CreateEphemeral("groups/42", "srv-1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		_, ok := c.services[0].Get("groups/42")
		return ok
	})
	took := make(chan error, 1)
	c.services[0].WatchDelete("groups/42", func(string) {
		took <- func() error { _, err := c.services[0].CreateEphemeral("groups/42", "srv-0"); return err }()
	})
	c.mesh.Unregister("srv-1")
	c.services[1].Stop()
	select {
	case err := <-took:
		if err != nil {
			t.Fatalf("takeover create failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("takeover never happened")
	}
	owner, ok := c.services[0].Owner("groups/42")
	if !ok || owner != "srv-0" {
		t.Fatalf("owner after takeover = %q %v", owner, ok)
	}
}

func TestStopIdempotent(t *testing.T) {
	c := newCluster(t, 3)
	c.services[0].Stop()
	c.services[0].Stop()
	if _, err := c.services[0].CreateEphemeral("x", "y"); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met within timeout")
}
