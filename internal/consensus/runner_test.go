package consensus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/queue"
)

// liveCluster runs n real Runners over a Mesh with short ticks.
type liveCluster struct {
	mesh    *Mesh[struct{}]
	runners []*Runner
	applied []*appliedLog
}

type appliedLog struct {
	mu   sync.Mutex
	cmds []string
}

func (a *appliedLog) add(cmd string) {
	a.mu.Lock()
	a.cmds = append(a.cmds, cmd)
	a.mu.Unlock()
}

func (a *appliedLog) snapshot() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.cmds...)
}

func newLiveCluster(t *testing.T, n int) *liveCluster {
	t.Helper()
	mesh := NewMesh[struct{}]()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("live-%d", i)
	}
	lc := &liveCluster{mesh: mesh}
	for i, id := range ids {
		log := &appliedLog{}
		lc.applied = append(lc.applied, log)
		node := NewNode(Config{ID: id, Peers: ids, Seed: int64(i + 1)},
			func(e Entry) { log.add(string(e.Cmd)) })
		r := NewRunner(node, mesh.Send, 5*time.Millisecond)
		mesh.Register(id, r, nil)
		lc.runners = append(lc.runners, r)
	}
	t.Cleanup(func() {
		for _, r := range lc.runners {
			r.Stop()
		}
	})
	return lc
}

func (lc *liveCluster) waitLeader(t *testing.T) *Runner {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range lc.runners {
			if r.IsLeader() {
				return r
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader under real time")
	return nil
}

func TestRunnerElectsAndReplicates(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t)
	if err := ld.Propose([]byte("real-time-cmd")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, log := range lc.applied {
			if cmds := log.snapshot(); len(cmds) == 1 && cmds[0] == "real-time-cmd" {
				done++
			}
		}
		if done == 3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("command did not replicate to all runners")
}

func TestRunnerFollowerProposalForwarded(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t)
	var follower *Runner
	for _, r := range lc.runners {
		if r != ld {
			follower = r
			break
		}
	}
	// The follower may briefly not know the leader; retry as a client would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := follower.Propose([]byte("fwd")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never learned the leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if cmds := lc.applied[0].snapshot(); len(cmds) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("forwarded proposal not applied")
}

func TestRunnerLeaderStepsDownWhenPartitioned(t *testing.T) {
	lc := newLiveCluster(t, 3)
	ld := lc.waitLeader(t)
	lc.mesh.SetPartitioned(ld.node.ID(), true)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !ld.IsLeader() {
			return // check-quorum fired
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("partitioned leader never stepped down (check-quorum broken)")
}

func TestRunnerStopIdempotent(t *testing.T) {
	node := NewNode(Config{ID: "solo", Peers: []string{"solo"}}, nil)
	r := NewRunner(node, func(Message) {}, time.Millisecond)
	r.Stop()
	r.Stop()
}

// TestMeshFaultModel checks the one fault model on both lanes: a partition
// is one SetPartitioned call and a crash one Unregister call, and either
// acts on the consensus lane (Send) and the data lane (SendTo) alike.
func TestMeshFaultModel(t *testing.T) {
	partitionA := func(m *Mesh[int]) { m.SetPartitioned("a", true) }
	cases := []struct {
		name               string
		fault              func(m *Mesh[int])
		from, to           string
		wantRaft, wantData bool
		members            int
	}{
		{"healthy", nil, "a", "b", true, true, 3},
		{"partitioned sender", partitionA, "a", "b", false, false, 3},
		{"partitioned receiver", partitionA, "b", "a", false, false, 3},
		{"healed", func(m *Mesh[int]) { partitionA(m); m.SetPartitioned("a", false) }, "a", "b", true, true, 3},
		{"unregistered receiver", func(m *Mesh[int]) { m.Unregister("b") }, "a", "b", false, false, 2},
		{"unknown receiver", nil, "a", "ghost", false, false, 3},
		{"receiver without inbox", nil, "a", "raft-only", true, false, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewMesh[int]()
			runners := map[string]*Runner{}
			inboxes := map[string]*queue.MPSC[int]{}
			for _, id := range []string{"a", "b", "raft-only"} {
				runners[id] = &Runner{events: queue.NewMPSC[Message]()}
				if id != "raft-only" {
					inboxes[id] = queue.NewMPSC[int]()
				}
				mesh.Register(id, runners[id], inboxes[id])
			}
			if tc.fault != nil {
				tc.fault(mesh)
			}
			mesh.Send(Message{Type: MsgAppend, From: tc.from, To: tc.to})
			sent := mesh.SendTo(tc.from, tc.to, 1)
			gotRaft := runners[tc.to] != nil && runners[tc.to].events.Len() == 1
			gotData := inboxes[tc.to] != nil && inboxes[tc.to].Len() == 1
			if gotRaft != tc.wantRaft || gotData != tc.wantData || sent != tc.wantData {
				t.Fatalf("%s→%s: consensus delivered %v, data delivered %v (SendTo %v); want %v, %v",
					tc.from, tc.to, gotRaft, gotData, sent, tc.wantRaft, tc.wantData)
			}
			if got := mesh.Members(); len(got) != tc.members {
				t.Fatalf("Members() = %v, want %d members", got, tc.members)
			}
		})
	}
}
