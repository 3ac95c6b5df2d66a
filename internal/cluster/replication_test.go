package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"migratorydata/internal/core"
	"migratorydata/internal/protocol"
)

// newDegreeCluster builds a cluster with an explicit replication degree.
func newDegreeCluster(t *testing.T, n, ackCopies int) *testCluster {
	t.Helper()
	net := NewNetwork()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("deg-%d", i)
	}
	tc := &testCluster{t: t, net: net}
	for i, id := range ids {
		node := NewNode(Config{
			ID: id, Peers: ids,
			Engine:         core.Config{IoThreads: 1, Workers: 1, TopicGroups: 8, CacheCapacity: 64},
			SessionTTL:     300 * time.Millisecond,
			OpTimeout:      2 * time.Second,
			TickEvery:      5 * time.Millisecond,
			AckCopies:      ackCopies,
			CatchupTimeout: 2 * time.Second,
			Seed:           int64(i + 1),
		}, net)
		tc.nodes = append(tc.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			node.Stop()
		}
	})
	tc.waitQuorum()
	return tc
}

func TestReplicationDegree3Ack(t *testing.T) {
	tc := newDegreeCluster(t, 4, 3)
	// Publish from every node: local-coordinator, forwarded, and election
	// paths must all deliver acks at degree 3.
	for i, n := range tc.nodes {
		pub := attachTo(t, n)
		ack := pub.publishReliable("deg3-topic", []byte(fmt.Sprintf("from-%d", i)))
		if ack.Status != protocol.StatusOK {
			t.Fatalf("node %d publish not acked: %+v", i, ack)
		}
	}
	// Every node's cache must hold all four messages.
	waitCond(t, 3*time.Second, func() bool {
		for _, n := range tc.nodes {
			if len(history(n, "deg3-topic")) != 4 {
				return false
			}
		}
		return true
	})
}

func TestReplicationDegree3SurvivesTwoFaults(t *testing.T) {
	tc := newDegreeCluster(t, 5, 3)
	pub := attachTo(t, tc.nodes[0])
	ack := pub.publishReliable("two-faults", []byte("durable"))
	if ack.Status != protocol.StatusOK {
		t.Fatal("publish failed")
	}
	// The ack guarantees >= 3 copies; give the broadcast a moment to reach
	// everyone, then crash TWO members that are not the publisher's.
	waitCond(t, 3*time.Second, func() bool {
		count := 0
		for _, n := range tc.nodes {
			if len(history(n, "two-faults")) == 1 {
				count++
			}
		}
		return count == 5
	})
	tc.crash(4)
	tc.crash(3)

	// A subscriber resuming on any survivor still recovers the message.
	for i := 0; i < 3; i++ {
		sub := attachTo(t, tc.nodes[i])
		sub.subscribe(protocol.TopicPosition{Topic: "two-faults", Epoch: 1, Seq: 0})
		m := sub.expectKind(protocol.KindNotify, 3*time.Second)
		if string(m.Payload) != "durable" {
			t.Fatalf("survivor %d replayed %q", i, m.Payload)
		}
	}
}

func TestReplicationDegreeDefaultsTo2(t *testing.T) {
	tc := newTestCluster(t, 3)
	if tc.nodes[0].cfg.AckCopies != 2 {
		t.Fatalf("default AckCopies = %d, want 2 (the paper's production value)", tc.nodes[0].cfg.AckCopies)
	}
}

func TestPendingSweepNacksStuckPublications(t *testing.T) {
	tc := newTestCluster(t, 3)
	n := tc.nodes[0]
	// Inject a stuck pending entry directly; the sweep must nack it after
	// the op timeout.
	peer := attachTo(t, n)
	// Find the core client object by publishing once (creates nothing
	// pending), then fabricate a pending entry with an old timestamp.
	peer.publishReliable("sweep-topic", []byte("x"))
	n.mu.Lock()
	n.pendingFwd["sweep-topic\x00stuck-id"] = &pendingPub{
		msgID: "stuck-id", added: time.Now().Add(-time.Minute),
	}
	n.mu.Unlock()
	waitCond(t, 3*time.Second, func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		_, still := n.pendingFwd["sweep-topic\x00stuck-id"]
		return !still
	})
}

func TestGossipStaleEpochIgnored(t *testing.T) {
	tc := newTestCluster(t, 3)
	n := tc.nodes[0]
	n.learnGossip(5, "node-1", 10)
	n.learnGossip(5, "node-2", 3) // stale: lower epoch
	n.mu.Lock()
	ge := n.gossip[5]
	n.mu.Unlock()
	if ge.Server != "node-1" || ge.Epoch != 10 {
		t.Fatalf("gossip overwritten by stale entry: %+v", ge)
	}
	// Self entries are never stored.
	n.learnGossip(6, "node-0", 99)
	n.mu.Lock()
	_, ok := n.gossip[6]
	n.mu.Unlock()
	if ok {
		t.Fatal("gossip stored a self entry")
	}
}

func TestCacheRequestSpecificGroup(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("group-req-topic", []byte("v1"))
	g := int32(tc.nodes[0].Engine().Cache().GroupOf("group-req-topic"))
	waitCond(t, 2*time.Second, func() bool {
		return len(history(tc.nodes[1], "group-req-topic")) == 1
	})

	// A fresh node catches up just that group.
	fresh := NewNode(Config{
		ID: "fresh-group", Peers: []string{"node-0", "node-1", "fresh-group"},
		Engine:         core.Config{IoThreads: 1, Workers: 1, TopicGroups: 16, CacheCapacity: 64},
		SessionTTL:     300 * time.Millisecond,
		OpTimeout:      time.Second,
		TickEvery:      5 * time.Millisecond,
		CatchupTimeout: 2 * time.Second,
	}, tc.net)
	defer fresh.Stop()
	fresh.catchupGroup(g)
	if got := len(history(fresh, "group-req-topic")); got != 1 {
		t.Fatalf("group catch-up recovered %d entries, want 1", got)
	}
}

// TestReplicaAckBeforeBroadcastReturns is the regression test for the
// pendingAck registration order: a replica's ack that reaches the
// coordinator while sequenceAndReplicate is still inside its first
// send must find the ack expectation already registered. The send hook
// delivers the ack synchronously inside send (and swallows the replica's
// own later ack), so with the expectation registered after the broadcast
// the delivered publish is refused at OpTimeout instead of acknowledged.
func TestReplicaAckBeforeBroadcastReturns(t *testing.T) {
	const topic = "ack-race"
	var coordinator atomic.Pointer[Node]
	tc := newTestClusterOn(t, 3, func(from, to string, m *protocol.Message) bool {
		c := coordinator.Load()
		switch {
		case c == nil:
		case m.Kind == protocol.KindReplicate && from == c.id:
			c.handleReplicateAck(&protocol.Message{
				Kind: protocol.KindReplicateAck, ClientID: to,
				Topic: m.Topic, ID: m.ID, Epoch: m.Epoch, Seq: m.Seq, Group: m.Group,
			})
		case m.Kind == protocol.KindReplicateAck && to == c.id:
			return true // already delivered, synchronously, above
		}
		return false
	})

	// Elect the topic's coordinator, then publish from one of ITS clients:
	// the local-publisher path is the one that waits on pendingAck.
	attachTo(t, tc.nodes[0]).publishReliable(topic, []byte("elect"))
	g := int32(tc.nodes[0].Engine().Cache().GroupOf(topic))
	var owner *Node
	for _, n := range tc.nodes {
		n.mu.Lock()
		if _, mine := n.coordinated[g]; mine {
			owner = n
		}
		n.mu.Unlock()
	}
	if owner == nil {
		t.Fatal("no coordinator after the first acknowledged publish")
	}
	pub := attachTo(t, owner)
	coordinator.Store(owner)
	defer coordinator.Store(nil)

	if err := pub.send(&protocol.Message{
		Kind: protocol.KindPublish, Topic: topic, ID: "raced",
		Payload: []byte("x"), Flags: protocol.FlagAckRequired,
	}); err != nil {
		t.Fatal(err)
	}
	ack := pub.expectKind(protocol.KindPubAck, 5*time.Second)
	if ack.ID != "raced" || ack.Status != protocol.StatusOK {
		t.Fatalf("publish replicated and acked by a replica was answered %+v, want StatusOK", ack)
	}
}
