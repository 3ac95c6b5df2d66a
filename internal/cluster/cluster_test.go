package cluster

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/consensus"
	"migratorydata/internal/core"
	"migratorydata/internal/protocol"
	"migratorydata/internal/transport"
)

// testCluster wires n nodes over an in-process bus + mesh.
type testCluster struct {
	t     *testing.T
	bus   *Bus
	mesh  *consensus.Mesh
	nodes []*Node
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newTestClusterOn(t, n, NewBus())
}

// newTestClusterOn is newTestCluster over a caller-prepared bus (a send
// hook must be installed before the members start talking).
func newTestClusterOn(t *testing.T, n int, bus *Bus) *testCluster {
	t.Helper()
	mesh := consensus.NewMesh()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	tc := &testCluster{t: t, bus: bus, mesh: mesh}
	for i, id := range ids {
		node := NewNode(Config{
			ID: id, Peers: ids,
			Engine: core.Config{
				IoThreads: 2, Workers: 2, TopicGroups: 16, CacheCapacity: 256,
			},
			SessionTTL:        300 * time.Millisecond,
			OpTimeout:         2 * time.Second,
			TickEvery:         5 * time.Millisecond,
			PartitionGrace:    500 * time.Millisecond,
			CatchupTimeout:    2 * time.Second,
			InterestSyncEvery: 50 * time.Millisecond,
			Seed:              int64(i + 1),
		}, bus, mesh)
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

// history returns every entry n caches for topic, oldest first.
func history(n *Node, topic string) []cache.Entry {
	c := n.Engine().Cache()
	return c.SinceGroup(c.GroupOf(topic), topic, 0, 0, 0)
}

func (tc *testCluster) waitQuorum() {
	tc.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range tc.nodes {
			if n.Coord().IsLeader() {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	tc.t.Fatal("coordination service never elected a leader")
}

// crash fail-stops a node (bus unregister happens inside Stop).
func (tc *testCluster) crash(i int) {
	tc.mesh.Unregister(tc.nodes[i].ID())
	tc.nodes[i].Stop()
}

// clusterPeer is a raw-protocol client attached to one node's engine.
type clusterPeer struct {
	t    *testing.T
	conn interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
		Close() error
		SetReadDeadline(time.Time) error
	}
	dec protocol.StreamDecoder
	buf []byte
	seq int
	id  string
}

var peerCounter int

func attachTo(t *testing.T, n *Node) *clusterPeer {
	t.Helper()
	peerCounter++
	name := fmt.Sprintf("cpeer-%d", peerCounter)
	a, b, err := transport.NewPipe(
		transport.Addr{Net: "inproc", Address: name},
		transport.Addr{Net: "inproc", Address: n.ID()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Engine().Attach(core.NewRawFramed(b)); err != nil {
		t.Fatalf("attach: %v", err)
	}
	p := &clusterPeer{t: t, conn: a, buf: make([]byte, 16384), id: name}
	t.Cleanup(func() { a.Close() })
	return p
}

func (p *clusterPeer) send(m *protocol.Message) error {
	_, err := p.conn.Write(protocol.Encode(m))
	return err
}

func (p *clusterPeer) recv(timeout time.Duration) *protocol.Message {
	deadline := time.Now().Add(timeout)
	for {
		if m, err := p.dec.Next(); err != nil {
			return nil
		} else if m != nil {
			return m
		}
		p.conn.SetReadDeadline(deadline)
		n, err := p.conn.Read(p.buf)
		if n > 0 {
			p.dec.Feed(p.buf[:n])
			continue
		}
		if err != nil {
			return nil
		}
	}
}

func (p *clusterPeer) expectKind(kind protocol.Kind, timeout time.Duration) *protocol.Message {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m := p.recv(time.Until(deadline))
		if m == nil {
			break
		}
		if m.Kind == kind {
			return m
		}
	}
	p.t.Fatalf("no %v within %v", kind, timeout)
	return nil
}

func (p *clusterPeer) subscribe(topics ...protocol.TopicPosition) {
	p.t.Helper()
	if err := p.send(&protocol.Message{Kind: protocol.KindSubscribe, Topics: topics}); err != nil {
		p.t.Fatalf("subscribe: %v", err)
	}
	p.expectKind(protocol.KindSubAck, 2*time.Second)
}

// publishReliable publishes with ack required, republishing on failure as
// the paper's at-least-once protocol prescribes (§3: "otherwise, the
// publisher must re-send the publication").
func (p *clusterPeer) publishReliable(topic string, payload []byte) *protocol.Message {
	p.t.Helper()
	p.seq++
	id := fmt.Sprintf("%s:%d", p.id, p.seq)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		err := p.send(&protocol.Message{
			Kind: protocol.KindPublish, Topic: topic, ID: id,
			Payload: payload, Flags: protocol.FlagAckRequired,
			Timestamp: time.Now().UnixNano(),
		})
		if err != nil {
			p.t.Fatalf("publish write: %v", err)
		}
		ackDeadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(ackDeadline) {
			m := p.recv(time.Until(ackDeadline))
			if m == nil {
				break
			}
			if m.Kind == protocol.KindPubAck && m.ID == id {
				if m.Status == protocol.StatusOK {
					return m
				}
				break // failed: republish
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.t.Fatalf("publication %s never acknowledged", id)
	return nil
}

func TestClusterPublishAcrossNodes(t *testing.T) {
	tc := newTestCluster(t, 3)
	sub := attachTo(t, tc.nodes[0])
	sub.subscribe(protocol.TopicPosition{Topic: "scores"})

	pub := attachTo(t, tc.nodes[1])
	ack := pub.publishReliable("scores", []byte("goal"))
	if ack.Seq != 1 {
		t.Fatalf("first publication seq = %d", ack.Seq)
	}

	m := sub.expectKind(protocol.KindNotify, 3*time.Second)
	if m.Topic != "scores" || string(m.Payload) != "goal" || m.Seq != 1 {
		t.Fatalf("notify = %+v", m)
	}
}

func TestClusterTotalOrderAcrossNodes(t *testing.T) {
	tc := newTestCluster(t, 3)
	subs := []*clusterPeer{attachTo(t, tc.nodes[0]), attachTo(t, tc.nodes[1]), attachTo(t, tc.nodes[2])}
	for _, s := range subs {
		s.subscribe(protocol.TopicPosition{Topic: "t"})
	}
	pubs := []*clusterPeer{attachTo(t, tc.nodes[0]), attachTo(t, tc.nodes[2])}
	done := make(chan struct{}, len(pubs))
	const perPub = 10
	for _, p := range pubs {
		go func(p *clusterPeer) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perPub; i++ {
				p.publishReliable("t", []byte(fmt.Sprintf("from-%s-%d", p.id, i)))
			}
		}(p)
	}
	<-done
	<-done

	total := perPub * len(pubs)
	var orders [3][]string
	for si, s := range subs {
		seen := uint64(0)
		for len(orders[si]) < total {
			m := s.expectKind(protocol.KindNotify, 5*time.Second)
			if m.Seq <= seen {
				t.Fatalf("subscriber %d: seq went backwards (%d after %d)", si, m.Seq, seen)
			}
			seen = m.Seq
			orders[si] = append(orders[si], string(m.Payload))
		}
	}
	for i := 0; i < total; i++ {
		if orders[0][i] != orders[1][i] || orders[1][i] != orders[2][i] {
			t.Fatalf("delivery order diverges at %d: %q / %q / %q",
				i, orders[0][i], orders[1][i], orders[2][i])
		}
	}
}

func TestClusterGossipAvoidsReelection(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("topic-g", []byte("a"))

	// After the first publication the coordinator exists; publications from
	// other nodes must route via gossip without growing takeover counts.
	waitCond(t, 2*time.Second, func() bool {
		return totalTakeovers(tc) >= 1
	})
	before := totalTakeovers(tc)
	pub2 := attachTo(t, tc.nodes[1])
	pub2.publishReliable("topic-g", []byte("b"))
	pub3 := attachTo(t, tc.nodes[2])
	pub3.publishReliable("topic-g", []byte("c"))
	if after := totalTakeovers(tc); after != before {
		t.Fatalf("takeovers went %d -> %d; gossip map should have avoided elections", before, after)
	}
}

func totalTakeovers(tc *testCluster) int64 {
	var total int64
	for _, n := range tc.nodes {
		total += n.Stats().Takeovers
	}
	return total
}

func TestClusterAllCachesConverge(t *testing.T) {
	tc := newTestCluster(t, 3)
	// Subscribe on every member: interest-aware replication ships full
	// payloads only where subscribers (or the replication degree) require
	// them, so cache convergence across all members needs cluster-wide
	// interest.
	for _, n := range tc.nodes {
		sub := attachTo(t, n)
		sub.subscribe(protocol.TopicPosition{Topic: "conv"})
	}
	pub := attachTo(t, tc.nodes[1])
	const msgs = 10
	for i := 0; i < msgs; i++ {
		pub.publishReliable("conv", []byte(fmt.Sprintf("m%d", i)))
	}
	waitCond(t, 3*time.Second, func() bool {
		for _, n := range tc.nodes {
			if len(history(n, "conv")) != msgs {
				return false
			}
		}
		return true
	})
	// Entry-by-entry equality across all three caches.
	ref := history(tc.nodes[0], "conv")
	for ni := 1; ni < 3; ni++ {
		got := history(tc.nodes[ni], "conv")
		for i := range ref {
			if got[i].Epoch != ref[i].Epoch || got[i].Seq != ref[i].Seq || got[i].ID != ref[i].ID {
				t.Fatalf("node %d cache diverges at %d: %+v vs %+v", ni, i, got[i], ref[i])
			}
		}
	}
}

func TestClusterCoordinatorFailover(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	ack := pub.publishReliable("failover-topic", []byte("before"))
	epochBefore := ack.Epoch

	// Find and crash the coordinator of the topic's group.
	g := int32(tc.nodes[0].Engine().Cache().GroupOf("failover-topic"))
	coordIdx := -1
	for i, n := range tc.nodes {
		for _, owned := range n.CoordinatedGroups() {
			if owned == g {
				coordIdx = i
			}
		}
	}
	if coordIdx < 0 {
		t.Fatal("no node claims the group")
	}
	// The publisher must be attached to a survivor.
	pubNode := (coordIdx + 1) % 3
	pub2 := attachTo(t, tc.nodes[pubNode])
	tc.crash(coordIdx)

	ack2 := pub2.publishReliable("failover-topic", []byte("after"))
	if ack2.Epoch <= epochBefore {
		t.Fatalf("epoch after takeover = %d, want > %d", ack2.Epoch, epochBefore)
	}

	// A subscriber resuming from before the failure must see both
	// messages, in order, across the epoch change.
	subNode := (coordIdx + 2) % 3
	sub := attachTo(t, tc.nodes[subNode])
	sub.subscribe(protocol.TopicPosition{Topic: "failover-topic", Epoch: 1, Seq: 0})
	m1 := sub.expectKind(protocol.KindNotify, 3*time.Second)
	m2 := sub.expectKind(protocol.KindNotify, 3*time.Second)
	if string(m1.Payload) != "before" || string(m2.Payload) != "after" {
		t.Fatalf("replay = %q, %q; want before, after", m1.Payload, m2.Payload)
	}
	if !(m2.Epoch > m1.Epoch) {
		t.Fatalf("epochs not increasing: %d then %d", m1.Epoch, m2.Epoch)
	}
}

func TestClusterSubscriberFailoverNoMessageLoss(t *testing.T) {
	// The Table-2 scenario in miniature: clients of a failed server
	// reconnect to survivors and recover everything from their caches.
	tc := newTestCluster(t, 3)
	sub := attachTo(t, tc.nodes[2])
	sub.subscribe(protocol.TopicPosition{Topic: "t2"})

	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("t2", []byte("m1"))
	m := sub.expectKind(protocol.KindNotify, 3*time.Second)
	lastEpoch, lastSeq := m.Epoch, m.Seq

	// Crash the subscriber's server; publish more while it is gone.
	tc.crash(2)
	pub.publishReliable("t2", []byte("m2"))
	pub.publishReliable("t2", []byte("m3"))

	// Reconnect to a survivor with the last position.
	sub2 := attachTo(t, tc.nodes[1])
	sub2.subscribe(protocol.TopicPosition{Topic: "t2", Epoch: lastEpoch, Seq: lastSeq})
	r1 := sub2.expectKind(protocol.KindNotify, 3*time.Second)
	r2 := sub2.expectKind(protocol.KindNotify, 3*time.Second)
	if string(r1.Payload) != "m2" || string(r2.Payload) != "m3" {
		t.Fatalf("recovered %q, %q; want m2, m3 (no loss, no duplicates)", r1.Payload, r2.Payload)
	}
}

func TestClusterPartitionFencing(t *testing.T) {
	tc := newTestCluster(t, 3)
	victim := tc.nodes[2]
	client := attachTo(t, victim)
	client.subscribe(protocol.TopicPosition{Topic: "x"})
	waitCond(t, time.Second, func() bool { return victim.Engine().NumClients() == 1 })

	// Partition the victim from both the bus and the coordination mesh.
	tc.bus.SetPartitioned(victim.ID(), true)
	tc.mesh.SetPartitioned(victim.ID(), true)

	// Within the grace period the victim must fence and close its clients.
	waitCond(t, 5*time.Second, func() bool { return victim.Fenced() })
	waitCond(t, 2*time.Second, func() bool { return victim.Engine().NumClients() == 0 })

	// The majority side keeps serving.
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("x", []byte("still-alive"))
}

func TestClusterPartitionHealRecoversCache(t *testing.T) {
	tc := newTestCluster(t, 3)
	victim := tc.nodes[2]
	tc.bus.SetPartitioned(victim.ID(), true)
	tc.mesh.SetPartitioned(victim.ID(), true)
	waitCond(t, 5*time.Second, func() bool { return victim.Fenced() })

	// Publish while the victim is cut off.
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("heal-topic", []byte("missed-1"))
	pub.publishReliable("heal-topic", []byte("missed-2"))
	if got := len(history(victim, "heal-topic")); got != 0 {
		t.Fatalf("victim cache has %d entries while partitioned", got)
	}

	// Heal; the victim must reconstruct its cache from peers.
	tc.bus.SetPartitioned(victim.ID(), false)
	tc.mesh.SetPartitioned(victim.ID(), false)
	waitCond(t, 10*time.Second, func() bool {
		return !victim.Fenced() &&
			len(history(victim, "heal-topic")) == 2
	})
}

func TestClusterCrashRestartRecover(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("restart-topic", []byte("a"))
	pub.publishReliable("restart-topic", []byte("b"))

	// The positive acks above prove the replication degree was reached: the
	// coordinator plus at least one of node-0/node-1 hold every message, so
	// the union of their caches is the full history even when the interest
	// tier suppressed payloads elsewhere.
	// (A real restart builds a fresh Node; here we exercise Recover's
	// pull-from-all-peers path directly on an empty-cache stand-in.)
	fresh := NewNode(Config{
		ID: "node-fresh", Peers: []string{"node-0", "node-1", "node-fresh"},
		Engine:         core.Config{IoThreads: 1, Workers: 1, TopicGroups: 16, CacheCapacity: 256},
		SessionTTL:     300 * time.Millisecond,
		OpTimeout:      time.Second,
		TickEvery:      5 * time.Millisecond,
		CatchupTimeout: 2 * time.Second,
	}, tc.bus, tc.mesh)
	defer fresh.Stop()
	fresh.Recover()
	got := history(fresh, "restart-topic")
	if len(got) != 2 || string(got[0].Payload) != "a" || string(got[1].Payload) != "b" {
		t.Fatalf("recovered cache = %v", got)
	}
}

func TestClusterPublishUnreachableCoordinatorRetries(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	pub.publishReliable("retry-topic", []byte("first"))

	g := int32(tc.nodes[0].Engine().Cache().GroupOf("retry-topic"))
	coordIdx := -1
	for i, n := range tc.nodes {
		for _, owned := range n.CoordinatedGroups() {
			if owned == g {
				coordIdx = i
			}
		}
	}
	if coordIdx == 0 {
		// Publisher's own node coordinates; crash it and use another node.
		t.Skip("coordinator landed on the contact node; covered by TestClusterCoordinatorFailover")
	}
	tc.crash(coordIdx)
	// Publish again through stale gossip: must converge via nack+republish.
	ack := pub.publishReliable("retry-topic", []byte("second"))
	if ack.Status != protocol.StatusOK {
		t.Fatalf("ack = %+v", ack)
	}
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
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

// Guard against unused imports in partial builds.
var _ = errors.Is
var _ = os.ErrDeadlineExceeded

// TestLocalDeliveriesCountsOnlySubscriberNodes: with subscription-aware
// routing, the replication fan-out enqueues deliver events only on members
// that actually host subscribers for the topic; members that merely store
// the replica report zero LocalDeliveries.
func TestLocalDeliveriesCountsOnlySubscriberNodes(t *testing.T) {
	tc := newTestCluster(t, 3)
	sub := attachTo(t, tc.nodes[0])
	sub.subscribe(protocol.TopicPosition{Topic: "ld-topic"})

	pub := attachTo(t, tc.nodes[1])
	pub.publishReliable("ld-topic", []byte("x"))
	sub.expectKind(protocol.KindNotify, 3*time.Second)

	if got := tc.nodes[0].Stats().LocalDeliveries; got == 0 {
		t.Fatal("subscriber's node reports zero LocalDeliveries")
	}
	// Node 2 has neither the publisher nor a subscriber: once it has
	// demonstrably processed its replication frame — a payload-tier
	// replica landed in its cache, or a metadata-only frame marked the
	// group stale — it still must not have enqueued any deliver event.
	g := int32(tc.nodes[2].Engine().Cache().GroupOf("ld-topic"))
	waitCond(t, 2*time.Second, func() bool {
		if len(history(tc.nodes[2], "ld-topic")) == 1 {
			return true
		}
		tc.nodes[2].mu.Lock()
		_, stale := tc.nodes[2].unsynced[g]
		tc.nodes[2].mu.Unlock()
		return stale
	})
	if got := tc.nodes[2].Stats().LocalDeliveries; got != 0 {
		t.Fatalf("subscriber-less node reports %d LocalDeliveries, want 0", got)
	}
}
