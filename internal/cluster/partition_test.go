package cluster

import (
	"testing"
	"time"

	"migratorydata/internal/protocol"
)

// TestPartitionedCoordinatorGroupsTakenOver exercises the full §5.2
// partition story: the partitioned member WAS a coordinator; its ephemeral
// entries expire on the majority side, a survivor takes the groups over
// with a higher epoch, and publishing continues — while the partitioned
// member fences itself.
func TestPartitionedCoordinatorGroupsTakenOver(t *testing.T) {
	tc := newTestCluster(t, 3)

	// Make node 2 the coordinator of the topic's group by electing from it.
	victim := tc.nodes[2]
	pubV := attachTo(t, victim)
	// Retry until the victim owns the group (the random designate may pick
	// another node; republish with fresh topics until it lands).
	topic := ""
	for i := 0; i < 50 && topic == ""; i++ {
		candidate := "part-topic-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		pubV.publishReliable(candidate, []byte("seed"))
		g := int32(victim.Engine().Cache().GroupOf(candidate))
		for _, owned := range victim.CoordinatedGroups() {
			if owned == g {
				topic = candidate
			}
		}
	}
	if topic == "" {
		t.Skip("victim never won a coordinatorship in 50 tries (randomized)")
	}

	// Partition the victim from the other members.
	tc.net.SetPartitioned(victim.ID(), true)
	waitCond(t, 5*time.Second, func() bool { return victim.Fenced() })

	// A survivor-side publisher must succeed on the victim's old topic:
	// the group's entry expires, a survivor takes over with a higher
	// epoch, and the publication lands.
	pub := attachTo(t, tc.nodes[0])
	ack := pub.publishReliable(topic, []byte("after-partition"))
	if ack.Status != protocol.StatusOK {
		t.Fatalf("publish after partition failed: %+v", ack)
	}
	// The survivors' caches carry both messages, across epochs, in order.
	sub := attachTo(t, tc.nodes[1])
	sub.subscribe(protocol.TopicPosition{Topic: topic, Epoch: 1, Seq: 0})
	m1 := sub.expectKind(protocol.KindNotify, 3*time.Second)
	m2 := sub.expectKind(protocol.KindNotify, 3*time.Second)
	if string(m1.Payload) != "seed" || string(m2.Payload) != "after-partition" {
		t.Fatalf("replay = %q, %q", m1.Payload, m2.Payload)
	}
	if m2.Epoch <= m1.Epoch {
		t.Fatalf("takeover must bump the epoch: %d then %d", m1.Epoch, m2.Epoch)
	}

	// Heal: the victim recovers its cache, including the message published
	// while it was away, and unfences.
	tc.net.SetPartitioned(victim.ID(), false)
	waitCond(t, 10*time.Second, func() bool {
		if victim.Fenced() {
			return false
		}
		entries := history(victim, topic)
		return len(entries) == 2 && string(entries[1].Payload) == "after-partition"
	})
}

// TestFencedNodeRejectsPublications verifies a fenced member redirects
// publishers instead of accepting unguaranteeable publications.
func TestFencedNodeRejectsPublications(t *testing.T) {
	tc := newTestCluster(t, 3)
	victim := tc.nodes[2]
	tc.net.SetPartitioned(victim.ID(), true)
	waitCond(t, 5*time.Second, func() bool { return victim.Fenced() })

	// Attach directly post-fencing (a stubborn client reconnecting to the
	// fenced node) and publish with ack: expect a redirect status.
	peer := attachTo(t, victim)
	if err := peer.send(&protocol.Message{
		Kind: protocol.KindPublish, Topic: "fenced-topic", ID: "f1",
		Flags: protocol.FlagAckRequired,
	}); err != nil {
		t.Fatal(err)
	}
	ack := peer.expectKind(protocol.KindPubAck, 3*time.Second)
	if ack.Status != protocol.StatusRedirect {
		t.Fatalf("fenced node ack status = %d, want StatusRedirect", ack.Status)
	}
}
