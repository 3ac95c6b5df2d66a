package cluster

import (
	"fmt"
	"testing"
	"time"

	"migratorydata/internal/protocol"
)

// totalSuppressed sums the metadata-only replication downgrades across the
// cluster.
func totalSuppressed(tc *testCluster) int64 {
	var total int64
	for _, n := range tc.nodes {
		total += n.Stats().PayloadsSuppressed
	}
	return total
}

// publishUntilSuppressed publishes to topic until the interest digests have
// demonstrably propagated (some coordinator downgraded a replica to
// metadata-only). It returns the number of messages published.
func publishUntilSuppressed(t *testing.T, tc *testCluster, pub *clusterPeer, topic string) int {
	t.Helper()
	total := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		pub.publishReliable(topic, []byte(fmt.Sprintf("probe-%d", total)))
		total++
		if totalSuppressed(tc) > 0 {
			return total
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("interest digests never propagated: no payload was ever suppressed")
	return 0
}

// TestInterestSuppressedBacklogRecoveredOnSubscribe is the issue's
// convergence bar: with no subscribers anywhere, payload replication to one
// member is suppressed to metadata-only frames, leaving that member's cache
// a stale prefix — and a subscriber that then attaches THERE with a resume
// position must still receive the entire backlog, pulled from the
// coordinator's cache by the digest-triggered resync.
func TestInterestSuppressedBacklogRecoveredOnSubscribe(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	const topic = "backlog-topic"

	total := publishUntilSuppressed(t, tc, pub, topic)
	// Suppression is live: these payloads bypass the uninterested member.
	for i := 0; i < 5; i++ {
		pub.publishReliable(topic, []byte(fmt.Sprintf("hidden-%d", i)))
		total++
	}

	// Exactly the payload-tier members converge; the suppressed one stays a
	// strict prefix.
	staleIdx := -1
	waitCond(t, 3*time.Second, func() bool {
		stale, full := 0, 0
		for i, n := range tc.nodes {
			switch got := len(history(n, topic)); {
			case got == total:
				full++
			default:
				stale++
				staleIdx = i
			}
		}
		return full == 2 && stale == 1
	})
	if got := len(history(tc.nodes[staleIdx], topic)); got >= total {
		t.Fatalf("stale member holds %d of %d entries; suppression did not bite", got, total)
	}

	// Subscribe on the stale member with a from-the-beginning resume
	// position: replay serves the cached prefix, the interest transition
	// triggers the catch-up, and the recovered backlog is fanned out — the
	// subscriber sees every message, in order, ending with the last hidden
	// payload.
	sub := attachTo(t, tc.nodes[staleIdx])
	sub.subscribe(protocol.TopicPosition{Topic: topic, Epoch: 1, Seq: 0})
	var lastPayload string
	var lastEpoch uint32
	var lastSeq uint64
	for i := 0; i < total; i++ {
		m := sub.expectKind(protocol.KindNotify, 5*time.Second)
		if m.Epoch < lastEpoch || (m.Epoch == lastEpoch && m.Seq <= lastSeq) {
			t.Fatalf("notification %d out of order: (%d,%d) after (%d,%d)",
				i, m.Epoch, m.Seq, lastEpoch, lastSeq)
		}
		lastEpoch, lastSeq, lastPayload = m.Epoch, m.Seq, string(m.Payload)
	}
	if lastPayload != "hidden-4" {
		t.Fatalf("backlog replay ends with %q, want hidden-4", lastPayload)
	}

	// The member is whole again: its cache converged to the full history.
	waitCond(t, 2*time.Second, func() bool {
		return len(history(tc.nodes[staleIdx], topic)) == total
	})
}

// TestInterestUnsubscribeStopsPayloads verifies the reverse transition: a
// member whose last subscriber leaves stops receiving payload replicas
// within one gossip round — the coordinator downgrades it to the
// metadata-only tier and its delivery counters freeze.
func TestInterestUnsubscribeStopsPayloads(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])

	// Pick a topic whose coordinator is NOT the subscribing member (node 2)
	// so that, once node 2 is uninterested, the quorum top-up (first peer
	// in fixed order: node 0 or node 1) never selects it.
	var topic string
	var g int32
	for i := 0; ; i++ {
		topic = fmt.Sprintf("quiet-%d", i)
		pub.publishReliable(topic, []byte("seed"))
		g = int32(tc.nodes[0].Engine().Cache().GroupOf(topic))
		onNode2 := false
		for _, owned := range tc.nodes[2].CoordinatedGroups() {
			if owned == g {
				onNode2 = true
			}
		}
		if !onNode2 {
			break
		}
		if i > 50 {
			t.Fatal("every probe group landed on node 2")
		}
	}

	sub := attachTo(t, tc.nodes[2])
	sub.subscribe(protocol.TopicPosition{Topic: topic})
	pub.publishReliable(topic, []byte("while-subscribed"))
	// The subscription-triggered catch-up may replay the pre-subscription
	// backlog ("seed") before the live message arrives.
	for {
		m := sub.expectKind(protocol.KindNotify, 3*time.Second)
		if string(m.Payload) == "while-subscribed" {
			break
		}
	}

	// Unsubscribe; the interest delta gossips immediately. Publish until
	// the coordinator demonstrably suppresses (covers the in-flight race
	// between the delta and the next forward).
	sub.send(&protocol.Message{Kind: protocol.KindUnsubscribe,
		Topics: []protocol.TopicPosition{{Topic: topic}}})
	before := totalSuppressed(tc)
	deadline := time.Now().Add(5 * time.Second)
	for totalSuppressed(tc) == before {
		if time.Now().After(deadline) {
			t.Fatal("no suppression within one gossip round of the unsubscribe")
		}
		pub.publishReliable(topic, []byte("post-unsub"))
		time.Sleep(10 * time.Millisecond)
	}

	// From here on node 2 receives no payloads and enqueues no deliveries.
	cacheLen := len(history(tc.nodes[2], topic))
	deliveries := tc.nodes[2].Stats().LocalDeliveries
	suppressedBefore := totalSuppressed(tc)
	const extra = 3
	for i := 0; i < extra; i++ {
		pub.publishReliable(topic, []byte(fmt.Sprintf("suppressed-%d", i)))
	}
	if got := totalSuppressed(tc); got < suppressedBefore+extra {
		t.Fatalf("suppressed = %d, want >= %d", got, suppressedBefore+extra)
	}
	if got := len(history(tc.nodes[2], topic)); got != cacheLen {
		t.Fatalf("unsubscribed member's cache grew from %d to %d entries", cacheLen, got)
	}
	if got := tc.nodes[2].Stats().LocalDeliveries; got != deliveries {
		t.Fatalf("unsubscribed member enqueued %d new deliveries", got-deliveries)
	}
}

// TestInterestStaleSuppressionRepairedByMeta covers the race the metadata
// tier exists to close: a publication suppressed because the coordinator's
// digest has not caught up with a brand-new subscription must still reach
// the subscriber — the metadata frame tells the member it was skipped, and
// it pulls the payload from the coordinator's cache.
func TestInterestStaleSuppressionRepairedByMeta(t *testing.T) {
	tc := newTestCluster(t, 3)
	pub := attachTo(t, tc.nodes[0])
	const topic = "race-topic"

	total := publishUntilSuppressed(t, tc, pub, topic)
	staleIdx := -1
	waitCond(t, 3*time.Second, func() bool {
		for i, n := range tc.nodes {
			if len(history(n, topic)) < total {
				staleIdx = i
				return true
			}
		}
		return false
	})

	// Subscribe on the suppressed member and immediately publish: whether
	// the coordinator has processed the interest delta yet or not, the
	// subscriber must receive the new message (directly, or repaired via
	// the metadata-triggered catch-up).
	sub := attachTo(t, tc.nodes[staleIdx])
	sub.subscribe(protocol.TopicPosition{Topic: topic})
	pub.publishReliable(topic, []byte("fresh"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := sub.expectKind(protocol.KindNotify, time.Until(deadline))
		if string(m.Payload) == "fresh" {
			return
		}
	}
}

// TestApplyReplicateStaleGroupSemantics pins the per-topic contiguity
// rules under a stale group flag: a frame extending a topic's own cached
// prefix applies without a resync even when other topics of the group have
// suppressed history, while the ambiguous empty-topic fast start (and any
// gap or epoch change) defers to the resync.
func TestApplyReplicateStaleGroupSemantics(t *testing.T) {
	tc := newTestCluster(t, 2)
	n := tc.nodes[0]
	frame := func(topic string, epoch uint32, seq uint64) *protocol.Message {
		return &protocol.Message{
			Kind: protocol.KindReplicate, ClientID: "node-1",
			Topic: topic, ID: fmt.Sprintf("%s-%d-%d", topic, epoch, seq),
			Payload: []byte("x"), Epoch: epoch, Seq: seq,
			Group: int32(n.engine.Cache().GroupOf(topic)),
		}
	}
	// apply derives the group locally, as the dispatcher paths do before
	// calling applyReplicate.
	apply := func(topic string, epoch uint32, seq uint64, stale bool) bool {
		return n.applyReplicate(int32(n.engine.Cache().GroupOf(topic)), "node-1",
			frame(topic, epoch, seq), stale)
	}
	// Seed topic history through the clean path.
	if !apply("t-hist", 1, 1, false) {
		t.Fatal("first message of a clean topic must apply")
	}
	// Stale group, existing topic, contiguous: applies.
	if !apply("t-hist", 1, 2, true) {
		t.Fatal("contiguous extension must apply even when the group is stale")
	}
	// Stale group, empty topic, seq 1: ambiguous — defer to resync.
	if apply("t-new", 1, 1, true) {
		t.Fatal("empty-topic fast start must defer to resync when the group is stale")
	}
	// Gap and epoch change defer regardless of staleness.
	if apply("t-hist", 1, 5, false) {
		t.Fatal("sequence gap must defer to resync")
	}
	if apply("t-hist", 2, 1, false) {
		t.Fatal("epoch change must defer to resync")
	}
	// Duplicates ack-and-drop without touching the cache.
	if !apply("t-hist", 1, 2, false) {
		t.Fatal("duplicate must be dropped as applied")
	}
	if got := len(history(n, "t-hist")); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
}

// TestInterestDigestDeltaOrdering unit-tests the digest state machine:
// deltas apply only in version order, a gap fails open until the next full
// digest repairs the view.
func TestInterestDigestDeltaOrdering(t *testing.T) {
	tc := newTestCluster(t, 2)
	n := tc.nodes[0]

	apply := func(ver uint64, g int32, on uint8) {
		n.handleInterest("peer-x", &protocol.Message{
			Kind: protocol.KindInterest, ClientID: "peer-x",
			Group: g, Status: on, Seq: ver,
		})
	}
	// Unknown peer fails open.
	if !n.peerWantsPayload("peer-x", 3) {
		t.Fatal("unknown peer must fail open")
	}
	apply(1, 3, 1)
	if !n.peerWantsPayload("peer-x", 3) || n.peerWantsPayload("peer-x", 4) {
		t.Fatal("in-order delta not applied")
	}
	apply(2, 3, 0)
	if n.peerWantsPayload("peer-x", 3) {
		t.Fatal("in-order clear not applied")
	}
	// Version gap: the view is invalid and fails open everywhere.
	apply(9, 5, 1)
	if !n.peerWantsPayload("peer-x", 3) || !n.peerWantsPayload("peer-x", 4) {
		t.Fatal("gapped view must fail open")
	}
	// A full digest at or beyond the gap repairs the view.
	bits := make([]uint64, len(n.interest.local))
	setBit(bits, 7, true)
	n.handleInterestDigest("peer-x", &protocol.Message{
		Kind: protocol.KindInterestDigest, ClientID: "peer-x",
		Seq: 9, Payload: bitmapBytes(bits),
	})
	if !n.peerWantsPayload("peer-x", 7) || n.peerWantsPayload("peer-x", 3) {
		t.Fatal("full digest did not repair the view")
	}
	// Stale digests cannot roll the view back.
	n.handleInterestDigest("peer-x", &protocol.Message{
		Kind: protocol.KindInterestDigest, ClientID: "peer-x",
		Seq: 4, Payload: bitmapBytes(make([]uint64, len(bits))),
	})
	if !n.peerWantsPayload("peer-x", 7) {
		t.Fatal("stale digest rolled the view back")
	}
	// An incarnation change (peer restarted; version counter reset) is not
	// "stale": the dead incarnation's view is discarded and the restart's
	// first delta applies from the implicit empty digest.
	n.handleInterest("peer-x", &protocol.Message{
		Kind: protocol.KindInterest, ClientID: "peer-x",
		Group: 2, Status: 1, Seq: 1, Epoch: 77,
	})
	if !n.peerWantsPayload("peer-x", 2) || n.peerWantsPayload("peer-x", 7) {
		t.Fatal("restart incarnation did not reset the peer view")
	}
	// Out-of-range group indices from a differently-configured (or buggy)
	// peer must be ignored, not panic the dispatcher, and must not disturb
	// the in-range view.
	n.handleInterest("peer-x", &protocol.Message{
		Kind: protocol.KindInterest, ClientID: "peer-x",
		Group: 100000, Status: 1, Seq: 2, Epoch: 77,
	})
	n.handleInterest("peer-x", &protocol.Message{
		Kind: protocol.KindInterest, ClientID: "peer-x",
		Group: -7, Status: 1, Seq: 3, Epoch: 77,
	})
	if !n.peerWantsPayload("peer-x", 2) {
		t.Fatal("out-of-range deltas disturbed the in-range view")
	}
}
