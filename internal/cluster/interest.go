package cluster

import (
	"encoding/binary"
	"sync"
	"time"

	"migratorydata/internal/protocol"
)

// This file implements cluster-wide interest-aware delivery: each member
// derives a per-topic-group interest digest from its local subscription
// index, gossips digest deltas (and periodic full digests as anti-entropy)
// to its peers, and the coordinator uses the merged view to split the
// replication broadcast into two tiers — full payloads for members with
// subscribers in the group (plus enough uninterested members to preserve
// the replication degree) and metadata-only KindReplicateMeta frames for
// the rest. A member whose cache went stale while its payloads were
// suppressed repairs itself through a buffered per-group resync: incoming
// replication frames for the group are parked, the backlog is pulled from
// the coordinator's cache, and the parked frames are then applied in order,
// so subscribers never observe a gap.

// interestState tracks the local interest digest and the last digest
// received from each peer. Writers (local transitions, peer frames) take
// the write lock — deltas must reach the network in version order — while
// the replication hot path only ever reads (peerWantsPayload), so
// coordinators classifying tiers for different topic groups do not
// serialize on it.
type interestState struct {
	mu      sync.RWMutex
	version uint64   // bumped on every local delta
	local   []uint64 // bit g set iff some topic of group g has a local subscriber
	peers   map[string]*peerDigest
	// incarnation distinguishes this node's digest stream from the streams
	// of earlier processes with the same member ID: a restart resets the
	// version counter, and peers must not compare versions across
	// incarnations. Carried in the Epoch field of interest frames.
	incarnation uint32
}

// peerDigest is one peer's last known interest digest. valid turns false
// when a delta arrives out of version order (the view may have a hole) and
// true again on the next full digest; an invalid digest fails open — the
// peer is treated as interested in everything.
type peerDigest struct {
	incarnation uint32
	version     uint64
	bits        []uint64
	valid       bool
}

// resyncState buffers the replication frames of one topic group while its
// backlog is being pulled from a peer's cache. stamp/wasStale capture the
// group's staleness mark at the moment the resync began: completion clears
// only that mark, so a concurrent re-mark (a fence on the background
// goroutine, a fresher metadata frame) survives, per the stamp contract on
// Node.unsynced.
type resyncState struct {
	frames   []PeerFrame
	stamp    uint64
	wasStale bool
}

func bitmapWords(groups int) int { return (groups + 63) / 64 }

// getBit / setBit bounds-check g: deltas carry a wire-supplied group index,
// and a peer built with a different TopicGroups setting (or a buggy one)
// must not be able to panic the dispatcher. Out-of-range bits read as
// uninterested and write as no-ops; suppression degrades, never crashes.
func getBit(bits []uint64, g int) bool {
	return g >= 0 && g>>6 < len(bits) && bits[g>>6]&(1<<(g&63)) != 0
}

func setBit(bits []uint64, g int, on bool) {
	if g < 0 || g>>6 >= len(bits) {
		return
	}
	if on {
		bits[g>>6] |= 1 << (g & 63)
	} else {
		bits[g>>6] &^= 1 << (g & 63)
	}
}

// bitmapBytes encodes a digest bitmap as little-endian uint64 words (the
// KindInterestDigest payload).
func bitmapBytes(bits []uint64) []byte {
	out := make([]byte, 8*len(bits))
	for i, w := range bits {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// bitmapFromBytes decodes a digest payload into words words, ignoring
// trailing bytes and zero-filling a short payload (tolerates a peer built
// with a different TopicGroups setting; suppression then simply degrades).
func bitmapFromBytes(payload []byte, words int) []uint64 {
	bits := make([]uint64, words)
	for i := 0; i < words && 8*i+8 <= len(payload); i++ {
		bits[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return bits
}

// onLocalInterestChange is the engine's interest hook: group g gained its
// first local subscriber or lost its last one. It runs on the worker
// goroutine that performed the transition. The current state is re-read
// under the digest lock, so reordered hook invocations converge on the
// engine's actual state.
func (n *Node) onLocalInterestChange(g int) {
	if n.stopped.Load() {
		return
	}
	x := &n.interest
	x.mu.Lock()
	cur := n.engine.GroupHasSubscribers(g)
	if getBit(x.local, g) == cur {
		x.mu.Unlock()
		return
	}
	setBit(x.local, g, cur)
	x.version++
	delta := &protocol.Message{
		Kind: protocol.KindInterest, ClientID: n.id,
		Group: int32(g), Seq: x.version, Epoch: x.incarnation,
	}
	if cur {
		delta.Status = 1
	}
	for _, peer := range n.cfg.Peers {
		if peer != n.id {
			n.send(peer, delta)
		}
	}
	x.mu.Unlock()

	if cur {
		// Newly interested: if payloads for this group were suppressed
		// while nobody subscribed here, the cache is a stale prefix of the
		// stream. Pull the backlog so resume-position subscribers recover
		// it (the issue's "digest resync must trigger a cache catch-up").
		n.mu.Lock()
		_, marked := n.unsynced[int32(g)]
		stale := marked && n.resyncing[int32(g)] == nil
		n.mu.Unlock()
		if stale {
			n.startResync(int32(g), "", nil)
		}
	}
}

// sendInterestDigest sends the full local digest to the given peers.
func (n *Node) sendInterestDigest(peers ...string) {
	x := &n.interest
	x.mu.Lock()
	m := &protocol.Message{
		Kind: protocol.KindInterestDigest, ClientID: n.id,
		Seq: x.version, Epoch: x.incarnation, Payload: bitmapBytes(x.local),
	}
	for _, peer := range peers {
		if peer != n.id {
			n.send(peer, m)
		}
	}
	x.mu.Unlock()
}

// broadcastInterestDigest sends the full local digest to every peer — the
// anti-entropy path that repairs views after joins, restarts, and missed
// deltas.
func (n *Node) broadcastInterestDigest() {
	n.sendInterestDigest(n.cfg.Peers...)
}

// handleInterest applies one interest delta from a peer. Deltas apply only
// in exact version order within one peer incarnation; a gap invalidates
// the view (failing open to payload replication) until the next full
// digest, and an incarnation change (the peer restarted and its version
// counter reset) discards the dead incarnation's view entirely.
func (n *Node) handleInterest(from string, m *protocol.Message) {
	x := &n.interest
	x.mu.Lock()
	defer x.mu.Unlock()
	pd := x.peers[from]
	if pd == nil || pd.incarnation != m.Epoch {
		// A (re)started peer's digest implicitly begins empty at version
		// 0, so its first delta (version 1) applies directly.
		pd = &peerDigest{
			incarnation: m.Epoch,
			bits:        make([]uint64, len(x.local)),
			valid:       true,
		}
		x.peers[from] = pd
	}
	switch {
	case m.Seq <= pd.version:
		// Stale or duplicate delta.
	case pd.valid && m.Seq == pd.version+1:
		setBit(pd.bits, int(m.Group), m.Status == 1)
		pd.version = m.Seq
	default:
		// Missed at least one delta: the view has a hole.
		pd.valid = false
		pd.version = m.Seq
	}
}

// handleInterestDigest replaces a peer's interest view with a full digest.
func (n *Node) handleInterestDigest(from string, m *protocol.Message) {
	x := &n.interest
	x.mu.Lock()
	defer x.mu.Unlock()
	pd := x.peers[from]
	if pd != nil && pd.incarnation == m.Epoch && m.Seq < pd.version {
		return // same incarnation, older than what the deltas already told us
	}
	x.peers[from] = &peerDigest{
		incarnation: m.Epoch,
		version:     m.Seq,
		bits:        bitmapFromBytes(m.Payload, len(x.local)),
		valid:       true,
	}
}

// peerWantsPayload reports whether peer should receive full payloads for
// group g. Unknown or invalid digests fail open: suppression is only ever
// applied on positive knowledge that the peer has no subscribers there.
func (n *Node) peerWantsPayload(peer string, g int32) bool {
	x := &n.interest
	x.mu.RLock()
	defer x.mu.RUnlock()
	pd := x.peers[peer]
	if pd == nil || !pd.valid {
		return true
	}
	return getBit(pd.bits, int(g))
}

// startResync begins (or joins) a buffered catch-up of group g. frame, when
// non-nil, is the replication frame that triggered the resync; it and every
// subsequent frame for the group are parked until the backlog has been
// pulled, then applied in order by finishResync on the dispatcher. from
// names the peer whose cache is known complete for the group (the
// coordinator that sent the trigger frame); when empty the gossip map's
// coordinator — or, failing that, every live peer — is used.
func (n *Node) startResync(g int32, from string, frame *PeerFrame) {
	n.mu.Lock()
	// The stopped check shares n.mu with Stop's pre-Wait barrier, so the
	// resyncWG.Add below can never race Stop's resyncWG.Wait from zero
	// (startResync may run on worker goroutines and retry timers, which
	// have no ordering against Stop).
	if n.stopped.Load() {
		n.mu.Unlock()
		return
	}
	if st := n.resyncing[g]; st != nil {
		if frame != nil {
			st.frames = append(st.frames, *frame)
		}
		n.mu.Unlock()
		return
	}
	st := &resyncState{}
	st.stamp, st.wasStale = n.unsynced[g]
	if frame != nil {
		st.frames = append(st.frames, *frame)
	}
	n.resyncing[g] = st
	n.resyncWG.Add(1)
	n.mu.Unlock()

	go func() {
		defer n.resyncWG.Done()
		peers := []string{from}
		if from == "" {
			n.mu.Lock()
			ge, known := n.gossip[g]
			n.mu.Unlock()
			if known {
				peers = []string{ge.Server}
			} else {
				peers = n.livePeers()
			}
		}
		// An empty peer list means no one is left to pull from: unlike the
		// single-member Recover case, a resync that recovered nothing must
		// not declare the group repaired.
		ok := len(peers) > 0 && n.catchupFrom(peers, g)
		n.inbox.Push(PeerFrame{run: func() { n.finishResync(g, ok) }})
	}()
}

// finishResync runs on the dispatcher once the catch-up completed (or timed
// out): it replays the parked replication frames in arrival order. The
// group becomes synced only if the catch-up succeeded and every parked
// frame extended the history contiguously; otherwise it stays stale and the
// next payload frame triggers a fresh resync.
func (n *Node) finishResync(g int32, ok bool) {
	n.mu.Lock()
	st := n.resyncing[g]
	delete(n.resyncing, g)
	if st == nil {
		n.mu.Unlock()
		return
	}
	if !ok {
		n.markStaleLocked(g)
		n.mu.Unlock()
		// The pull failed (peer unreachable, timeout, shutdown). Retrying
		// instantly could spin against a dead peer, but a subscribed
		// member must not sit stale forever either — no further interest
		// transition will fire (the group is already non-empty) and the
		// topic may never see another publication. Retry after a delay.
		n.scheduleResyncRetry(g)
		return
	}
	// Clear only the staleness the pull repaired: a mark set after the
	// resync began (partition fencing, a fresher metadata frame) carries a
	// different stamp and must survive.
	if st.wasStale && n.unsynced[g] == st.stamp {
		delete(n.unsynced, g)
	}
	n.mu.Unlock()

	for i := range st.frames {
		f := &st.frames[i]
		switch f.Msg.Kind {
		case protocol.KindReplicate:
			if !n.applyReplicate(g, f.From, f.Msg, false) {
				// Non-contiguous: a frame we were not sent falls between
				// the pulled backlog and this one. Stay stale; unapplied
				// frames are dropped (their acks are never sent, so the
				// publisher-side timeout paths retry as usual).
				n.abortResync(g, f.From)
				return
			}
		case protocol.KindReplicateMeta:
			if n.entryIsNews(g, f.Msg) {
				// A message suppressed past both the catch-up snapshot and
				// the payload tier: the group is still stale.
				n.abortResync(g, f.From)
				return
			}
		}
	}
}

// abortResync re-flags group g stale after a resync could not fully close
// the gap, and — when local subscribers are waiting on the group — starts
// the next repair round immediately from the peer that evidenced the gap,
// re-announcing the digest so the coordinator's view heals too. Without
// the restart a subscribed member could sit stale until the topic's next
// publication, which may never come. (The catch-up-failure path in
// finishResync deliberately does NOT restart: its peer was unreachable,
// and retrying instantly would spin; the next replication frame or
// interest transition retries instead.)
func (n *Node) abortResync(g int32, from string) {
	n.mu.Lock()
	n.markStaleLocked(g)
	n.mu.Unlock()
	if n.engine.GroupHasSubscribers(int(g)) {
		n.sendInterestDigest(from)
		n.startResync(g, from, nil)
	}
}

// entryIsNews reports whether the frame's (epoch, seq) is ordered after the
// newest cached entry of its topic — i.e. names a message this member does
// not hold. g is the topic's locally derived group (saves the re-hash).
func (n *Node) entryIsNews(g int32, m *protocol.Message) bool {
	epoch, seq, ok := n.engine.Cache().PositionGroup(int(g), m.Topic)
	if !ok {
		return true
	}
	if m.Epoch != epoch {
		return m.Epoch > epoch
	}
	return m.Seq > seq
}

// scheduleResyncRetry arms a one-shot delayed resync of group g, fired
// only if the group is still stale, no repair is in flight, and local
// subscribers are still waiting on it. One SessionTTL paces the retries so
// a dead catch-up source is not hammered.
func (n *Node) scheduleResyncRetry(g int32) {
	if n.stopped.Load() || !n.engine.GroupHasSubscribers(int(g)) {
		return
	}
	time.AfterFunc(n.cfg.SessionTTL, func() {
		if n.stopped.Load() {
			return
		}
		n.mu.Lock()
		_, stale := n.unsynced[g]
		idle := n.resyncing[g] == nil
		n.mu.Unlock()
		if stale && idle && n.engine.GroupHasSubscribers(int(g)) {
			n.startResync(g, "", nil)
		}
	})
}

// markStaleLocked flags group g's cache as a stale prefix, with a fresh
// generation stamp. Caller holds n.mu.
func (n *Node) markStaleLocked(g int32) {
	n.staleSeq++
	n.unsynced[g] = n.staleSeq
}

// markAllUnsynced flags every topic group stale (partition fencing: the
// member has provably missed replication traffic). Caller holds n.mu.
func (n *Node) markAllUnsynced() {
	for g := 0; g < n.engine.Cache().NumGroups(); g++ {
		n.markStaleLocked(int32(g))
	}
}
