// Package cache implements the MigratoryData history cache (paper §4): for
// each topic it keeps the recent messages needed for failure recovery, both
// for clients reconnecting after a temporary loss of connectivity and for
// servers reconstructing state after a crash or partition (§5.2.2).
//
// To scale vertically the cache avoids write contention by grouping topics
// into topic groups with a hash of their name; each group's data structures
// are locked independently. Because each cluster server coordinates (and
// thus replicates first) a distinct subset of topic groups, writes are
// generally un-contended.
//
// Two properties matter for the ingest hot path (see docs/ARCHITECTURE.md,
// "The ingest path"):
//
//   - Every per-topic method takes the topic-group index (GroupOf), so a
//     caller (the sequencer, the cluster replication paths) hashes the
//     topic once, and AppendNext sequences AND stores a publication under
//     a single group-lock acquisition. The
//     write-lock acquisitions of the append paths are counted per group
//     (MemStats.GroupLockAcquisitions) so tests can assert the
//     one-acquisition-per-publish invariant.
//
//   - Per-topic rings grow geometrically from a small initial capacity up
//     to the configured per-topic cap, so memory is proportional to the
//     history actually cached, not to topics × cap: at the paper's scale
//     (millions of users, most topics cold) an eagerly-allocated
//     1024-slot ring per topic would cost ~64 KB for a topic holding one
//     message.
package cache

import (
	"sync"
	"unsafe"

	"migratorydata/internal/hashing"
)

// DefaultTopicGroups matches the paper's "typical MigratoryData installation
// uses 100 topic groups".
const DefaultTopicGroups = 100

// DefaultPerTopicCapacity bounds the per-topic history ring.
const DefaultPerTopicCapacity = 1024

// initialRingCapacity is the ring size allocated for a topic's first
// message; rings double as they fill, up to the per-topic cap. Cold topics
// (the overwhelming majority at scale) therefore pay for 8 slots, not for
// the cap.
const initialRingCapacity = 8

// Entry is one cached message for a topic. Ordering within a topic is the
// lexicographic order of (Epoch, Seq): Seq is assigned by the topic-group
// coordinator and Epoch increments on coordinator change (§5.2.1).
type Entry struct {
	ID        string // publisher-assigned message identifier
	Epoch     uint32
	Seq       uint64
	Timestamp int64 // publisher send time (Unix nanoseconds)
	Payload   []byte
	Flags     uint8
}

// entrySize is the in-memory size of one ring slot, used by MemStats.
const entrySize = int64(unsafe.Sizeof(Entry{}))

// After reports whether e is ordered strictly after position (epoch, seq).
func (e Entry) After(epoch uint32, seq uint64) bool {
	if e.Epoch != epoch {
		return e.Epoch > epoch
	}
	return e.Seq > seq
}

// Cache is the sharded history cache. Construct with New.
type Cache struct {
	groups      []*group
	perTopicCap int
}

// group holds the topics of one topic group under a single lock. The
// counters and gauges are guarded by mu (taken for writing on every
// append), so the hot path pays no atomics and groups share no counter
// cache line; maintaining them incrementally keeps MemStats O(groups)
// rather than O(entries) — it must stay cheap enough for wait loops and
// per-second stats logs even with 100k cold topics cached.
type group struct {
	// The group lock is the per-publish serialization point (one write
	// acquisition per append, counted by writeLock); everything expensive
	// is forbidden under it.
	//vet:lockscope deny=encode,push,write,time,block
	mu     sync.RWMutex
	topics map[string]*ring

	appends      int64 // successful appends
	writeLock    int64 // write-lock acquisitions by the append paths
	entries      int   // live entries across the group's rings
	slots        int   // allocated ring slots across the group's rings
	payloadBytes int64 // bytes of live cached payloads
}

// ring is a bounded circular history for one topic. The backing array
// starts at initialRingCapacity and doubles as it fills, up to the cache's
// per-topic cap; once at cap the ring wraps, overwriting the oldest entry.
type ring struct {
	entries []Entry
	start   int // index of oldest entry
	length  int
}

// append stores e, growing the backing array geometrically up to maxCap.
func (r *ring) append(e Entry, maxCap int) {
	if r.length == len(r.entries) {
		if r.length < maxCap {
			newCap := r.length * 2
			if newCap > maxCap {
				newCap = maxCap
			}
			grown := make([]Entry, newCap)
			for i := 0; i < r.length; i++ {
				grown[i] = r.entries[(r.start+i)%len(r.entries)]
			}
			r.entries = grown
			r.start = 0
		} else {
			// At capacity: overwrite the oldest entry.
			r.entries[r.start] = e
			r.start = (r.start + 1) % len(r.entries)
			return
		}
	}
	r.entries[(r.start+r.length)%len(r.entries)] = e
	r.length++
}

// newest returns the most recent entry; the caller must know length > 0.
func (r *ring) newest() Entry {
	return r.entries[(r.start+r.length-1)%len(r.entries)]
}

// New returns a cache with numGroups topic groups and perTopicCap history
// entries per topic. Non-positive arguments select the defaults.
func New(numGroups, perTopicCap int) *Cache {
	if numGroups <= 0 {
		numGroups = DefaultTopicGroups
	}
	if perTopicCap <= 0 {
		perTopicCap = DefaultPerTopicCapacity
	}
	c := &Cache{
		groups:      make([]*group, numGroups),
		perTopicCap: perTopicCap,
	}
	for i := range c.groups {
		c.groups[i] = &group{topics: make(map[string]*ring)}
	}
	return c
}

// NumGroups reports the number of topic groups.
func (c *Cache) NumGroups() int { return len(c.groups) }

// GroupOf returns the topic group a topic belongs to.
func (c *Cache) GroupOf(topic string) int {
	return hashing.TopicGroup(topic, len(c.groups))
}

// groupAt returns the group for gid, falling back to hashing the topic when
// gid is out of range — a *Group caller must never be able to index past the
// shard array, even fed a wire-supplied group.
func (c *Cache) groupAt(gid int, topic string) *group {
	if gid < 0 || gid >= len(c.groups) {
		gid = c.GroupOf(topic)
	}
	return c.groups[gid]
}

// ringFor returns topic's ring, creating it at the initial capacity on
// first use. Caller holds g.mu for writing.
func (c *Cache) ringFor(g *group, topic string) *ring {
	r := g.topics[topic]
	if r == nil {
		cap := initialRingCapacity
		if cap > c.perTopicCap {
			cap = c.perTopicCap
		}
		r = &ring{entries: make([]Entry, cap)}
		g.topics[topic] = r
		g.slots += cap
	}
	return r
}

// push appends e to r, keeping g's incremental gauges in sync. Caller
// holds g.mu for writing.
func (c *Cache) push(g *group, r *ring, e Entry) {
	if r.length == len(r.entries) && r.length >= c.perTopicCap {
		// The ring is at capacity: the oldest entry is evicted.
		g.payloadBytes -= int64(len(r.entries[r.start].Payload))
	} else {
		g.entries++
	}
	slotsBefore := len(r.entries)
	r.append(e, c.perTopicCap)
	g.slots += len(r.entries) - slotsBefore
	g.payloadBytes += int64(len(e.Payload))
	g.appends++
}

// appendLocked stores e in topic's history if it is ordered strictly after
// the newest cached entry. Caller holds g.mu for writing.
func (c *Cache) appendLocked(g *group, topic string, e Entry) bool {
	r := c.ringFor(g, topic)
	if r.length > 0 {
		newest := r.newest()
		if !e.After(newest.Epoch, newest.Seq) {
			return false
		}
	}
	c.push(g, r, e)
	return true
}

// AppendGroup stores e in topic's history. It returns false (and stores nothing)
// if e is not ordered strictly after the newest cached entry — replication
// may legitimately deliver a message twice (§3 allows duplicates), and the
// cache keeps appends idempotent.
func (c *Cache) AppendGroup(gid int, topic string, e Entry) bool {
	g := c.groupAt(gid, topic)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writeLock++
	return c.appendLocked(g, topic, e)
}

// AppendNext sequences and stores the next message of topic under a single
// group-lock acquisition: it reads the topic's newest cached position and
// appends e with the successor (epoch, seq), returning the completed entry.
// e.Epoch proposes the epoch to sequence at (the sequencing authority's
// epoch — localEpoch on a single node, the coordinator's epoch in a
// cluster); e.Seq is ignored. The rules mirror the cluster sequencing
// protocol (§5.2.2):
//
//   - empty topic, or newest epoch older than e.Epoch (coordinator
//     takeover): the stream (re)starts at (e.Epoch, 1);
//   - newest epoch equal to e.Epoch: continues at seq+1;
//   - newest epoch NEWER than e.Epoch: the caller's sequencing authority is
//     stale — nothing is stored and ok is false.
//
// Before this existed, a publish paid three group-lock acquisitions
// (sequencer lock, Position, Append); AppendNext is the whole critical
// section, and MemStats.GroupLockAcquisitions lets tests assert the
// exactly-one-acquisition invariant.
//
//vet:hotpath
func (c *Cache) AppendNext(gid int, topic string, e Entry) (Entry, bool) {
	g := c.groupAt(gid, topic)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writeLock++
	r := c.ringFor(g, topic)
	if r.length == 0 {
		e.Seq = 1
	} else {
		newest := r.newest()
		switch {
		case newest.Epoch < e.Epoch:
			e.Seq = 1
		case newest.Epoch == e.Epoch:
			e.Seq = newest.Seq + 1
		default: // newest.Epoch > e.Epoch: stale sequencing authority
			return Entry{}, false
		}
	}
	c.push(g, r, e)
	return e, true
}

// RecoverGroup stores e during startup recovery (segment-log replay,
// internal/seglog). It enforces the same strictly-after ordering rule as
// AppendGroup — replayed records arrive in on-disk order, and duplicates
// or stale tails are rejected idempotently — but its lock acquisition is
// NOT counted in GroupLockAcquisitions: that counter is reserved for the
// publish paths, so the one-lock-per-publish invariant stays
// measurable on an engine that booted from a recovered data dir.
func (c *Cache) RecoverGroup(gid int, topic string, e Entry) bool {
	g := c.groupAt(gid, topic)
	g.mu.Lock()
	defer g.mu.Unlock()
	return c.appendLocked(g, topic, e)
}

// SinceGroup returns up to limit entries of topic ordered strictly after
// (epoch, seq), oldest first. limit <= 0 means no limit. The returned slice
// is freshly allocated; entries are shared (callers must not mutate
// payloads).
func (c *Cache) SinceGroup(gid int, topic string, epoch uint32, seq uint64, limit int) []Entry {
	return c.AppendSinceGroup(nil, gid, topic, epoch, seq, limit)
}

// AppendSinceGroup appends up to limit entries of topic ordered strictly
// after (epoch, seq) to dst, oldest first, and returns the extended slice —
// the allocation-free variant of SinceGroup for callers that replay history
// in a loop (subscribe replay, cluster catch-up): a reused buffer makes a
// reconnect storm cost zero allocations per client instead of one slice
// each. Entries are shared; callers must not mutate payloads.
func (c *Cache) AppendSinceGroup(dst []Entry, gid int, topic string, epoch uint32, seq uint64, limit int) []Entry {
	g := c.groupAt(gid, topic)
	g.mu.RLock()
	defer g.mu.RUnlock()
	r := g.topics[topic]
	if r == nil {
		return dst
	}
	taken := 0
	for i := 0; i < r.length; i++ {
		e := r.entries[(r.start+i)%len(r.entries)]
		if !e.After(epoch, seq) {
			continue
		}
		dst = append(dst, e)
		taken++
		if limit > 0 && taken == limit {
			break
		}
	}
	return dst
}

// LatestGroup returns the newest entry for topic.
func (c *Cache) LatestGroup(gid int, topic string) (Entry, bool) {
	g := c.groupAt(gid, topic)
	g.mu.RLock()
	defer g.mu.RUnlock()
	r := g.topics[topic]
	if r == nil || r.length == 0 {
		return Entry{}, false
	}
	return r.newest(), true
}

// PositionGroup returns the (epoch, seq) of the newest entry for topic, or
// ok == false if the topic has no history.
func (c *Cache) PositionGroup(gid int, topic string) (epoch uint32, seq uint64, ok bool) {
	e, ok := c.LatestGroup(gid, topic)
	if !ok {
		return 0, 0, false
	}
	return e.Epoch, e.Seq, true
}

// TopicsInGroup lists the topics currently cached in group gid.
func (c *Cache) TopicsInGroup(gid int) []string {
	if gid < 0 || gid >= len(c.groups) {
		return nil
	}
	g := c.groups[gid]
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.topics))
	for t := range g.topics {
		out = append(out, t)
	}
	return out
}

// Len reports the total number of cached entries across all topics.
func (c *Cache) Len() int {
	total := 0
	for _, g := range c.groups {
		g.mu.RLock()
		for _, r := range g.topics {
			total += r.length
		}
		g.mu.RUnlock()
	}
	return total
}

// MemStats is a point-in-time gauge of the cache's size and ingest
// activity. Harnesses report it so the memory-proportionality of the ring
// growth policy (and the one-lock-per-publish invariant) are measurable
// rather than asserted in prose.
type MemStats struct {
	// Topics and Entries count cached topics and live entries.
	Topics  int
	Entries int
	// Slots counts allocated ring slots across all topics. The growth
	// policy keeps Slots proportional to the cached history (within a 2×
	// rounding factor), where eager allocation would pin
	// topics × per-topic-cap slots regardless of use.
	Slots int
	// SlotBytes is the memory held by ring slot arrays (Slots × slot
	// size); PayloadBytes is the memory held by live cached payloads.
	SlotBytes    int64
	PayloadBytes int64
	// Appends counts successful appends since construction.
	Appends int64
	// GroupLockAcquisitions counts group write-lock acquisitions by the
	// append paths (AppendGroup/AppendNext). The ingest test
	// asserts its delta equals the publish count — the
	// one-group-lock-acquisition-per-publish invariant.
	GroupLockAcquisitions int64
}

// Bytes is the cache's total measured footprint: ring slots plus payloads.
func (m MemStats) Bytes() int64 { return m.SlotBytes + m.PayloadBytes }

// MemStats returns the cache's current gauge. The per-group values are
// maintained incrementally on the append path, so this is an O(groups)
// sweep of read locks — cheap enough for polling wait loops and stats
// logs regardless of how many topics or entries are cached.
func (c *Cache) MemStats() MemStats {
	var m MemStats
	for _, g := range c.groups {
		g.mu.RLock()
		m.Topics += len(g.topics)
		m.Entries += g.entries
		m.Slots += g.slots
		m.PayloadBytes += g.payloadBytes
		m.Appends += g.appends
		m.GroupLockAcquisitions += g.writeLock
		g.mu.RUnlock()
	}
	m.SlotBytes = int64(m.Slots) * entrySize
	return m
}

// EagerSlotBytes reports what the ring storage for `topics` topics would
// cost under eager per-topic-cap allocation — the pre-growth-policy
// baseline the memory tests compare against.
func (c *Cache) EagerSlotBytes(topics int) int64 {
	return int64(topics) * int64(c.perTopicCap) * entrySize
}
