// Package cluster implements MigratoryData's horizontal scaling and
// reliability layer (paper §5): subscriber partitioning with publication
// broadcast, a coordinator/sequencer per topic group elected through the
// coordination service, lazily-maintained gossip maps, replication with
// acknowledgement after two copies, coordinator takeover with epoch
// increments, partition self-fencing, and cache reconstruction.
//
// On top of the paper's protocol, replication is interest-aware: members
// gossip per-topic-group interest digests derived from their subscription
// indexes, and a coordinator ships full payloads only to members with
// subscribers in the topic's group (plus what the replication degree
// requires), downgrading the rest to metadata-only frames. Members whose
// payloads were suppressed repair their caches through buffered catch-ups
// when interest returns — see interest.go and docs/ARCHITECTURE.md.
package cluster

import (
	"sync"

	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
)

// PeerFrame is one cluster-internal message together with its sender.
type PeerFrame struct {
	From string
	Msg  *protocol.Message

	// run, when non-nil, is a node-local control event: the dispatcher
	// executes it instead of handling a message. Never sent over the bus —
	// nodes push it into their own inbox to serialize work (e.g. the
	// completion of an interest resync) with peer-frame processing.
	run func()
}

// Bus is the in-process server↔server transport. Like the paper's cluster
// links it delivers messages in per-sender FIFO order and can simulate the
// fault model: crash (Unregister) and single-server partition
// (SetPartitioned). Message payloads are shared, never copied — handlers
// treat them as read-only.
type Bus struct {
	mu       sync.Mutex
	inboxes  map[string]*queue.MPSC[PeerFrame]
	isolated map[string]bool

	// sendHook, when set (tests, before any member registers), sees every
	// deliverable frame inside Send and reports whether it consumed it.
	sendHook func(from, to string, m *protocol.Message) bool
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{
		inboxes:  make(map[string]*queue.MPSC[PeerFrame]),
		isolated: make(map[string]bool),
	}
}

// Register attaches a member's inbox.
func (b *Bus) Register(id string, inbox *queue.MPSC[PeerFrame]) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inboxes[id] = inbox
}

// Unregister detaches a member (crash-stop).
func (b *Bus) Unregister(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.inboxes, id)
}

// SetPartitioned isolates or reconnects a member: traffic from or to an
// isolated member is dropped while it keeps running — the paper's "network
// partition of one server from other servers (but not necessarily from its
// connected clients)".
func (b *Bus) SetPartitioned(id string, partitioned bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.isolated[id] = partitioned
}

// Send delivers m from one member to another. It reports whether the
// message was handed to a live, reachable inbox.
func (b *Bus) Send(from, to string, m *protocol.Message) bool {
	b.mu.Lock()
	inbox := b.inboxes[to]
	blocked := b.isolated[from] || b.isolated[to]
	b.mu.Unlock()
	if inbox == nil || blocked {
		return false
	}
	if b.sendHook != nil && b.sendHook(from, to, m) {
		return true
	}
	inbox.Push(PeerFrame{From: from, Msg: m})
	return true
}

// Members lists currently registered member IDs.
func (b *Bus) Members() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.inboxes))
	for id := range b.inboxes {
		out = append(out, id)
	}
	return out
}
