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
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/consensus"
	"migratorydata/internal/coord"
	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
)

// PeerFrame is one cluster-internal message together with its sender.
type PeerFrame struct {
	From string
	Msg  *protocol.Message

	// run, when non-nil, is a node-local control event: the dispatcher
	// executes it instead of handling a message. Never sent over the
	// network — nodes push it into their own inbox to serialize work (e.g.
	// the completion of an interest resync) with peer-frame processing.
	run func()
}

// Network is the in-process server↔server network: per member, a data
// lane (replication, gossip, catch-up) of PeerFrames and the
// coordination service's consensus lane, each in per-sender FIFO order,
// under one fault model — crash (Unregister) and single-server partition
// (SetPartitioned).
type Network = consensus.Mesh[PeerFrame]

// NewNetwork returns an empty network.
func NewNetwork() *Network { return consensus.NewMesh[PeerFrame]() }

// Config parametrizes one cluster member.
type Config struct {
	// ID names this member; Peers lists every member (including this one).
	ID    string
	Peers []string
	// Engine configures the embedded single-node engine. ServerID and
	// Publish are overridden by the cluster layer.
	Engine core.Config
	// SessionTTL, OpTimeout, TickEvery tune the coordination service.
	SessionTTL time.Duration
	OpTimeout  time.Duration
	TickEvery  time.Duration
	// PartitionGrace is how long this member tolerates losing quorum
	// before it preventively closes its clients (§5.2.2). Default:
	// 2 × SessionTTL.
	PartitionGrace time.Duration
	// CatchupTimeout bounds cache-reconstruction waits. Default 3s.
	CatchupTimeout time.Duration
	// InterestSyncEvery is the anti-entropy period for the interest digest:
	// how often each member re-broadcasts its full per-topic-group interest
	// bitmap, repairing peer views after membership changes or missed
	// deltas. Default 1s.
	InterestSyncEvery time.Duration
	// AckCopies is the number of servers that must hold a publication
	// before its publisher is acknowledged. The paper's production value
	// is 2 (coordinator + one replica), tolerating one fault; §5.2 notes
	// the protocol extends to more concurrent faults "by increasing the
	// degree of replication before acknowledging clients" — set 3 to
	// tolerate two faults, etc. Every member must use the same value.
	AckCopies int
	// Seed fixes randomized choices (peer selection, elections).
	Seed int64
	// Logger receives debug events. Default: discard.
	Logger *slog.Logger

	// sendHook, when set (tests), sees every frame this member sends
	// before the network does and reports whether it consumed it.
	sendHook func(from, to string, m *protocol.Message) bool
}

// gossipEntry is one probabilistic coordinator mapping (§5.2.1).
type gossipEntry struct {
	Server string
	Epoch  uint32
}

// pendingPub tracks a publication awaiting its durability signal.
type pendingPub struct {
	client    *core.Client
	msgID     string
	added     time.Time
	remaining int    // replica acks still needed (coordinator side)
	contact   string // contact server to notify when remaining hits zero
	epoch     uint32
	seq       uint64
}

// catchupState tracks one in-flight cache reconstruction request.
type catchupState struct {
	done      chan struct{}
	remaining atomic.Int32
}

// tierBufs is one group's reusable peer-classification scratch for the
// replication tier split (see sequenceAndReplicate).
type tierBufs struct {
	payload, meta []string
}

// Node is one MigratoryData cluster member: an engine for its share of the
// subscribers, a coordination-service replica, and the replication logic.
type Node struct {
	cfg    Config
	id     string
	engine *core.Engine
	coords *coord.Service
	net    *Network
	logger *slog.Logger

	inbox *queue.MPSC[PeerFrame]

	mu          sync.Mutex
	coordinated map[int32]uint32 // groups this node sequences -> epoch
	gossip      map[int32]gossipEntry
	watched     map[int32]string // group -> owner we have a live watch on
	pendingFwd  map[string]*pendingPub
	pendingAck  map[string]*pendingPub
	catchups    map[string]*catchupState
	// unsynced flags groups whose cache is a stale prefix of the stream
	// (payloads were suppressed by interest routing, or a partition was
	// detected); resyncing holds the in-flight repairs with their parked
	// replication frames. Each mark carries a generation stamp (staleSeq)
	// so recovery paths that run off the dispatcher can clear exactly the
	// staleness they repaired — a re-mark during the repair changes the
	// stamp and survives the clear.
	unsynced  map[int32]uint64
	staleSeq  uint64
	resyncing map[int32]*resyncState

	// interest is the local digest and the per-peer views (interest.go).
	interest interestState

	groupLocks []sync.Mutex
	// tierScratch holds per-group reusable peer-classification buffers for
	// the replication tier split, guarded by the matching groupLocks entry
	// — the hot path allocates nothing for them.
	tierScratch []tierBufs

	rngMu sync.Mutex
	rng   *rand.Rand

	fenced  atomic.Bool
	stopped atomic.Bool
	bgStop  chan struct{}
	wg      sync.WaitGroup
	// resyncWG tracks interest-resync goroutines. Separate from wg because
	// their Add happens under n.mu together with a stopped check (see
	// startResync), which Stop's barrier pairs with; wg's count, by
	// contrast, only moves at construction time.
	resyncWG sync.WaitGroup

	stats nodeStats
}

// nodeStats counts cluster-layer events.
type nodeStats struct {
	forwarded  metrics.Counter
	replicated metrics.Counter
	takeovers  metrics.Counter
	fences     metrics.Counter
	// localDeliver counts the worker deliver events the sequencing and
	// replication paths enqueued on this member's engine — with
	// subscription-aware routing this is the member's real share of the
	// cluster-wide fan-out, not publications × workers.
	localDeliver metrics.Counter
	// payloads counts this member's coordinator-side replication tiering:
	// full payload replicas sent vs. replicas downgraded to metadata-only
	// frames because the peer had no subscriber in the topic's group.
	payloads metrics.PayloadCounters
}

// NewNode constructs a member and registers it on net: its inbox on the
// data lane, its coordination-service replica on the consensus lane. The
// returned node is live: its engine accepts attachments immediately.
func NewNode(cfg Config, net *Network) *Node {
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Second
	}
	if cfg.PartitionGrace <= 0 {
		cfg.PartitionGrace = 2 * cfg.SessionTTL
	}
	if cfg.CatchupTimeout <= 0 {
		cfg.CatchupTimeout = 3 * time.Second
	}
	if cfg.AckCopies <= 0 {
		cfg.AckCopies = 2
	}
	if cfg.InterestSyncEvery <= 0 {
		cfg.InterestSyncEvery = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n := &Node{
		cfg:         cfg,
		id:          cfg.ID,
		net:         net,
		logger:      cfg.Logger.With("node", cfg.ID),
		inbox:       queue.NewMPSC[PeerFrame](),
		coordinated: make(map[int32]uint32),
		gossip:      make(map[int32]gossipEntry),
		watched:     make(map[int32]string),
		pendingFwd:  make(map[string]*pendingPub),
		pendingAck:  make(map[string]*pendingPub),
		catchups:    make(map[string]*catchupState),
		unsynced:    make(map[int32]uint64),
		resyncing:   make(map[int32]*resyncState),
		rng:         rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		bgStop:      make(chan struct{}),
	}

	engCfg := cfg.Engine
	engCfg.ServerID = cfg.ID
	engCfg.Publish = n.handlePublish
	n.engine = core.New(engCfg)
	n.groupLocks = make([]sync.Mutex, n.engine.Cache().NumGroups())
	n.tierScratch = make([]tierBufs, n.engine.Cache().NumGroups())
	n.interest.local = make([]uint64, bitmapWords(n.engine.Cache().NumGroups()))
	n.interest.peers = make(map[string]*peerDigest)
	// The incarnation distinguishes this process's digest version stream
	// from earlier lives of the same member ID, so peers discard a dead
	// incarnation's view instead of rejecting the restart's low versions.
	n.interest.incarnation = uint32(time.Now().UnixNano())
	n.engine.SetInterestHook(n.onLocalInterestChange)

	n.coords = coord.New(coord.Config{
		ID: cfg.ID, Peers: cfg.Peers,
		SessionTTL: cfg.SessionTTL,
		OpTimeout:  cfg.OpTimeout,
		TickEvery:  cfg.TickEvery,
		Seed:       cfg.Seed,
	}, net.Send)
	net.Register(cfg.ID, n.coords.Runner(), n.inbox)

	n.wg.Add(2)
	go n.dispatchLoop()
	go n.background()
	return n
}

// Engine exposes the embedded engine (Serve/Attach/Stats).
func (n *Node) Engine() *core.Engine { return n.engine }

// Coord exposes the coordination-service replica.
func (n *Node) Coord() *coord.Service { return n.coords }

// ID returns the member name.
func (n *Node) ID() string { return n.id }

// Fenced reports whether the node has self-fenced due to a partition.
func (n *Node) Fenced() bool { return n.fenced.Load() }

// CoordinatedGroups returns the topic groups this member currently
// sequences.
func (n *Node) CoordinatedGroups() []int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int32, 0, len(n.coordinated))
	for g := range n.coordinated {
		out = append(out, g)
	}
	return out
}

// ClusterStats is a snapshot of cluster-layer counters.
type ClusterStats struct {
	Forwarded       int64
	Replicated      int64
	Takeovers       int64
	Fences          int64
	LocalDeliveries int64
	// PayloadsForwarded / PayloadsSuppressed count this member's
	// coordinator-side replication tiering: full-payload replicas sent to
	// peers vs. replicas downgraded to metadata-only frames because the
	// peer had no subscriber in the topic's group (interest-aware routing).
	PayloadsForwarded  int64
	PayloadsSuppressed int64
}

// Stats returns the cluster-layer counters.
func (n *Node) Stats() ClusterStats {
	return ClusterStats{
		Forwarded:          n.stats.forwarded.Value(),
		Replicated:         n.stats.replicated.Value(),
		Takeovers:          n.stats.takeovers.Value(),
		Fences:             n.stats.fences.Value(),
		LocalDeliveries:    n.stats.localDeliver.Value(),
		PayloadsForwarded:  n.stats.payloads.Forwarded.Value(),
		PayloadsSuppressed: n.stats.payloads.Suppressed.Value(),
	}
}

// dispatchLoop consumes peer messages. A single goroutine preserves
// per-sender FIFO order, which the replication path relies on.
func (n *Node) dispatchLoop() {
	defer n.wg.Done()
	for {
		frames, ok := n.inbox.PopWait()
		if !ok {
			return
		}
		for i := range frames {
			if frames[i].run != nil {
				frames[i].run()
				continue
			}
			n.handlePeer(frames[i].From, frames[i].Msg)
		}
		n.inbox.Recycle(frames)
	}
}

// background watches quorum health for partition self-fencing (§5.2.2: a
// partitioned member "figures this out by experiencing timeouts for its
// requests and the inability to write to its local ZooKeeper instance...
// preventively closes the connections to its local clients") and sweeps
// stale pending-publication state.
func (n *Node) background() {
	defer n.wg.Done()
	interval := n.cfg.SessionTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var quorumLostAt time.Time
	var lastDigestSync time.Time
	lastMembers := len(n.net.Members())
	for {
		select {
		case <-n.bgStop:
			return
		case <-t.C:
		}
		if n.coords.HasQuorum() {
			quorumLostAt = time.Time{}
			if n.fenced.Load() {
				n.recoverFromFence()
			}
		} else {
			if quorumLostAt.IsZero() {
				quorumLostAt = time.Now()
			} else if time.Since(quorumLostAt) > n.cfg.PartitionGrace && !n.fenced.Load() {
				n.fence()
			}
		}
		n.sweepPending()
		// Interest-digest anti-entropy: re-broadcast the full bitmap
		// periodically, and immediately when the membership changes (a
		// joining member starts with no view of us; fail-open at its end
		// lasts only until this broadcast lands).
		if members := len(n.net.Members()); members != lastMembers ||
			time.Since(lastDigestSync) >= n.cfg.InterestSyncEvery {
			lastMembers = members
			lastDigestSync = time.Now()
			n.broadcastInterestDigest()
		}
	}
}

// fence reacts to a detected partition: close local clients so they
// reconnect to reachable members, and drop coordinator roles (their
// ephemeral entries will expire on the majority side regardless).
func (n *Node) fence() {
	n.logger.Info("quorum lost, fencing: closing local clients")
	n.stats.fences.Inc()
	n.fenced.Store(true)
	n.mu.Lock()
	n.coordinated = make(map[int32]uint32)
	n.gossip = make(map[int32]gossipEntry)
	// Replication traffic is provably being missed: every group's cache is
	// now a stale prefix until Recover pulls the cluster history back.
	n.markAllUnsynced()
	n.mu.Unlock()
	n.engine.CloseAllClients()
}

// recoverFromFence runs the §5.2.2 recovery: reconstruct the cache from all
// members in parallel, then resume service.
func (n *Node) recoverFromFence() {
	n.logger.Info("quorum restored, reconstructing cache")
	n.Recover()
	n.fenced.Store(false)
}

// Recover reconstructs this member's history cache by asking every other
// member in parallel (crash restart and partition healing, §5.2.2). When
// every pull completes, the caches hold the union of the peers' histories
// and the staleness that predates the recovery is cleared; a group
// re-marked mid-recovery (a metadata frame arrived for a message published
// after its history was streamed) keeps its fresher stamp and stays
// flagged, as does everything after a partial recovery.
func (n *Node) Recover() {
	n.mu.Lock()
	before := make(map[int32]uint64, len(n.unsynced))
	for g, stamp := range n.unsynced {
		before[g] = stamp
	}
	n.mu.Unlock()

	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, peer := range n.cfg.Peers {
		if peer == n.id {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if !n.catchupFromPeer(peer, -1) {
				failed.Store(true)
			}
		}(peer)
	}
	wg.Wait()
	n.mu.Lock()
	if failed.Load() {
		n.markAllUnsynced()
	} else {
		for g, stamp := range before {
			if n.unsynced[g] == stamp {
				delete(n.unsynced, g)
			}
		}
	}
	n.mu.Unlock()
}

// sweepPending fails publications stuck waiting longer than the op timeout
// (their coordinator died mid-flight); the publisher will republish.
func (n *Node) sweepPending() {
	limit := n.cfg.OpTimeout
	if limit <= 0 {
		limit = 2 * time.Second
	}
	cutoff := time.Now().Add(-limit)
	n.mu.Lock()
	var expired []*pendingPub
	for key, p := range n.pendingFwd {
		if p.added.Before(cutoff) {
			expired = append(expired, p)
			delete(n.pendingFwd, key)
		}
	}
	for key, p := range n.pendingAck {
		if p.added.Before(cutoff) {
			expired = append(expired, p)
			delete(n.pendingAck, key)
		}
	}
	n.mu.Unlock()
	for _, p := range expired {
		n.nack(p.client, p.msgID)
	}
}

// nack tells a publisher its publication failed; it should republish.
func (n *Node) nack(c *core.Client, msgID string) {
	if c == nil {
		return
	}
	c.Send(&protocol.Message{
		Kind: protocol.KindPubAck, ID: msgID, Status: protocol.StatusFailed,
	})
}

// randomPeer picks a cluster member uniformly at random (possibly this
// one) — the §5.2.1 indirection that spreads coordinator roles.
func (n *Node) randomPeer() string {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.cfg.Peers[n.rng.Intn(len(n.cfg.Peers))]
}

// send hands m to member to on the data lane. It reports whether the frame
// reached a registered, reachable inbox.
func (n *Node) send(to string, m *protocol.Message) bool {
	if n.cfg.sendHook != nil && n.cfg.sendHook(n.id, to, m) {
		return true
	}
	return n.net.SendTo(n.id, to, PeerFrame{From: n.id, Msg: m})
}

// groupKey is the coordination-store key for a topic group's coordinator.
func groupKey(g int32) string { return fmt.Sprintf("groups/%d", g) }

// Stop crash-stops the member: it leaves the network, its engine closes and
// its coordination session is abandoned (its ephemeral entries will expire
// cluster-wide).
func (n *Node) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	close(n.bgStop)
	n.net.Unregister(n.id)
	n.engine.Close()
	n.coords.Stop()
	n.inbox.Close()
	n.wg.Wait()
	// Barrier: any startResync still in flight has, under n.mu, either
	// observed stopped (no Add) or completed its resyncWG.Add — so the
	// Wait below cannot race an Add from zero.
	n.mu.Lock()
	n.mu.Unlock()
	n.resyncWG.Wait()
}
