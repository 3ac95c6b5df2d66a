package consensus

import (
	"sync"
	"time"

	"migratorydata/internal/queue"
)

// SendFunc delivers a message toward m.To. Implementations must not block
// indefinitely: the in-process mesh enqueues, and network transports must
// buffer or drop (Raft tolerates loss).
type SendFunc func(m Message)

// Runner drives a Node with real time and a transport: it owns the only
// goroutine touching the Node, turning Step/Tick outputs into SendFunc
// calls. Inbound messages arrive via Deliver from any goroutine.
type Runner struct {
	node *Node
	send SendFunc

	events   *queue.MPSC[Message]
	tickStop chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu sync.Mutex // guards reads of node state from other goroutines
}

// tickSentinel marks a tick event in the queue (Type 0 is unused).
var tickSentinel = Message{Type: 0}

// NewRunner wraps node. tickEvery is the real-time length of one logical
// tick (election timeout = ElectionTicks × tickEvery).
func NewRunner(node *Node, send SendFunc, tickEvery time.Duration) *Runner {
	r := &Runner{
		node:     node,
		send:     send,
		events:   queue.NewMPSC[Message](),
		tickStop: make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.loop()
	go r.tickLoop(tickEvery)
	return r
}

func (r *Runner) tickLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.tickStop:
			return
		case <-t.C:
			r.events.Push(tickSentinel)
		}
	}
}

func (r *Runner) loop() {
	defer close(r.done)
	for {
		batch, ok := r.events.PopWait()
		if !ok {
			return
		}
		for _, m := range batch {
			var out []Message
			r.mu.Lock()
			if m.Type == 0 {
				out = r.node.Tick()
			} else {
				out = r.node.Step(m)
			}
			r.mu.Unlock()
			for _, o := range out {
				r.send(o)
			}
		}
		r.events.Recycle(batch)
	}
}

// Deliver hands an inbound message to the node. Safe from any goroutine.
func (r *Runner) Deliver(m Message) { r.events.Push(m) }

// Propose submits a command: appended directly if this node leads,
// forwarded to the leader otherwise. The commit (if any) is observed via
// the node's apply callback. Returns ErrNoLeader when routing is impossible.
func (r *Runner) Propose(cmd []byte) error {
	r.mu.Lock()
	_, msgs, err := r.node.Propose(cmd)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range msgs {
		r.send(m)
	}
	return nil
}

// Leader reports the node's current leader view.
func (r *Runner) Leader() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Leader()
}

// State reports the node's current role.
func (r *Runner) State() StateKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.State()
}

// IsLeader reports whether this node currently leads.
func (r *Runner) IsLeader() bool { return r.State() == Leader }

// Stop terminates the runner's goroutines. Idempotent.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() {
		close(r.tickStop)
		r.events.Close()
	})
	<-r.done
}

// Mesh is the cluster's in-process network. A member has two endpoints,
// kept as separate FIFO lanes so that election traffic never queues behind
// data: its Runner (the consensus lane, reached by Send, which routes by
// Message.To) and an optional inbox of F frames (the data lane, reached by
// SendTo). One member table and one isolation map serve both lanes, so the
// paper's fault model (§5.2) is one call each: Unregister crash-stops a
// member and SetPartitioned cuts one off from the others. Frames are
// shared, never copied — receivers treat them as read-only.
type Mesh[F any] struct {
	mu       sync.Mutex
	members  map[string]meshMember[F]
	isolated map[string]bool
}

type meshMember[F any] struct {
	runner *Runner
	inbox  *queue.MPSC[F]
}

// NewMesh returns an empty network.
func NewMesh[F any]() *Mesh[F] {
	return &Mesh[F]{
		members:  make(map[string]meshMember[F]),
		isolated: make(map[string]bool),
	}
}

// Register attaches a member's endpoints. inbox may be nil for a member
// that only runs consensus.
func (m *Mesh[F]) Register(id string, r *Runner, inbox *queue.MPSC[F]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[id] = meshMember[F]{runner: r, inbox: inbox}
}

// Unregister detaches both of a member's endpoints (crash-stop).
func (m *Mesh[F]) Unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.members, id)
}

// SetPartitioned isolates (or reconnects) id: traffic on either lane from
// or to an isolated member is dropped while it keeps running — the paper's
// "network partition of one server from other servers (but not necessarily
// from its connected clients)".
func (m *Mesh[F]) SetPartitioned(id string, partitioned bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.isolated[id] = partitioned
}

// Members lists the registered member IDs.
func (m *Mesh[F]) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for id := range m.members {
		out = append(out, id)
	}
	return out
}

// Send implements SendFunc semantics on the consensus lane.
func (m *Mesh[F]) Send(msg Message) {
	m.mu.Lock()
	target := m.members[msg.To].runner
	dropped := m.isolated[msg.From] || m.isolated[msg.To]
	m.mu.Unlock()
	if target == nil || dropped {
		return
	}
	target.Deliver(msg)
}

// SendTo delivers f on the data lane. It reports whether f was handed to a
// registered, reachable inbox.
func (m *Mesh[F]) SendTo(from, to string, f F) bool {
	m.mu.Lock()
	inbox := m.members[to].inbox
	blocked := m.isolated[from] || m.isolated[to]
	m.mu.Unlock()
	if inbox == nil || blocked {
		return false
	}
	inbox.Push(f)
	return true
}
