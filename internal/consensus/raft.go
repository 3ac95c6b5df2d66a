// Package consensus implements a compact Raft-style replicated log. It is
// the foundation of the ZooKeeper-equivalent coordination service
// (internal/coord) that MigratoryData deploys alongside each server (paper
// §5.2.1): linearizable writes go through the leader's log and commit on a
// majority; reads are served locally by each replica.
//
// The Node is a deterministic state machine driven entirely by Step (deliver
// a message) and Tick (advance logical time): it performs no I/O, holds no
// goroutines, and returns the messages to send. This makes the protocol
// directly unit-testable (elections, log repair, leadership transfer) with
// no clocks or network. The Runner in runner.go provides the conventional
// goroutine + ticker harness around it.
package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// StateKind is the Raft role of a node.
type StateKind uint8

// Raft roles.
const (
	Follower StateKind = iota
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (s StateKind) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol messages.
const (
	MsgVoteRequest MsgType = iota + 1
	MsgVoteResponse
	MsgAppend
	MsgAppendResponse
	// MsgPropose forwards a command from a follower to the leader, the
	// same way ZooKeeper followers forward writes.
	MsgPropose
)

// Entry is one replicated log record.
type Entry struct {
	Term  uint64
	Index uint64
	Cmd   []byte
}

// Message is a protocol message between nodes.
type Message struct {
	Type MsgType
	From string
	To   string
	Term uint64

	// Vote requests.
	LastLogIndex uint64
	LastLogTerm  uint64

	// Append (replication + heartbeat).
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	Commit       uint64

	// Responses.
	Granted    bool
	Success    bool
	MatchIndex uint64

	// Forwarded proposal payload.
	Cmd []byte
}

// Proposal errors.
var (
	// ErrNoLeader means the proposal cannot be routed right now.
	ErrNoLeader = errors.New("consensus: no known leader")
)

// Config parametrizes a Node.
type Config struct {
	// ID is this node's name; Peers lists all cluster members (including
	// this node).
	ID    string
	Peers []string
	// ElectionTicks is the base election timeout in ticks (randomized to
	// [ElectionTicks, 2×ElectionTicks) per term). Default 10.
	ElectionTicks int
	// HeartbeatTicks is the leader heartbeat interval in ticks. Default 2.
	HeartbeatTicks int
	// Seed fixes the election randomization (tests).
	Seed int64
}

// Node is a single Raft participant. Not safe for concurrent use: callers
// (the Runner) serialize Step/Tick/Propose.
type Node struct {
	id    string
	peers []string // excludes self
	cfg   Config

	state    StateKind
	term     uint64
	votedFor string
	leader   string

	log         []Entry // log[0] is a sentinel (term 0, index 0)
	commitIndex uint64
	applied     uint64
	applyFn     func(Entry)

	// candidate state
	votes map[string]bool

	// leader state
	nextIndex  map[string]uint64
	matchIndex map[string]uint64
	// recentActive tracks peers heard from since the last check-quorum
	// sweep; a leader cut off from the majority steps down so that
	// HasQuorum-style probes detect the partition (paper §5.2.2: a
	// partitioned server must notice "the inability to write to its local
	// ZooKeeper instance").
	recentActive  map[string]bool
	quorumElapsed int

	// timers (in ticks)
	electionElapsed  int
	electionDeadline int
	heartbeatElapsed int

	rng *rand.Rand
}

// NewNode constructs a follower with an empty log. apply is invoked for
// each committed entry, in order, from within Step/Tick.
func NewNode(cfg Config, apply func(Entry)) *Node {
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 10
	}
	if cfg.HeartbeatTicks <= 0 {
		cfg.HeartbeatTicks = 2
	}
	n := &Node{
		id:      cfg.ID,
		cfg:     cfg,
		log:     []Entry{{}},
		applyFn: apply,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.ID)))),
	}
	for _, p := range cfg.Peers {
		if p != cfg.ID {
			n.peers = append(n.peers, p)
		}
	}
	n.resetElectionDeadline()
	return n
}

// --- public accessors ---

// ID returns the node name.
func (n *Node) ID() string { return n.id }

// State returns the current role.
func (n *Node) State() StateKind { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the last known leader's ID ("" if unknown).
func (n *Node) Leader() string { return n.leader }

// LastIndex returns the last log index.
func (n *Node) LastIndex() uint64 { return n.log[len(n.log)-1].Index }

// quorum returns the majority size.
func (n *Node) quorum() int { return (len(n.peers)+1)/2 + 1 }

// --- driving ---

// Tick advances logical time by one unit and returns messages to send.
func (n *Node) Tick() []Message {
	var out []Message
	switch n.state {
	case Leader:
		n.heartbeatElapsed++
		if n.heartbeatElapsed >= n.cfg.HeartbeatTicks {
			n.heartbeatElapsed = 0
			out = append(out, n.broadcastAppend()...)
		}
		n.quorumElapsed++
		if n.quorumElapsed >= n.cfg.ElectionTicks {
			n.quorumElapsed = 0
			active := 1 // self
			for _, p := range n.peers {
				if n.recentActive[p] {
					active++
				}
			}
			n.recentActive = make(map[string]bool, len(n.peers))
			if active < n.quorum() {
				n.becomeFollower(n.term, "")
				return out
			}
		}
	default:
		n.electionElapsed++
		if n.electionElapsed >= n.electionDeadline {
			out = append(out, n.startElection()...)
		}
	}
	return out
}

// Propose appends cmd to the log if this node is the leader, or returns a
// MsgPropose to forward to the leader. The returned index is meaningful
// only when leading (err == nil and msgs may carry replication traffic).
func (n *Node) Propose(cmd []byte) (index uint64, msgs []Message, err error) {
	if n.state == Leader {
		e := Entry{Term: n.term, Index: n.LastIndex() + 1, Cmd: cmd}
		n.log = append(n.log, e)
		n.matchIndex[n.id] = e.Index
		// Single-node cluster commits immediately.
		msgs = append(msgs, n.broadcastAppend()...)
		n.maybeCommit()
		return e.Index, msgs, nil
	}
	if n.leader == "" {
		return 0, nil, ErrNoLeader
	}
	return 0, []Message{{Type: MsgPropose, From: n.id, To: n.leader, Term: n.term, Cmd: cmd}}, nil
}

// Step processes an incoming message and returns messages to send.
func (n *Node) Step(m Message) []Message {
	// Term handling (Raft §5.1): a newer term demotes us; an older term is
	// answered with our term (vote/append get explicit rejections).
	if m.Term > n.term {
		n.becomeFollower(m.Term, "")
	}
	switch m.Type {
	case MsgVoteRequest:
		return n.handleVoteRequest(m)
	case MsgVoteResponse:
		return n.handleVoteResponse(m)
	case MsgAppend:
		return n.handleAppend(m)
	case MsgAppendResponse:
		return n.handleAppendResponse(m)
	case MsgPropose:
		if n.state == Leader {
			_, msgs, _ := n.Propose(m.Cmd)
			return msgs
		}
		if n.leader != "" && n.leader != n.id {
			m.To = n.leader
			return []Message{m}
		}
		return nil
	default:
		return nil
	}
}

// --- role transitions ---

func (n *Node) becomeFollower(term uint64, leader string) {
	n.state = Follower
	n.term = term
	n.votedFor = ""
	n.leader = leader
	n.votes = nil
	n.resetElectionDeadline()
}

func (n *Node) startElection() []Message {
	n.state = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = ""
	n.votes = map[string]bool{n.id: true}
	n.resetElectionDeadline()
	if len(n.votes) >= n.quorum() {
		return n.becomeLeader()
	}
	last := n.log[len(n.log)-1]
	out := make([]Message, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, Message{
			Type: MsgVoteRequest, From: n.id, To: p, Term: n.term,
			LastLogIndex: last.Index, LastLogTerm: last.Term,
		})
	}
	return out
}

func (n *Node) becomeLeader() []Message {
	n.state = Leader
	n.leader = n.id
	n.heartbeatElapsed = 0
	n.nextIndex = make(map[string]uint64, len(n.peers))
	n.matchIndex = make(map[string]uint64, len(n.peers)+1)
	n.recentActive = make(map[string]bool, len(n.peers))
	n.quorumElapsed = 0
	for _, p := range n.peers {
		n.nextIndex[p] = n.LastIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = n.LastIndex()
	// Raft requires committing an entry from the new term before older
	// entries count as committed; the no-op also announces leadership.
	e := Entry{Term: n.term, Index: n.LastIndex() + 1}
	n.log = append(n.log, e)
	n.matchIndex[n.id] = e.Index
	msgs := n.broadcastAppend()
	n.maybeCommit()
	return msgs
}

func (n *Node) resetElectionDeadline() {
	n.electionElapsed = 0
	n.electionDeadline = n.cfg.ElectionTicks + n.rng.Intn(n.cfg.ElectionTicks)
}

// --- vote handling ---

func (n *Node) handleVoteRequest(m Message) []Message {
	grant := false
	if m.Term == n.term && (n.votedFor == "" || n.votedFor == m.From) {
		last := n.log[len(n.log)-1]
		upToDate := m.LastLogTerm > last.Term ||
			(m.LastLogTerm == last.Term && m.LastLogIndex >= last.Index)
		if upToDate {
			grant = true
			n.votedFor = m.From
			n.resetElectionDeadline()
		}
	}
	return []Message{{Type: MsgVoteResponse, From: n.id, To: m.From, Term: n.term, Granted: grant}}
}

func (n *Node) handleVoteResponse(m Message) []Message {
	if n.state != Candidate || m.Term != n.term || !m.Granted {
		return nil
	}
	n.votes[m.From] = true
	if len(n.votes) >= n.quorum() {
		return n.becomeLeader()
	}
	return nil
}

// --- replication ---

// broadcastAppend sends each peer the entries it is missing.
func (n *Node) broadcastAppend() []Message {
	out := make([]Message, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, n.appendFor(p))
	}
	return out
}

func (n *Node) appendFor(p string) Message {
	next := n.nextIndex[p]
	if next < 1 {
		next = 1
	}
	first := n.log[0].Index // 0 with no compaction
	prev := n.log[next-1-first]
	var entries []Entry
	if n.LastIndex() >= next {
		entries = append(entries, n.log[next-first:]...)
	}
	return Message{
		Type: MsgAppend, From: n.id, To: p, Term: n.term,
		PrevLogIndex: prev.Index, PrevLogTerm: prev.Term,
		Entries: entries, Commit: n.commitIndex,
	}
}

func (n *Node) handleAppend(m Message) []Message {
	resp := Message{Type: MsgAppendResponse, From: n.id, To: m.From, Term: n.term}
	if m.Term < n.term {
		return []Message{resp}
	}
	// Valid leader for this term.
	n.becomeFollowerKeepVote(m.Term, m.From)
	if m.PrevLogIndex > n.LastIndex() ||
		n.log[m.PrevLogIndex].Term != m.PrevLogTerm {
		return []Message{resp} // log mismatch; leader will back up
	}
	// Append, truncating conflicts.
	for _, e := range m.Entries {
		if e.Index <= n.LastIndex() {
			if n.log[e.Index].Term != e.Term {
				n.log = n.log[:e.Index]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	if m.Commit > n.commitIndex {
		last := n.LastIndex()
		if m.Commit < last {
			last = m.Commit
		}
		n.commitIndex = last
		n.applyCommitted()
	}
	resp.Term = n.term
	resp.Success = true
	resp.MatchIndex = m.PrevLogIndex + uint64(len(m.Entries))
	return []Message{resp}
}

// becomeFollowerKeepVote accepts leadership without clearing the vote when
// the term is unchanged (repeated heartbeats).
func (n *Node) becomeFollowerKeepVote(term uint64, leader string) {
	if term > n.term {
		n.becomeFollower(term, leader)
		return
	}
	n.state = Follower
	n.leader = leader
	n.resetElectionDeadline()
}

func (n *Node) handleAppendResponse(m Message) []Message {
	if n.state != Leader || m.Term != n.term {
		return nil
	}
	n.recentActive[m.From] = true
	if !m.Success {
		// Back up one step and retry.
		if n.nextIndex[m.From] > 1 {
			n.nextIndex[m.From]--
		}
		return []Message{n.appendFor(m.From)}
	}
	if m.MatchIndex > n.matchIndex[m.From] {
		n.matchIndex[m.From] = m.MatchIndex
		n.nextIndex[m.From] = m.MatchIndex + 1
	}
	n.maybeCommit()
	// Stream any remaining entries.
	if n.nextIndex[m.From] <= n.LastIndex() {
		return []Message{n.appendFor(m.From)}
	}
	return nil
}

// maybeCommit advances commitIndex to the highest majority-replicated index
// of the current term (Raft §5.4.2).
func (n *Node) maybeCommit() {
	if n.state != Leader {
		return
	}
	matches := make([]uint64, 0, len(n.matchIndex))
	for _, idx := range n.matchIndex {
		matches = append(matches, idx)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[n.quorum()-1]
	if candidate > n.commitIndex && n.log[candidate].Term == n.term {
		n.commitIndex = candidate
		n.applyCommitted()
	}
}

// applyCommitted feeds newly-committed entries to the apply callback.
func (n *Node) applyCommitted() {
	for n.applied < n.commitIndex {
		n.applied++
		e := n.log[n.applied]
		if n.applyFn != nil && len(e.Cmd) > 0 {
			n.applyFn(e)
		}
	}
}
