// Package coord is the ZooKeeper-equivalent coordination service that the
// paper deploys alongside each MigratoryData server (§5.2.1). It provides
// exactly the four features the paper relies on:
//
//  1. Linearizable create-if-absent — the coordinator-election race: "the
//     necessary write can succeed only for a single server".
//  2. Ephemeral entries bound to a session — entries "do not survive the
//     failure of their creator", turning the store into a fault detector.
//  3. Watches on entries — "allowing to detect their automatic deletion",
//     which is how surviving servers learn a coordinator died.
//  4. Cheap local reads — writes are linearized through the replicated log
//     and "incur a significant delay"; reads are served from the local
//     replica and are only sequentially consistent, matching ZooKeeper's
//     consistency split.
//
// Each Service embeds one consensus.Node; a cluster of Services forms the
// replicated store. A Service whose node cannot reach a quorum fails its
// writes — the paper's partition self-detection signal ("the inability to
// write to its local ZooKeeper instance, which favors consistency over
// availability").
package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/consensus"
)

// Service errors.
var (
	// ErrTimeout means the write did not commit in time — the caller may
	// be partitioned from the quorum.
	ErrTimeout = errors.New("coord: operation timed out (no quorum reachable?)")
	// ErrExists is returned by CreateEphemeral when the key is taken.
	ErrExists = errors.New("coord: key already exists")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("coord: service stopped")
)

// op codes for replicated commands.
const (
	opCreate    = "create"
	opDelete    = "delete"
	opHeartbeat = "hb"
	opExpire    = "expire"
)

// command is one replicated state-machine command (JSON in the Raft log;
// coordination traffic is rare — elections and takeovers only — so clarity
// beats compactness here).
type command struct {
	Op        string `json:"op"`
	Key       string `json:"key,omitempty"`
	Value     string `json:"value,omitempty"`
	Session   string `json:"session,omitempty"`
	Ephemeral bool   `json:"ephemeral,omitempty"`
	Req       string `json:"req,omitempty"` // origin request id for waiter matching
}

// kvEntry is one stored key.
type kvEntry struct {
	Value     string
	Ephemeral bool
	Session   string
}

// opResult is delivered to the waiter of a write.
type opResult struct {
	ok    bool
	err   error
	index uint64 // log index at which the command applied
}

// Config parametrizes a Service.
type Config struct {
	// ID is this replica's (and its session's) name; Peers lists the whole
	// coordination cluster.
	ID    string
	Peers []string
	// SessionTTL is how long after the last heartbeat a session's
	// ephemeral entries survive. Default 1s (scaled for in-process use;
	// production ZooKeeper uses seconds as well).
	SessionTTL time.Duration
	// OpTimeout bounds synchronous writes. Default 2s.
	OpTimeout time.Duration
	// TickEvery is the consensus logical tick length. Default 10ms.
	TickEvery time.Duration
	// Seed fixes election randomization.
	Seed int64
}

// Service is one replica of the coordination store.
type Service struct {
	cfg  Config
	node *consensus.Node
	run  *consensus.Runner

	mu       sync.Mutex
	kv       map[string]kvEntry
	sessions map[string]time.Time      // session -> local time of last applied heartbeat
	watches  map[string][]func(string) // one-shot delete watches
	waiters  map[string]chan opResult

	reqSeq  atomic.Uint64
	stopped atomic.Bool
	bgStop  chan struct{}
	bgDone  chan struct{}
}

// New constructs a Service wired to send via the given function (in
// process, the consensus lane of the cluster network: consensus.Mesh's
// Send). Register its Runner on that network.
func New(cfg Config, send consensus.SendFunc) *Service {
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	s := &Service{
		cfg:      cfg,
		kv:       make(map[string]kvEntry),
		sessions: make(map[string]time.Time),
		watches:  make(map[string][]func(string)),
		waiters:  make(map[string]chan opResult),
		bgStop:   make(chan struct{}),
		bgDone:   make(chan struct{}),
	}
	s.node = consensus.NewNode(consensus.Config{
		ID: cfg.ID, Peers: cfg.Peers, Seed: cfg.Seed,
	}, s.apply)
	s.run = consensus.NewRunner(s.node, send, cfg.TickEvery)
	go s.background()
	return s
}

// Runner exposes the consensus runner (the network needs it for
// registration).
func (s *Service) Runner() *consensus.Runner { return s.run }

// ID returns the replica name.
func (s *Service) ID() string { return s.cfg.ID }

// IsLeader reports whether this replica currently leads the store.
func (s *Service) IsLeader() bool { return s.run.IsLeader() }

// background sends session heartbeats and, on the leader, expires dead
// sessions.
func (s *Service) background() {
	defer close(s.bgDone)
	interval := s.cfg.SessionTTL / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	// Announce the session right away rather than waiting a full interval.
	s.propose(command{Op: opHeartbeat, Session: s.cfg.ID})
	for {
		select {
		case <-s.bgStop:
			return
		case <-t.C:
			s.propose(command{Op: opHeartbeat, Session: s.cfg.ID})
			if s.run.IsLeader() {
				s.expireDeadSessions()
			}
		}
	}
}

// expireDeadSessions proposes expiry for sessions whose heartbeats stopped.
// Expiry is itself a replicated command, so every replica removes the same
// ephemeral entries at the same log position (like ZooKeeper, where the
// leader decides expiry).
func (s *Service) expireDeadSessions() {
	now := time.Now()
	s.mu.Lock()
	var dead []string
	for session, last := range s.sessions {
		if now.Sub(last) > s.cfg.SessionTTL {
			dead = append(dead, session)
		}
	}
	s.mu.Unlock()
	for _, session := range dead {
		s.propose(command{Op: opExpire, Session: session})
	}
}

// propose fires a command without waiting for commit.
func (s *Service) propose(c command) {
	buf, err := json.Marshal(c)
	if err != nil {
		return
	}
	_ = s.run.Propose(buf)
}

// proposeWait submits a command and waits for its application. The returned
// index is the log position at which the command applied.
func (s *Service) proposeWait(c command) (bool, uint64, error) {
	if s.stopped.Load() {
		return false, 0, ErrStopped
	}
	req := fmt.Sprintf("%s-%d", s.cfg.ID, s.reqSeq.Add(1))
	c.Req = req
	ch := make(chan opResult, 1)
	s.mu.Lock()
	s.waiters[req] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.waiters, req)
		s.mu.Unlock()
	}()

	buf, err := json.Marshal(c)
	if err != nil {
		return false, 0, err
	}
	deadline := time.NewTimer(s.cfg.OpTimeout)
	defer deadline.Stop()
	// Retry the proposal while waiting: leadership may be settling, and
	// forwarded proposals can be dropped by partitions.
	retry := time.NewTicker(s.cfg.OpTimeout / 4)
	defer retry.Stop()
	_ = s.run.Propose(buf)
	for {
		select {
		case res := <-ch:
			return res.ok, res.index, res.err
		case <-retry.C:
			_ = s.run.Propose(buf)
		case <-deadline.C:
			return false, 0, ErrTimeout
		}
	}
}

// CreateEphemeral atomically creates key with value bound to this replica's
// session. It returns ErrExists if the key is already present — only one
// contender can win (the paper's coordinator election). The entry is
// deleted automatically if this replica's session expires.
//
// The returned index is the position of the create in the replicated log:
// it increases strictly across successive owners of the same key, which the
// cluster layer uses directly as the coordinator epoch (§5.2.1: "the new
// coordinator uses an epoch number incremented from the previous
// coordinator's epoch").
func (s *Service) CreateEphemeral(key, value string) (uint64, error) {
	ok, index, err := s.proposeWait(command{
		Op: opCreate, Key: key, Value: value,
		Session: s.cfg.ID, Ephemeral: true,
	})
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrExists
	}
	return index, nil
}

// Create atomically creates a persistent key. Returns ErrExists if taken.
func (s *Service) Create(key, value string) error {
	ok, _, err := s.proposeWait(command{Op: opCreate, Key: key, Value: value})
	if err != nil {
		return err
	}
	if !ok {
		return ErrExists
	}
	return nil
}

// Delete removes key (no error if absent).
func (s *Service) Delete(key string) error {
	_, _, err := s.proposeWait(command{Op: opDelete, Key: key})
	return err
}

// HasQuorum reports whether this replica currently knows a store leader. A
// replica partitioned from the majority loses its leader and cannot elect a
// new one — the paper's partition self-detection signal.
func (s *Service) HasQuorum() bool { return s.run.Leader() != "" }

// Get reads key from the local replica (sequentially consistent, no quorum
// round trip — the cheap-read half of the paper's cost model).
func (s *Service) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.kv[key]
	return e.Value, ok
}

// Owner reports the session owning an ephemeral key.
func (s *Service) Owner(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.kv[key]
	if !ok || !e.Ephemeral {
		return "", false
	}
	return e.Session, true
}

// Snapshot returns a copy of the current key/value state.
func (s *Service) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.kv))
	for k, e := range s.kv {
		out[k] = e.Value
	}
	return out
}

// WatchDelete registers a one-shot watch: fn(key) runs (on its own
// goroutine) when key is deleted or its owner session expires. If the key
// does not exist the watch fires immediately — the would-be watcher must
// race for takeover right away.
func (s *Service) WatchDelete(key string, fn func(key string)) {
	s.mu.Lock()
	if _, ok := s.kv[key]; !ok {
		s.mu.Unlock()
		go fn(key)
		return
	}
	s.watches[key] = append(s.watches[key], fn)
	s.mu.Unlock()
}

// apply is the replicated state machine transition, invoked by consensus in
// commit order on every replica.
func (s *Service) apply(e consensus.Entry) {
	var c command
	if err := json.Unmarshal(e.Cmd, &c); err != nil {
		return
	}
	var fired []func(string)
	var firedKey string
	result := opResult{ok: true, index: e.Index}

	s.mu.Lock()
	switch c.Op {
	case opCreate:
		if _, exists := s.kv[c.Key]; exists {
			result.ok = false
		} else {
			s.kv[c.Key] = kvEntry{Value: c.Value, Ephemeral: c.Ephemeral, Session: c.Session}
		}
		// An ephemeral create also refreshes its session: a session must be
		// expirable even if its owner crashes before any heartbeat lands.
		if c.Ephemeral && c.Session != "" {
			s.sessions[c.Session] = time.Now()
		}
	case opDelete:
		if _, exists := s.kv[c.Key]; exists {
			delete(s.kv, c.Key)
			fired = s.watches[c.Key]
			delete(s.watches, c.Key)
			firedKey = c.Key
		}
	case opHeartbeat:
		s.sessions[c.Session] = time.Now()
	case opExpire:
		delete(s.sessions, c.Session)
		for key, entry := range s.kv {
			if entry.Ephemeral && entry.Session == c.Session {
				delete(s.kv, key)
				key := key
				for _, fn := range s.watches[key] {
					fn := fn
					go fn(key)
				}
				delete(s.watches, key)
			}
		}
	}
	var waiter chan opResult
	if c.Req != "" {
		waiter = s.waiters[c.Req]
	}
	s.mu.Unlock()

	for _, fn := range fired {
		go fn(firedKey)
	}
	if waiter != nil {
		select {
		case waiter <- result:
		default:
		}
	}
}

// Stop terminates the replica: heartbeats cease, so the rest of the cluster
// expires this session and its ephemeral entries (crash semantics).
func (s *Service) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	close(s.bgStop)
	<-s.bgDone
	s.run.Stop()
}
