// Package server is the public MigratoryData server API. A Server wraps the
// single-node engine (paper §4); a Cluster wires several Servers into the
// replicated deployment of §5, with coordinator-based total ordering,
// replication, and failure recovery.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"migratorydata/internal/capture"
	"migratorydata/internal/cluster"
	"migratorydata/internal/core"
	"migratorydata/internal/seglog"
	"migratorydata/internal/transport"
)

// Server errors.
var (
	ErrAlreadyStarted = errors.New("server: already started")
)

// Config parametrizes a Server.
type Config struct {
	// ID names this server (CONNACKs, cluster membership).
	ID string
	// ListenNetwork ("tcp" or "inproc") and ListenAddr locate the client
	// listener. Empty ListenAddr means no listener (Attach-only, used by
	// in-process harnesses).
	ListenNetwork string
	ListenAddr    string
	// Mode is the client framing: "ws" (default) or "raw".
	Mode string
	// IoThreads / Workers / TopicGroups / CacheCapacity tune the engine
	// (§4); zero selects the defaults.
	IoThreads     int
	Workers       int
	TopicGroups   int
	CacheCapacity int
	// BatchMaxBytes / BatchMaxDelay enable output batching (§4).
	BatchMaxBytes int
	BatchMaxDelay time.Duration
	// ConflationInterval enables per-topic conflation (§4).
	ConflationInterval time.Duration
	// EgressBudgetBytes bounds each client's staged-but-unwritten egress —
	// the slow-consumer overload protection (docs/ARCHITECTURE.md, "The
	// overload path"). 0 selects the engine default (1 MiB); Open rejects
	// a negative value, since protection cannot be turned off.
	EgressBudgetBytes int
	// Classify assigns topics a delivery class for the overload policy
	// (nil: every topic reliable — never dropped under pressure).
	Classify core.ClassifyFunc
	// DataDir, when non-empty, enables durable history: the engine keeps a
	// crash-safe per-group segment log under this directory and replays it
	// at startup, so resume-with-position survives a restart (see
	// docs/ARCHITECTURE.md, "The durability path"). Single-node only —
	// cluster members get durability through replication (§5.2.2) and
	// NewCluster rejects members that set it.
	DataDir string
	// Fsync is the segment-log durability policy (zero value: periodic
	// sync every 100ms; see seglog.ParsePolicy for the flag syntax).
	Fsync seglog.Policy
	// SegmentMaxBytes / SegmentMaxAge bound one segment file (zero:
	// 8 MiB / 10 minutes).
	SegmentMaxBytes int64
	SegmentMaxAge   time.Duration
	// Recorder optionally taps the engine's ingest/egress spine for traffic
	// capture (see internal/capture). Nil (the default) costs the hot path
	// one nil-check branch.
	Recorder *capture.Recorder
	// Logger receives debug events.
	Logger *slog.Logger
}

// Server is one MigratoryData server.
type Server struct {
	cfg    Config
	engine *core.Engine
	node   *cluster.Node // nil in single-node mode

	mu       sync.Mutex
	listener net.Listener
	started  bool
	closed   bool
}

// engineConfig converts the public config to the engine's.
func (cfg Config) engineConfig() core.Config {
	return core.Config{
		ServerID:           cfg.ID,
		IoThreads:          cfg.IoThreads,
		Workers:            cfg.Workers,
		TopicGroups:        cfg.TopicGroups,
		CacheCapacity:      cfg.CacheCapacity,
		BatchMaxBytes:      cfg.BatchMaxBytes,
		BatchMaxDelay:      cfg.BatchMaxDelay,
		ConflationInterval: cfg.ConflationInterval,
		EgressBudgetBytes:  cfg.EgressBudgetBytes,
		Classify:           cfg.Classify,
		DataDir:            cfg.DataDir,
		Fsync:              cfg.Fsync,
		SegmentMaxBytes:    cfg.SegmentMaxBytes,
		SegmentMaxAge:      cfg.SegmentMaxAge,
		Recorder:           cfg.Recorder,
		Logger:             cfg.Logger,
	}
}

// New constructs a single-node server (the paper's vertically-scalable
// engine with the local sequencer). Call Start to begin accepting clients.
// New panics if the durable log under DataDir cannot be opened; callers
// that set DataDir should use Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open is New with the durable-history error surfaced: a corrupt or
// mismatched data dir refuses to open (naming the offending file) instead
// of serving history of unknown provenance.
func Open(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		cfg.ID = "server-1"
	}
	if cfg.Mode == "" {
		cfg.Mode = "ws"
	}
	e, err := core.Open(cfg.engineConfig())
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
	}
	return &Server{cfg: cfg, engine: e}, nil
}

// newClusterMember constructs a server whose engine is owned by a cluster
// node (used by NewCluster).
func newClusterMember(cfg Config, node *cluster.Node) *Server {
	if cfg.Mode == "" {
		cfg.Mode = "ws"
	}
	return &Server{cfg: cfg, engine: node.Engine(), node: node}
}

// Start opens the configured listener (if any) and begins serving. It
// returns immediately; serving continues until Close.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return ErrAlreadyStarted
	}
	s.started = true
	if s.cfg.ListenAddr == "" {
		return nil
	}
	network := s.cfg.ListenNetwork
	if network == "" {
		network = "tcp"
	}
	l, err := transport.Listen(network, s.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("server %s: %w", s.cfg.ID, err)
	}
	s.listener = l
	go s.engine.Serve(l, s.cfg.Mode)
	return nil
}

// Addr reports the listener address ("" when Attach-only).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// ID reports the server name.
func (s *Server) ID() string { return s.cfg.ID }

// Engine exposes the underlying engine for in-process attachment and
// statistics.
func (s *Server) Engine() *core.Engine { return s.engine }

// Node exposes the cluster node (nil in single-node mode).
func (s *Server) Node() *cluster.Node { return s.node }

// Stats returns the engine counters.
func (s *Server) Stats() core.Stats { return s.engine.Stats() }

// Close shuts the server down. For cluster members this is a crash-stop:
// the member's coordination session expires and survivors take over its
// topic groups.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	if s.node != nil {
		s.node.Stop() // stops the engine too
		return nil
	}
	return s.engine.Close()
}

// ClusterSpec describes an in-process cluster deployment.
type ClusterSpec struct {
	// Members configures each server; IDs must be unique. ListenAddr may
	// be empty for Attach-only members.
	Members []Config
	// SessionTTL / OpTimeout / TickEvery / PartitionGrace tune the
	// coordination service; zeros select production-ish defaults.
	SessionTTL     time.Duration
	OpTimeout      time.Duration
	TickEvery      time.Duration
	PartitionGrace time.Duration
	// AckCopies is the replication degree before a publisher is
	// acknowledged. Default 2 (the paper's single-fault model); higher
	// values tolerate more concurrent faults (§5.2's extension).
	AckCopies int
	// Seed fixes randomized behaviour.
	Seed int64
}

// Cluster is an in-process MigratoryData cluster: n Servers joined by one
// in-process network carrying replication and coordination traffic. The
// paper deploys one process per machine; this form runs them in one
// process for harnesses, examples, and tests, with identical protocol
// behaviour.
type Cluster struct {
	Servers []*Server
}

// NewCluster constructs and starts all members.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if len(spec.Members) == 0 {
		return nil, errors.New("server: cluster needs at least one member")
	}
	network := cluster.NewNetwork()
	ids := make([]string, len(spec.Members))
	for i, m := range spec.Members {
		if m.ID == "" {
			return nil, fmt.Errorf("server: member %d has no ID", i)
		}
		if m.DataDir != "" {
			// Cluster durability is replication (§5.2.2): a member's local
			// segment log would replay history the cluster epoch already
			// superseded. Refuse loudly rather than recover wrongly.
			return nil, fmt.Errorf("server: member %s sets DataDir %q — durable history is single-node only; cluster durability is replication", m.ID, m.DataDir)
		}
		ids[i] = m.ID
	}
	c := &Cluster{}
	for i, m := range spec.Members {
		node := cluster.NewNode(cluster.Config{
			ID:             m.ID,
			Peers:          ids,
			Engine:         m.engineConfig(),
			SessionTTL:     spec.SessionTTL,
			OpTimeout:      spec.OpTimeout,
			TickEvery:      spec.TickEvery,
			PartitionGrace: spec.PartitionGrace,
			AckCopies:      spec.AckCopies,
			Seed:           spec.Seed + int64(i+1),
			Logger:         m.Logger,
		}, network)
		srv := newClusterMember(m, node)
		if err := srv.Start(); err != nil {
			srv.Close()
			for _, prev := range c.Servers {
				prev.Close()
			}
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// WaitReady blocks until the coordination service has a leader (the cluster
// can sequence publications) or the timeout elapses.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, s := range c.Servers {
			if s.node != nil && s.node.Coord().IsLeader() {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server: cluster not ready within timeout")
}

// Crash fail-stops member i (Table 2's fault injection): its clients are
// disconnected, its coordination session expires, and survivors take over.
func (c *Cluster) Crash(i int) {
	c.Servers[i].Close()
}

// Close stops every member.
func (c *Cluster) Close() {
	for _, s := range c.Servers {
		s.Close()
	}
}
