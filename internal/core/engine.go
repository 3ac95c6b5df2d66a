package core

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/capture"
	"migratorydata/internal/metrics"
	"migratorydata/internal/protocol"
	"migratorydata/internal/seglog"
	"migratorydata/internal/websocket"
)

// ErrEngineClosed is returned by Serve/Attach after Close.
var ErrEngineClosed = errors.New("core: engine closed")

// PublishFunc handles a publication received from a client. The single-node
// engine uses the built-in local sequencer; the cluster layer installs its
// own implementation (coordinator lookup, replication, ack on quorum —
// paper §5.2.2). from is nil for server-originated publications.
type PublishFunc func(from *Client, m *protocol.Message)

// Config parametrizes an Engine. Zero values select the defaults noted on
// each field.
type Config struct {
	// ServerID names this server in CONNACKs and cluster traffic.
	ServerID string
	// IoThreads is the number of I/O-layer threads. Default: GOMAXPROCS
	// (the paper's default is the number of available CPUs).
	IoThreads int
	// Workers is the number of logic-layer threads. Default: GOMAXPROCS.
	Workers int
	// TopicGroups shards the cache and coordinator space. Default: 100.
	TopicGroups int
	// CacheCapacity is the per-topic history depth. Default: 1024.
	CacheCapacity int
	// BatchMaxBytes and BatchMaxDelay configure per-client output batching
	// (§4). With BatchMaxDelay > 0 a client's frames are held and written
	// together in one write once they reach BatchMaxBytes, once the next
	// frame would not fit in one write (max(4 KiB, BatchMaxBytes)), or once
	// the oldest is BatchMaxDelay old. BatchMaxDelay == 0 holds nothing,
	// matching the paper's evaluation configuration: frames are written
	// when the IoThread loop pass that staged them ends, one write per
	// client per pass.
	BatchMaxBytes int
	BatchMaxDelay time.Duration
	// ConflationInterval enables per-topic conflation when > 0 (§4).
	ConflationInterval time.Duration
	// EgressBudgetBytes bounds the bytes staged-but-unwritten toward one
	// client (queued frames, batched output, pressure backlog, transport
	// carry). 0 selects the default (1 MiB); Open rejects a negative
	// value — overload protection cannot be turned off. See
	// docs/ARCHITECTURE.md, "The overload path".
	EgressBudgetBytes int
	// Classify assigns each topic a delivery class for the overload
	// policy. nil classifies every topic ClassReliable (never dropped; a
	// critically slow consumer is fenced off and resumes via replay).
	Classify ClassifyFunc
	// TickInterval drives batching/conflation timers. Default: half the
	// smallest enabled delay, clamped to [1ms, 50ms].
	TickInterval time.Duration
	// Publish overrides the publication path (installed by the cluster
	// layer). Default: local sequencer.
	Publish PublishFunc
	// Pause optionally injects stop-the-world pauses into the Worker loop
	// (GC ablation experiment).
	Pause *metrics.PauseInjector
	// DataDir, when non-empty, enables durable history: sequenced entries
	// are written write-behind to a per-group segment log under this
	// directory (internal/seglog), and Open replays it at boot so
	// resume-with-position survives a crash-restart. Single-node only —
	// cluster durability is replication (§5.2.2). See
	// docs/ARCHITECTURE.md, "The durability path".
	DataDir string
	// Fsync is the segment-log durability policy (zero value: periodic
	// sync every 100ms). Ignored without DataDir.
	Fsync seglog.Policy
	// SegmentMaxBytes / SegmentMaxAge bound one segment file (zero:
	// 8 MiB / 10 minutes). Ignored without DataDir.
	SegmentMaxBytes int64
	SegmentMaxAge   time.Duration
	// SeglogFS overrides the segment log's filesystem (fault injection in
	// tests); nil selects the real disk.
	SeglogFS seglog.FS
	// Recorder, when non-nil, taps every client connection for the
	// capture/replay pipeline (internal/capture): connection opens and
	// closes, every decoded inbound frame, and every outbound frame are
	// recorded with monotonic timestamps. The default (nil) costs the hot
	// path one predictable nil-check branch per frame — no fmt, no maps,
	// no closures on the publish spine.
	Recorder *capture.Recorder
	// Logger receives debug events. Default: discard.
	Logger *slog.Logger
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.ServerID == "" {
		cfg.ServerID = "server-1"
	}
	if cfg.IoThreads <= 0 {
		cfg.IoThreads = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.TopicGroups <= 0 {
		cfg.TopicGroups = cache.DefaultTopicGroups
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = cache.DefaultPerTopicCapacity
	}
	if cfg.TickInterval <= 0 {
		d := time.Duration(0)
		if cfg.BatchMaxDelay > 0 {
			d = cfg.BatchMaxDelay
		}
		if cfg.ConflationInterval > 0 && (d == 0 || cfg.ConflationInterval < d) {
			d = cfg.ConflationInterval
		}
		cfg.TickInterval = d / 2
		if cfg.TickInterval < time.Millisecond {
			cfg.TickInterval = time.Millisecond
		}
		if cfg.TickInterval > 50*time.Millisecond {
			cfg.TickInterval = 50 * time.Millisecond
		}
	}
	if cfg.EgressBudgetBytes == 0 {
		cfg.EgressBudgetBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return cfg
}

// Engine is the single-node MigratoryData server core.
type Engine struct {
	cfg       Config
	ioThreads []*ioThread
	workers   []*worker
	cache     *cache.Cache
	subIndex  *subIndex
	publishFn PublishFunc
	logger    *slog.Logger
	recorder  *capture.Recorder

	// Durable history (nil / zero without DataDir). epoch is the epoch the
	// local sequencer stamps: 1 on a memory-only engine, the recovered
	// boot epoch on a durable one (strictly above everything on disk, so
	// a crash-restart never reuses an (epoch, seq) a subscriber may have
	// observed ahead of the recovered prefix).
	seglog   *seglog.Log
	recovery *seglog.RecoveryReport
	epoch    uint32

	// Overload protection, precomputed from cfg (see pressure.go).
	egressBudgetBytes int64
	pressure          pressureThresholds
	classifyFn        ClassifyFunc

	mu        sync.Mutex
	clients   map[uint64]*Client
	listeners []net.Listener
	nextID    atomic.Uint64
	closed    atomic.Bool
	wg        sync.WaitGroup
	tickStop  chan struct{}

	stats   engineStats
	traffic metrics.TrafficMeter
	cpu     metrics.CPUSampler
}

// engineStats aggregates engine counters.
type engineStats struct {
	published     metrics.Counter
	delivered     metrics.Counter
	retransmitted metrics.Counter
	connects      metrics.Counter
	routing       metrics.RoutingCounters
	egress        metrics.EgressCounters
	pressure      metrics.PressureCounters
}

// New constructs and starts an Engine: IoThread and Worker loops begin
// running immediately; connections arrive via Serve or Attach. New panics
// if the durable log cannot be opened — callers that set DataDir should
// use Open and handle the error.
func New(cfg Config) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Open is New with the durable-history error surfaced: when cfg.DataDir is
// set, the segment log is opened and replayed into the cache BEFORE any
// IoThread or Worker starts, so the first subscriber replay already sees
// the recovered history and the sequencer's first assignment already
// carries the bumped boot epoch.
func Open(cfg Config) (*Engine, error) {
	if cfg.EgressBudgetBytes < 0 {
		return nil, fmt.Errorf("core: negative EgressBudgetBytes %d (overload protection cannot be turned off; 0 selects 1 MiB)", cfg.EgressBudgetBytes)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		cache:    cache.New(cfg.TopicGroups, cfg.CacheCapacity),
		subIndex: newSubIndex(cfg.TopicGroups, cfg.Workers),
		clients:  make(map[uint64]*Client),
		logger:   cfg.Logger,
		recorder: cfg.Recorder,
		tickStop: make(chan struct{}),
		epoch:    1,
	}
	if cfg.DataDir != "" {
		lg, rep, err := seglog.Open(cfg.DataDir, seglog.Options{
			Groups:          cfg.TopicGroups,
			CacheCapacity:   cfg.CacheCapacity,
			Fsync:           cfg.Fsync,
			SegmentMaxBytes: cfg.SegmentMaxBytes,
			SegmentMaxAge:   cfg.SegmentMaxAge,
			FS:              cfg.SeglogFS,
			Logger:          cfg.Logger,
		}, func(gid int, topic string, entry cache.Entry) bool {
			return e.cache.RecoverGroup(gid, topic, entry)
		})
		if err != nil {
			return nil, err
		}
		e.seglog = lg
		e.recovery = rep
		e.epoch = rep.BootEpoch
		cfg.Logger.Info("durable history recovered",
			"dir", cfg.DataDir,
			"entries", rep.Entries,
			"segments", rep.Segments,
			"truncations", len(rep.Truncations),
			"boot_epoch", rep.BootEpoch)
	}
	e.egressBudgetBytes = int64(cfg.EgressBudgetBytes)
	e.pressure = newPressureThresholds(e.egressBudgetBytes)
	e.classifyFn = cfg.Classify
	if cfg.Publish != nil {
		e.publishFn = cfg.Publish
	} else {
		seq := newLocalSequencer(e)
		e.publishFn = seq.publish
	}
	for i := 0; i < cfg.IoThreads; i++ {
		t := newIoThread(i, e)
		e.ioThreads = append(e.ioThreads, t)
		e.wg.Add(1)
		go t.run()
	}
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(i, e)
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go w.run()
	}
	if cfg.BatchMaxDelay > 0 || cfg.ConflationInterval > 0 {
		e.wg.Add(1)
		go e.tickLoop()
	}
	e.traffic.Start()
	e.cpu.Start()
	return e, nil
}

// SetPublishFunc replaces the publication path. Must be called before any
// client publishes (typically right after New, by the cluster layer).
func (e *Engine) SetPublishFunc(fn PublishFunc) { e.publishFn = fn }

// SetInterestHook installs fn to be called whenever this server gains its
// first local subscriber in a topic group or loses its last one. The hook
// runs on the worker goroutine that performed the transition and receives
// only the group index; callers must read the current state back through
// GroupHasSubscribers under their own serialization, so that reordered
// invocations of the hook cannot install stale state. Must be set before
// clients attach (the cluster layer installs it right after New).
func (e *Engine) SetInterestHook(fn func(group int)) { e.subIndex.onGroup = fn }

// GroupHasSubscribers reports whether any topic of group g currently has at
// least one local subscriber. The cluster layer derives its per-group
// interest digest from this.
func (e *Engine) GroupHasSubscribers(g int) bool {
	return e.subIndex.groupHasTopics(g)
}

// tickLoop periodically prompts IoThreads to flush due batches and Workers
// to flush due conflation aggregates.
func (e *Engine) tickLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.tickStop:
			return
		case <-ticker.C:
			if e.cfg.BatchMaxDelay > 0 {
				for _, t := range e.ioThreads {
					t.in.Push(ioEvent{kind: evTick})
				}
			}
			if e.cfg.ConflationInterval > 0 {
				for _, w := range e.workers {
					w.in.Push(workerEvent{kind: weTick})
				}
			}
		}
	}
}

// Serve accepts connections on l until the listener or engine is closed.
// mode selects the transport: "ws" performs a WebSocket handshake on each
// connection; "raw" expects protocol frames directly.
func (e *Engine) Serve(l net.Listener, mode string) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	e.mu.Lock()
	e.listeners = append(e.listeners, l)
	e.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if e.closed.Load() {
				return ErrEngineClosed
			}
			return err
		}
		go e.handleConn(conn, mode)
	}
}

// handshakeTimeout bounds the WebSocket upgrade, the only blocking reads
// the server does on a connection's own goroutine: a peer that connects
// and then says nothing must not own that goroutine and its fd forever.
const handshakeTimeout = 10 * time.Second

// handleConn upgrades and attaches one inbound connection.
func (e *Engine) handleConn(conn net.Conn, mode string) {
	var framed Framed
	switch mode {
	case "ws":
		// Arming fails only on a closed conn, which the handshake's first
		// read reports anyway.
		_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
		ws, err := websocket.ServerHandshake(conn)
		if err == nil {
			err = conn.SetDeadline(time.Time{})
		}
		if err != nil {
			e.logger.Debug("websocket handshake failed", "err", err)
			conn.Close()
			return
		}
		framed = NewWebSocketFramed(ws)
	default:
		framed = NewRawFramed(conn)
	}
	if _, err := e.Attach(framed); err != nil {
		e.logger.Debug("attach failed", "err", err)
		framed.Close()
	}
}

// Attach registers an established connection with the engine, pinning it to
// an IoThread and a Worker (by hash of its remote address, §4) and
// registering its descriptor with that IoThread's poll loop — a connection
// costs no goroutine (the loop is the IoThread's, started by its first
// Attach). It is the entry point used both by Serve and by in-process
// harnesses. A transport without a descriptor, or one the poller refuses,
// is an error, and a failed Attach leaves nothing behind: the caller still
// owns (and closes) the transport.
func (e *Engine) Attach(framed Framed) (*Client, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	rc, err := framed.PollConn()
	if err != nil {
		return nil, err
	}
	id := e.nextID.Add(1)
	// Per-connection state is deliberately minimal here: the subscription
	// set and backlog materialize lazily on first use, so an
	// idle connection — the C10M shape — costs only the Client struct, its
	// decoder, and a kernel-poller registration.
	c := &Client{
		id:     id,
		framed: framed,
		engine: e,
	}
	c.io = e.ioThreads[pinIndex(framed.RemoteAddr(), id, len(e.ioThreads))]
	c.worker = e.workers[pinIndex(framed.RemoteAddr(), id, len(e.workers))]
	pl, err := c.io.poller()
	if err != nil {
		return nil, err
	}
	// Decoded messages and their payloads ride pooled memory; the worker
	// releases or detaches them per message kind (see handleClientMsg), so
	// the steady-state decode→dispatch→publish path allocates only the
	// strings a frame carries.
	c.decoder.PoolPayloads = true
	c.decoder.PoolMessages = true

	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	e.clients[id] = c
	e.mu.Unlock()
	if e.recorder != nil {
		// Recorded before the poll loop can read, so a connection's open
		// event always precedes its first inbound frame in the capture.
		e.recorder.RecordOpen(id)
	}
	// Published before registration: once the loop can deliver events for
	// c, a concurrent teardown must already see where to deregister.
	c.poll.Store(pl)
	if err := pl.register(c, rc); err != nil {
		// The transport closed under us, or the engine did. Undo the
		// bookkeeping above; a teardown that raced us (CloseAllClients saw
		// c in e.clients) has already recorded the close.
		c.poll.Store(nil)
		e.unregister(c)
		if !c.closed.Swap(true) && e.recorder != nil {
			e.recorder.RecordClose(id)
		}
		return nil, err
	}
	e.stats.connects.Inc()
	return c, nil
}

// pinIndex maps a client onto one of n threads. The paper hashes the client
// IP address; connections from one host share an address, so the connection
// id is mixed in to spread same-host load (benchmarks connect thousands of
// clients from one machine — as did the paper's Benchsub).
func pinIndex(addr string, id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * 1099511628211
	}
	h ^= id * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}

// publish routes a client publication into the configured publish path.
// The publish path does not retain m (payloads and strings it stores are
// detached or immutable), so the caller may release a pooled message as
// soon as the call returns.
func (e *Engine) publish(from *Client, m *protocol.Message) {
	e.publishFn(from, m)
}

// Publish routes a server-originated publication through the configured
// publish path (the local sequencer, or the cluster protocol when one is
// installed). Publish takes ownership of m: the message is released to the
// message pool once handled, so the caller must not reuse it — acquire it
// with protocol.AcquireMessage for an allocation-free hot path. The payload
// is retained by the history cache and must not be mutated afterwards.
func (e *Engine) Publish(m *protocol.Message) {
	e.stats.published.Inc()
	e.publish(nil, m)
	m.Payload = nil // retained by the cache (and cluster replication)
	protocol.ReleaseMessage(m)
}

// Deliver fans out a sequenced entry for topic, routing via the
// topic→worker index: the NOTIFY frame is encoded lazily and a deliver
// event is enqueued only on the workers that have subscribers for the
// topic. A publication to a topic with no subscribers anywhere costs no
// queue traffic and no allocations; one with subscribers pinned to a
// single worker costs exactly one push. It returns the number of worker
// events enqueued.
//
// Callers must invoke Deliver in (epoch, seq) order per topic — the local
// sequencer does so through its per-group FIFO hand-off (one drainer at a
// time per group), the cluster replication paths while holding the cluster
// group lock.
func (e *Engine) Deliver(topic string, entry cache.Entry) int {
	return e.DeliverGroup(e.cache.GroupOf(topic), topic, entry)
}

// DeliverGroup is Deliver for callers that already know the topic's group —
// the sequencer and the cluster paths compute it to take the group lock —
// saving a redundant hash of the topic name on the publish hot path. An
// out-of-range group falls back to hashing.
//
//vet:hotpath
func (e *Engine) DeliverGroup(group int, topic string, entry cache.Entry) int {
	if group < 0 || group >= len(e.subIndex.shards) {
		group = e.cache.GroupOf(topic)
	}
	sh := &e.subIndex.shards[group]
	sh.mu.RLock()
	wset := sh.topics[topic]
	// Copy the bitmap so the shard is not held across encoding and queue
	// pushes; stack storage covers 256 workers.
	var local [4]uint64
	var words []uint64
	if len(wset) <= len(local) {
		words = local[:len(wset)]
	} else {
		words = make([]uint64, len(wset))
	}
	copy(words, wset)
	sh.mu.RUnlock()

	// Count before pushing: once a worker has the event, the subscriber can
	// see the NOTIFY, and the counters must already account for it.
	routed := 0
	for _, word := range words {
		routed += bits.OnesCount64(word)
	}
	e.stats.routing.Routed.Add(int64(routed))
	e.stats.routing.Skipped.Add(int64(len(e.workers) - routed))
	var frame []byte
	for wi, word := range words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if frame == nil {
				frame = protocol.Encode(notifyMessage(topic, entry, 0))
			}
			e.workers[wi*64+b].in.Push(workerEvent{kind: weDeliver, topic: topic, entry: entry, frame: frame})
		}
	}
	return routed
}

// persist stages a sequenced entry for the durable log. Called by the
// sequencer's per-group drainer (one drainer at a time per group, so
// appends arrive in sequencing order) before fan-out; a memory-only
// engine pays exactly this nil-check.
//
//vet:hotpath
func (e *Engine) persist(group int, topic string, entry cache.Entry) {
	if e.seglog != nil {
		e.seglog.Append(group, topic, entry)
	}
}

// Recovery reports the boot-time recovery outcome (nil without DataDir).
func (e *Engine) Recovery() *seglog.RecoveryReport { return e.recovery }

// Epoch reports the epoch the local sequencer stamps on new publications.
func (e *Engine) Epoch() uint32 { return e.epoch }

// SyncLog forces staged durable-log bytes to disk and reports the log's
// terminal error, if any. No-op without DataDir.
func (e *Engine) SyncLog() error {
	if e.seglog == nil {
		return nil
	}
	return e.seglog.Sync()
}

// classify returns topic's delivery class under the configured policy.
func (e *Engine) classify(topic string) DeliveryClass {
	if e.classifyFn == nil {
		return ClassReliable
	}
	return e.classifyFn(topic)
}

// Cache exposes the history cache (the cluster layer appends replicated
// messages to it, §5.2.2).
func (e *Engine) Cache() *cache.Cache { return e.cache }

// ServerID reports the configured server identifier.
func (e *Engine) ServerID() string { return e.cfg.ServerID }

// unregister removes a torn-down client from the registry.
func (e *Engine) unregister(c *Client) {
	e.mu.Lock()
	delete(e.clients, c.id)
	e.mu.Unlock()
}

// NumClients reports the currently-attached connection count.
func (e *Engine) NumClients() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.clients)
}

// CloseAllClients preventively disconnects every client, as a partitioned
// cluster member does to push its clients to the surviving servers
// (§5.2.2).
func (e *Engine) CloseAllClients() {
	e.mu.Lock()
	clients := make([]*Client, 0, len(e.clients))
	for _, c := range e.clients {
		clients = append(clients, c)
	}
	e.mu.Unlock()
	for _, c := range clients {
		c.CloseAsync()
	}
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Connections   int
	Connects      int64
	Published     int64
	Delivered     int64
	Retransmitted int64
	// DeliverRouted counts worker deliver events enqueued; DeliverSkipped
	// counts the pushes a broadcast fan-out would have made to workers with
	// no subscriber for the topic (see metrics.RoutingCounters).
	DeliverRouted  int64
	DeliverSkipped int64
	// FanoutEvents counts grouped write events pushed from Workers to
	// IoThreads (≤ IoThreads per delivered message); IOFlushes/IOFlushBytes
	// count transport writes and the bytes they carried (see
	// metrics.EgressCounters).
	FanoutEvents int64
	IOFlushes    int64
	IOFlushBytes int64
	// CacheTopics/CacheEntries/CacheBytes gauge the history cache: cached
	// topics, live entries, and the measured footprint (ring slots plus
	// payload bytes). With memory-proportional rings CacheBytes tracks the
	// history actually cached, not topics × per-topic cap (see
	// cache.MemStats).
	CacheTopics  int64
	CacheEntries int64
	CacheBytes   int64
	// EgressQueueBytes gauges the bytes currently staged-but-unwritten
	// toward clients (queued frames, batched output, pressure backlogs,
	// transport carry — "egress_queue_bytes"). SlowConsumers gauges the
	// clients currently above the healthy pressure tier
	// ("slow_consumers"), and SlowConsumerBytes the staged bytes they pin
	// — bounded by EgressBudgetBytes × SlowConsumers. PressureDrops counts
	// frames conflated away or evicted by the overload policy
	// ("pressure_drops"); PressureDisconnects counts fenced disconnects of
	// critically slow consumers ("pressure_disconnects").
	EgressQueueBytes    int64
	SlowConsumers       int64
	SlowConsumerBytes   int64
	PressureDrops       int64
	PressureDisconnects int64
	BytesOut            int64
	Gbps                float64
	CPUUtilized         float64
	// Durable-history gauges and counters (all zero without DataDir).
	// SeglogAppends/SeglogAppendedBytes count entries staged toward the
	// segment log; SeglogDropped counts entries discarded after a terminal
	// sink failure. SeglogFlushes/SeglogFsyncs count writer-side flushes
	// and fsync calls; SeglogSegments/SeglogDiskBytes gauge the on-disk
	// footprint, SeglogStagedBytes the bytes buffered but not yet written.
	// SeglogRecoveredEntries/SeglogTruncations report the boot-time
	// recovery outcome; SeglogFailed is 1 once the log hit a terminal
	// write/sync error (history on disk stays replayable).
	SeglogAppends          int64
	SeglogAppendedBytes    int64
	SeglogDropped          int64
	SeglogFlushes          int64
	SeglogFsyncs           int64
	SeglogSegments         int64
	SeglogDiskBytes        int64
	SeglogStagedBytes      int64
	SeglogRecoveredEntries int64
	SeglogTruncations      int64
	SeglogFailed           int64
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	ms := e.cache.MemStats()
	// The egress gauges sum the per-client ledgers under the registry lock
	// (a cold path), so the staging hot path pays no shared-cacheline
	// contention for them.
	var egressBytes, slowBytes, slow, connections int64
	e.mu.Lock()
	connections = int64(len(e.clients))
	for _, c := range e.clients {
		b := c.egress.bytes.Load()
		if b < 0 {
			b = 0 // transient: a release raced a concurrent charge
		}
		egressBytes += b
		if c.egress.stalled.Load() {
			slow++
			slowBytes += b
		}
	}
	e.mu.Unlock()
	var sl seglog.Stats
	if e.seglog != nil {
		sl = e.seglog.Stats()
	}
	var slFailed int64
	if sl.Failed {
		slFailed = 1
	}
	return Stats{
		CacheTopics:         int64(ms.Topics),
		CacheEntries:        int64(ms.Entries),
		CacheBytes:          ms.Bytes(),
		EgressQueueBytes:    egressBytes,
		SlowConsumers:       slow,
		SlowConsumerBytes:   slowBytes,
		PressureDrops:       e.stats.pressure.Drops.Value(),
		PressureDisconnects: e.stats.pressure.Disconnects.Value(),
		Connections:         int(connections),
		Connects:            e.stats.connects.Value(),
		Published:           e.stats.published.Value(),
		Delivered:           e.stats.delivered.Value(),
		Retransmitted:       e.stats.retransmitted.Value(),
		DeliverRouted:       e.stats.routing.Routed.Value(),
		DeliverSkipped:      e.stats.routing.Skipped.Value(),
		FanoutEvents:        e.stats.egress.FanoutEvents.Value(),
		IOFlushes:           e.stats.egress.Flushes.Value(),
		IOFlushBytes:        e.stats.egress.FlushBytes.Value(),
		BytesOut:            e.traffic.Bytes(),
		Gbps:                e.traffic.Gbps(),
		CPUUtilized:         e.cpu.Utilization(),

		SeglogAppends:          sl.Appends,
		SeglogAppendedBytes:    sl.AppendedBytes,
		SeglogDropped:          sl.Dropped,
		SeglogFlushes:          sl.Flushes,
		SeglogFsyncs:           sl.Fsyncs,
		SeglogSegments:         sl.Segments,
		SeglogDiskBytes:        sl.DiskBytes,
		SeglogStagedBytes:      sl.StagedBytes,
		SeglogRecoveredEntries: sl.RecoveredEntries,
		SeglogTruncations:      sl.Truncations,
		SeglogFailed:           slFailed,
	}
}

// ResetMeters restarts the traffic and CPU measurement windows (harnesses
// call this after warm-up, as the paper records only post-warm-up data).
func (e *Engine) ResetMeters() {
	e.traffic.Start()
	e.cpu.Start()
}

// Close shuts the engine down: listeners stop accepting, every client is
// disconnected, and all loops drain and exit.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.mu.Lock()
	listeners := e.listeners
	e.listeners = nil
	clients := make([]*Client, 0, len(e.clients))
	for _, c := range e.clients {
		clients = append(clients, c)
	}
	e.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range clients {
		// Close transports directly so a write blocked on a full peer
		// unblocks, and request the teardown explicitly: a closed fd leaves
		// its poller's set silently, so no readiness event would ever ask.
		_ = c.framed.Close()
		c.CloseAsync()
	}
	for _, t := range e.ioThreads {
		// Seal the lazy poller so none can start after shutdown, then stop
		// any that exist; their loops release the kernel fds and exit.
		t.pollOnce.Do(func() { t.pollErr = ErrEngineClosed })
		if t.poll != nil {
			t.poll.close()
		}
	}
	close(e.tickStop)

	// Give teardown events a moment to propagate, then close the queues.
	// Queue closure is safe even with stragglers: Push on a closed queue
	// is a no-op.
	deadline := time.Now().Add(2 * time.Second)
	for e.NumClients() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, t := range e.ioThreads {
		t.in.Close()
	}
	for _, w := range e.workers {
		w.in.Close()
	}
	e.wg.Wait()
	if e.seglog != nil {
		// After wg.Wait() no drainer can append; Close flushes staged
		// bytes, syncs, and surfaces any terminal sink error.
		return e.seglog.Close()
	}
	return nil
}
