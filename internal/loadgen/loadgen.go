// Package loadgen implements the paper's two benchmark tools as a library
// (§6): Benchpub "generates messages of a configurable size and sends them
// to the MigratoryData cluster at a configurable rate", and Benchsub "opens
// a configurable number of concurrent WebSocket connections..., subscribing
// to a configurable number of subjects, and computing the end-to-end
// latency for the received notifications".
//
// Latency is computed from the publisher-side timestamp embedded in each
// message; in the in-process deployment publisher and subscribers share a
// clock, mirroring the paper's same-machine Benchpub/Benchsub pairing
// ("in order to avoid time synchronization errors between machines, we
// record latency only for Benchpub/Benchsub couples located on the same
// machine").
//
// It is the in-process harness behind the invariant tests and the
// informational benchmarks — only tests import it. Timings that back a
// claim come from benchmark/, over real sockets.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"migratorydata/internal/metrics"
	"migratorydata/internal/protocol"
)

// ErrNoAttach is returned when no connection factory is configured.
var ErrNoAttach = errors.New("loadgen: no Attach function configured")

// AttachFunc opens one client connection to the system under test and
// returns the client-side conn. In-process harnesses attach a pipe end to
// an engine; network harnesses dial.
type AttachFunc func(i int) (net.Conn, error)

// SubConfig parametrizes Benchsub.
type SubConfig struct {
	// Connections is the number of concurrent subscriber connections.
	Connections int
	// Topics are the subscription targets; connection i subscribes to
	// Topics[i%len(Topics)] (the paper's "each client subscribes to one
	// randomly-selected topic" — round-robin gives the same uniform load
	// deterministically).
	Topics []string
	// Attach opens connection i. With Failover enabled it is called again
	// after a connection failure and must return a connection to a live
	// server.
	Attach AttachFunc
	// Histogram receives end-to-end latencies (only while recording).
	Histogram *metrics.Histogram
	// ReadBuffer sizes each connection's read buffer. Default 2048.
	ReadBuffer int
	// Failover enables §5.2.3 subscriber recovery: on connection failure
	// reconnect via Attach and resume from the last received (epoch, seq).
	Failover bool
	// ReconnectWaitMax bounds the random reconnect wait that scatters the
	// herd after a server failure. Default 100ms.
	ReconnectWaitMax time.Duration
	// DeferSubscribe connects the fleet without subscribing; a later
	// SubscribeAll subscribes every connection at once — the flash-crowd
	// shape (everyone piles onto a hot topic simultaneously).
	DeferSubscribe bool
	// Droppable marks topics whose deliveries the engine's overload policy
	// may legally conflate or drop (core.ClassConflatable). Sequence gaps
	// observed on such topics are accounted separately (DroppableGaps) and
	// do not violate the reliable-class zero-gap invariant. nil treats
	// every topic as reliable.
	Droppable func(topic string) bool
	// Seed fixes the reconnect jitter.
	Seed int64
}

// subConn is the per-connection subscriber state machine.
type subConn struct {
	idx       int
	topic     string
	droppable bool // topic is conflatable-class: gaps are legal under pressure
	epoch     uint32
	seq       uint64
	conn      net.Conn
	mu        sync.Mutex   // guards conn swap during failover
	received  atomic.Int64 // notifications observed on this connection
	stalled   atomic.Bool  // reader paused (slow-consumer scenarios)
}

// Benchsub is a fleet of subscriber connections.
type Benchsub struct {
	cfg        SubConfig
	subs       []*subConn
	wg         sync.WaitGroup
	recording  atomic.Bool
	subscribed atomic.Bool // false until SubscribeAll in DeferSubscribe mode
	received   atomic.Int64
	recovered  atomic.Int64 // retransmitted messages received after failover
	reconnects atomic.Int64
	gaps       atomic.Int64 // reliable-class sequence gaps (must stay 0)
	dropGaps   atomic.Int64 // gaps on droppable-class topics (pressure policy)
	duplicates atomic.Int64 // re-deliveries dropped (allowed, §3)
	errors     atomic.Int64
	closed     atomic.Bool
}

// StartBenchsub opens all connections and subscribes each to its topic.
func StartBenchsub(cfg SubConfig) (*Benchsub, error) {
	if cfg.Attach == nil {
		return nil, ErrNoAttach
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	if len(cfg.Topics) == 0 {
		return nil, errors.New("loadgen: Benchsub needs at least one topic")
	}
	if cfg.ReadBuffer <= 0 {
		cfg.ReadBuffer = 2048
	}
	if cfg.ReconnectWaitMax <= 0 {
		cfg.ReconnectWaitMax = 100 * time.Millisecond
	}
	b := &Benchsub{cfg: cfg}
	b.subscribed.Store(!cfg.DeferSubscribe)
	for i := 0; i < cfg.Connections; i++ {
		topic := cfg.Topics[i%len(cfg.Topics)]
		sc := &subConn{idx: i, topic: topic}
		if cfg.Droppable != nil {
			sc.droppable = cfg.Droppable(topic)
		}
		if err := b.connect(sc); err != nil {
			b.Close()
			return nil, fmt.Errorf("loadgen: attach %d: %w", i, err)
		}
		b.subs = append(b.subs, sc)
		b.wg.Add(1)
		go b.run(sc)
	}
	return b, nil
}

// connect (re)establishes sc's connection and subscribes with its resume
// position (unless subscriptions are deferred and SubscribeAll has not
// fired yet).
func (b *Benchsub) connect(sc *subConn) error {
	conn, err := b.cfg.Attach(sc.idx)
	if err != nil {
		return err
	}
	if b.subscribed.Load() {
		if err := subscribeConn(conn, sc); err != nil {
			conn.Close()
			return err
		}
	}
	sc.mu.Lock()
	sc.conn = conn
	sc.mu.Unlock()
	return nil
}

// subscribeConn writes sc's subscription (with its resume position) on conn.
func subscribeConn(conn net.Conn, sc *subConn) error {
	sub := protocol.Encode(&protocol.Message{
		Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{
			{Topic: sc.topic, Epoch: sc.epoch, Seq: sc.seq},
		},
	})
	_, err := conn.Write(sub)
	return err
}

// SubscribeAll subscribes every connection at once — the flash-crowd
// trigger for a fleet started with DeferSubscribe. Connections whose
// subscribe write fails are left to their read loops (which observe the
// failure and, with Failover, reconnect — by then subscribed is set, so
// the reconnect subscribes). Idempotent.
func (b *Benchsub) SubscribeAll() {
	if b.subscribed.Swap(true) {
		return
	}
	for _, sc := range b.subs {
		sc.mu.Lock()
		conn := sc.conn
		sc.mu.Unlock()
		if conn == nil {
			continue
		}
		if err := subscribeConn(conn, sc); err != nil {
			conn.Close()
		}
	}
}

// DropConnection force-closes subscriber i's current connection from the
// client side — the server observes an abrupt connection failure. With
// Failover enabled the subscriber reconnects via Attach and resumes from
// its last (epoch, seq) position: the reconnect-storm and churn building
// block. Reports whether a live connection was closed.
func (b *Benchsub) DropConnection(i int) bool {
	if i < 0 || i >= len(b.subs) {
		return false
	}
	sc := b.subs[i]
	sc.mu.Lock()
	conn := sc.conn
	sc.mu.Unlock()
	if conn == nil {
		return false
	}
	conn.Close()
	return true
}

// DropConnections drops the first n subscriber connections at once (a mass
// disconnection event). Returns how many live connections were closed.
func (b *Benchsub) DropConnections(n int) int {
	dropped := 0
	for i := 0; i < n && i < len(b.subs); i++ {
		if b.DropConnection(i) {
			dropped++
		}
	}
	return dropped
}

// run drives one subscriber connection, reconnecting on failure when
// failover is enabled.
func (b *Benchsub) run(sc *subConn) {
	defer b.wg.Done()
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ int64(sc.idx+1)))
	for {
		err := b.readLoop(sc)
		if b.closed.Load() {
			return
		}
		if !b.cfg.Failover {
			if err != nil {
				b.errors.Add(1)
			}
			return
		}
		// §5.2.3: random wait scatters the reconnection herd.
		for {
			time.Sleep(time.Duration(rng.Int63n(int64(b.cfg.ReconnectWaitMax) + 1)))
			if b.closed.Load() {
				return
			}
			if err := b.connect(sc); err == nil {
				b.reconnects.Add(1)
				break
			}
		}
	}
}

// readLoop consumes one connection's notifications until it fails.
func (b *Benchsub) readLoop(sc *subConn) error {
	sc.mu.Lock()
	conn := sc.conn
	sc.mu.Unlock()
	if conn == nil {
		return errors.New("loadgen: no connection")
	}
	// Pooled messages and payloads: a subscriber fleet decodes every
	// delivered NOTIFY, so this loop is the client-side analogue of the
	// engine's read path. observe retains nothing, so both the struct and
	// the payload buffer go straight back to their pools.
	var dec protocol.StreamDecoder
	dec.PoolPayloads = true
	dec.PoolMessages = true
	buf := make([]byte, b.cfg.ReadBuffer)
	for {
		// A stalled reader simply stops issuing reads while keeping the
		// connection open — the slow-consumer shape: the server's transport
		// buffer fills and its overload path takes over.
		for sc.stalled.Load() && !b.closed.Load() {
			time.Sleep(5 * time.Millisecond)
		}
		if b.closed.Load() {
			return nil
		}
		n, err := conn.Read(buf)
		if n > 0 {
			dec.Feed(buf[:n])
			for {
				m, derr := dec.Next()
				if derr != nil {
					return derr
				}
				if m == nil {
					break
				}
				if m.Kind == protocol.KindNotify {
					b.observe(sc, m)
				}
				protocol.ReleaseMessage(m)
			}
		}
		if err != nil {
			return err
		}
	}
}

// observe accounts one notification: ordering check, latency, counters.
func (b *Benchsub) observe(sc *subConn, m *protocol.Message) {
	// Completeness/order check. The service model is at-least-once:
	// duplicates are allowed (a resume replay can overlap deliver events
	// already queued for the subscriber's worker) and are dropped here
	// without advancing the position — real clients filter them by ID
	// (§3). What must NEVER happen is a forward skip within an epoch:
	// that would be a lost message.
	if m.Epoch < sc.epoch || (m.Epoch == sc.epoch && sc.seq != 0 && m.Seq <= sc.seq) {
		b.duplicates.Add(1)
		return
	}
	if m.Epoch == sc.epoch && sc.seq != 0 && m.Seq > sc.seq+1 {
		if sc.droppable {
			// Conflation/eviction on a droppable-class topic surfaces as a
			// forward skip; that is the pressure policy working, not a loss.
			b.dropGaps.Add(1)
		} else {
			b.gaps.Add(1)
		}
	}
	sc.epoch, sc.seq = m.Epoch, m.Seq

	b.received.Add(1)
	sc.received.Add(1)
	if m.Flags&protocol.FlagRetransmission != 0 {
		b.recovered.Add(1)
	}
	if b.recording.Load() && m.Timestamp > 0 && b.cfg.Histogram != nil {
		lat := time.Since(time.Unix(0, m.Timestamp))
		if lat >= 0 {
			b.cfg.Histogram.Record(lat)
		}
	}
}

// StartRecording begins latency collection (call after warm-up, as the
// paper records only after its 3-minute warm-up period).
func (b *Benchsub) StartRecording() { b.recording.Store(true) }

// StopRecording pauses latency collection.
func (b *Benchsub) StopRecording() { b.recording.Store(false) }

// Received reports the total notifications consumed.
func (b *Benchsub) Received() int64 { return b.received.Load() }

// StallReaders pauses the readers of the LAST n connections: they stop
// reading mid-stream while keeping their connections open, turning them
// into the slow consumers the engine's overload path must isolate. Safe to
// call while the fleet runs; idempotent for the same n.
func (b *Benchsub) StallReaders(n int) {
	for i := len(b.subs) - n; i < len(b.subs); i++ {
		if i >= 0 {
			b.subs[i].stalled.Store(true)
		}
	}
}

// StallReadersMatching stalls up to n readers whose subscribed topic
// satisfies pred, scanning from the end of the fleet (mirroring
// StallReaders). Returns how many were stalled. Mixed-class scenarios use
// it to stall only conflatable-topic readers, so drops stay within the
// droppable class.
func (b *Benchsub) StallReadersMatching(n int, pred func(topic string) bool) int {
	stalled := 0
	for i := len(b.subs) - 1; i >= 0 && stalled < n; i-- {
		if pred(b.subs[i].topic) {
			b.subs[i].stalled.Store(true)
			stalled++
		}
	}
	return stalled
}

// ReceivedFast reports the notifications consumed by connections that are
// NOT stalled — the fast-subscriber delivery count of a slow-consumer run.
func (b *Benchsub) ReceivedFast() int64 {
	var total int64
	for _, sc := range b.subs {
		if !sc.stalled.Load() {
			total += sc.received.Load()
		}
	}
	return total
}

// Recovered reports notifications replayed from server caches after
// reconnections.
func (b *Benchsub) Recovered() int64 { return b.recovered.Load() }

// Reconnects reports how many failovers completed.
func (b *Benchsub) Reconnects() int64 { return b.reconnects.Load() }

// Gaps reports observed per-topic completeness violations on
// reliable-class topics; the delivery guarantees require this to be zero.
func (b *Benchsub) Gaps() int64 { return b.gaps.Load() }

// DroppableGaps reports forward skips observed on droppable-class topics
// (see SubConfig.Droppable) — deliveries the overload policy legally
// conflated or dropped. Bounded by scenario thresholds, never required to
// be zero.
func (b *Benchsub) DroppableGaps() int64 { return b.dropGaps.Load() }

// Duplicates reports re-deliveries dropped by the per-connection position
// check. Non-zero after failovers is expected (at-least-once, §3).
func (b *Benchsub) Duplicates() int64 { return b.duplicates.Load() }

// Errors reports connection-level failures (failover mode retries instead
// of counting).
func (b *Benchsub) Errors() int64 { return b.errors.Load() }

// Close closes every connection.
func (b *Benchsub) Close() {
	b.closed.Store(true)
	for _, sc := range b.subs {
		sc.mu.Lock()
		if sc.conn != nil {
			sc.conn.Close()
		}
		sc.mu.Unlock()
	}
	b.wg.Wait()
}

// PubConfig parametrizes Benchpub.
type PubConfig struct {
	// Topics to publish to; every topic receives one message per Interval.
	Topics []string
	// Interval is the per-topic publication period (the paper publishes
	// one message per topic per second).
	Interval time.Duration
	// PayloadSize is the random-payload length (paper: 140 bytes for the
	// C1M scenario, 512 for C10M).
	PayloadSize int
	// Attach opens the publisher connection(s); one connection is opened
	// per Connections (default 1), topics split round-robin between them.
	Attach      AttachFunc
	Connections int
	// Reliable publishes with FlagAckRequired and republishes until
	// acknowledged — the paper's at-least-once publisher protocol (§3),
	// used by the fault-tolerance runs so no message is lost across a
	// coordinator takeover.
	Reliable bool
	// AckTimeout bounds one ack wait in reliable mode. Default 1s.
	AckTimeout time.Duration
	// Ramp modulates the publish rate over time: the instantaneous rate is
	// the base rate (one message per topic per Interval) multiplied by
	// Ramp(progress), with progress in [0, 1) over each RampPeriod. nil
	// keeps the constant base rate (and the ticker-driven loop unchanged).
	Ramp RampFunc
	// RampPeriod is the period Ramp cycles over. Default 30s.
	RampPeriod time.Duration
	// Seed fixes the payload randomness.
	Seed int64
}

// Benchpub publishes the configured workload until closed.
type Benchpub struct {
	cfg    PubConfig
	conns  []net.Conn
	sent   atomic.Int64
	bytes  atomic.Int64
	errs   atomic.Int64
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// StartBenchpub opens the publisher connections and starts the publication
// loop.
func StartBenchpub(cfg PubConfig) (*Benchpub, error) {
	if cfg.Attach == nil {
		return nil, ErrNoAttach
	}
	if len(cfg.Topics) == 0 {
		return nil, errors.New("loadgen: Benchpub needs at least one topic")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 140
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = time.Second
	}
	if cfg.RampPeriod <= 0 {
		cfg.RampPeriod = 30 * time.Second
	}
	p := &Benchpub{cfg: cfg, stop: make(chan struct{})}
	for i := 0; i < cfg.Connections; i++ {
		conn, err := cfg.Attach(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("loadgen: publisher attach %d: %w", i, err)
		}
		p.conns = append(p.conns, conn)
	}
	for i, conn := range p.conns {
		var topics []string
		for t := i; t < len(cfg.Topics); t += len(p.conns) {
			topics = append(topics, cfg.Topics[t])
		}
		if len(topics) == 0 {
			continue
		}
		p.wg.Add(1)
		go p.publishLoop(conn, topics, int64(i))
	}
	return p, nil
}

// publishLoop emits one message per topic per interval on one connection.
// Topic publications are spread across the interval (as independent
// publishers would be) rather than bursted at the tick.
func (p *Benchpub) publishLoop(conn net.Conn, topics []string, seed int64) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(p.cfg.Seed ^ (seed + 1)))
	payload := make([]byte, p.cfg.PayloadSize)
	rng.Read(payload)

	var acks *ackReader
	if p.cfg.Reliable {
		acks = newAckReader(conn)
		defer acks.stopWait()
	} else {
		// The server sends occasional frames back (publication failures,
		// acks from protocol replies); drain them so a never-reading
		// publisher cannot exert backpressure on its server.
		go drain(conn)
	}

	slice := p.cfg.Interval / time.Duration(len(topics))
	if slice <= 0 {
		slice = time.Microsecond
	}
	// Constant rate rides a ticker; a ramped rate re-arms a timer per
	// message with the slice divided by the ramp factor, so the shape
	// holds whatever the base rate is.
	var tick <-chan time.Time
	var timer *time.Timer
	rampStart := time.Now()
	if p.cfg.Ramp == nil {
		ticker := time.NewTicker(slice)
		defer ticker.Stop()
		tick = ticker.C
	} else {
		timer = time.NewTimer(p.rampWait(slice, rampStart))
		defer timer.Stop()
		tick = timer.C
	}
	next := 0
	seq := 0
	buf := make([]byte, 0, p.cfg.PayloadSize+64)
	for {
		select {
		case <-p.stop:
			return
		case <-tick:
		}
		if timer != nil {
			timer.Reset(p.rampWait(slice, rampStart))
		}
		topic := topics[next]
		next = (next + 1) % len(topics)
		seq++
		// Refresh a few payload bytes so messages are not identical.
		payload[seq%len(payload)] = byte(rng.Int())
		id := fmt.Sprintf("bp%d:%d", seed, seq)
		m := &protocol.Message{
			Kind:      protocol.KindPublish,
			Topic:     topic,
			ID:        id,
			Payload:   payload,
			Timestamp: time.Now().UnixNano(),
		}
		if p.cfg.Reliable {
			m.Flags = protocol.FlagAckRequired
			if !p.publishReliably(conn, acks, m, &buf) {
				return
			}
			continue
		}
		buf = protocol.AppendEncode(buf[:0], m)
		if _, err := conn.Write(buf); err != nil {
			if !p.closed.Load() {
				p.errs.Add(1)
			}
			return
		}
		p.sent.Add(1)
		p.bytes.Add(int64(len(buf)))
	}
}

// minRampFactor floors the ramp multiplier so a zero point in the shape
// (the trough of a sine, the baseline of a spike) idles the publisher
// instead of stopping it forever.
const minRampFactor = 0.02

// rampWait returns the next inter-message wait under the configured ramp:
// the base slice divided by the ramp factor at the current progress point.
func (p *Benchpub) rampWait(slice time.Duration, rampStart time.Time) time.Duration {
	elapsed := time.Since(rampStart) % p.cfg.RampPeriod
	progress := float64(elapsed) / float64(p.cfg.RampPeriod)
	f := p.cfg.Ramp(progress)
	if f < minRampFactor {
		f = minRampFactor
	}
	return time.Duration(float64(slice) / f)
}

// publishReliably sends m and waits for a positive ack, republishing on
// failure or timeout (at-least-once, §3). It reports false when the
// connection is unusable or the publisher is closing.
func (p *Benchpub) publishReliably(conn net.Conn, acks *ackReader, m *protocol.Message, buf *[]byte) bool {
	for attempt := 0; ; attempt++ {
		m.Timestamp = time.Now().UnixNano()
		*buf = protocol.AppendEncode((*buf)[:0], m)
		if _, err := conn.Write(*buf); err != nil {
			if !p.closed.Load() {
				p.errs.Add(1)
			}
			return false
		}
		p.bytes.Add(int64(len(*buf)))
		ok, alive := acks.await(m.ID, p.cfg.AckTimeout, p.stop)
		if !alive {
			if !p.closed.Load() {
				p.errs.Add(1)
			}
			return false
		}
		if ok {
			p.sent.Add(1)
			return true
		}
		// Rejected or timed out: republish after a short pause.
		select {
		case <-p.stop:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// drain discards everything the server sends.
func drain(conn net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// ackReader consumes publication acks from a publisher connection.
type ackReader struct {
	mu      sync.Mutex
	results map[string]uint8 // publication ID -> status
	cond    *sync.Cond
	dead    bool
}

func newAckReader(conn net.Conn) *ackReader {
	a := &ackReader{results: make(map[string]uint8)}
	a.cond = sync.NewCond(&a.mu)
	go a.loop(conn)
	return a
}

func (a *ackReader) loop(conn net.Conn) {
	// Acks arrive at the publish rate in reliable mode; pooled messages
	// keep the wait loop allocation-free (the retained ID is an immutable
	// string, safe past the release).
	var dec protocol.StreamDecoder
	dec.PoolMessages = true
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			dec.Feed(buf[:n])
			for {
				m, derr := dec.Next()
				if derr != nil {
					a.kill()
					return
				}
				if m == nil {
					break
				}
				if m.Kind == protocol.KindPubAck {
					a.mu.Lock()
					a.results[m.ID] = m.Status
					a.mu.Unlock()
					a.cond.Broadcast()
				}
				protocol.ReleaseMessage(m)
			}
		}
		if err != nil {
			a.kill()
			return
		}
	}
}

func (a *ackReader) kill() {
	a.mu.Lock()
	a.dead = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// await blocks for the ack of id. ok means positively acknowledged; alive
// is false when the connection died.
func (a *ackReader) await(id string, timeout time.Duration, stop <-chan struct{}) (ok, alive bool) {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() { a.cond.Broadcast() })
	defer wake.Stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if status, got := a.results[id]; got {
			delete(a.results, id)
			return status == protocol.StatusOK, true
		}
		if a.dead {
			return false, false
		}
		select {
		case <-stop:
			return false, true
		default:
		}
		if time.Now().After(deadline) {
			return false, true // timed out: caller republishes
		}
		a.cond.Wait()
	}
}

// stopWait releases the reader (the connection close does the real work).
func (a *ackReader) stopWait() { a.cond.Broadcast() }

// Sent reports the number of publications issued.
func (p *Benchpub) Sent() int64 { return p.sent.Load() }

// Errors reports publish failures.
func (p *Benchpub) Errors() int64 { return p.errs.Load() }

// Close stops publishing and closes the connections.
func (p *Benchpub) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	p.wg.Wait()
}
