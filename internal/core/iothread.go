package core

import (
	"sync"
	"time"

	"migratorydata/internal/batch"
	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
)

// ioEventKind discriminates IoThread queue events.
type ioEventKind uint8

const (
	// evBytes carries bytes received from a client's connection.
	evBytes ioEventKind = iota + 1
	// evWrite carries an encoded frame (or batch) to send to a client.
	evWrite
	// evWriteMulti carries one encoded frame shared by every client in a
	// pooled write set — the grouped fan-out path: a Worker delivering to N
	// subscribers pinned to this IoThread enqueues one of these instead of
	// N evWrite events.
	evWriteMulti
	// evClose requests connection teardown.
	evClose
	// evTick drives time-based batch flushing.
	evTick
	// evFunc runs a closure on the IoThread loop (introspection and tests:
	// ioThread-owned state can be read without races only from here).
	evFunc
	// evStallRetry re-attempts transport flushes for stalled clients. It is
	// self-scheduled (a timer armed while the stalled set is non-empty), so
	// engines without slow consumers pay nothing.
	evStallRetry
)

// ioEvent is one unit of IoThread work. topic and droppable are the
// overload-policy metadata of write events: which topic the frame belongs
// to and whether the pressure tiers may conflate or drop it.
type ioEvent struct {
	kind      ioEventKind
	c         *Client
	data      []byte
	set       *writeSet // evWriteMulti payload
	fn        func()    // evFunc payload
	topic     string
	droppable bool
}

// writeSet is a pooled list of fan-out targets for one evWriteMulti event.
// A Worker fills it, the receiving IoThread drains it and returns it to the
// pool, so steady-state grouped fan-out allocates nothing.
type writeSet struct {
	clients []*Client
}

var writeSetPool = sync.Pool{New: func() any { return new(writeSet) }}

// getWriteSet returns an empty writeSet from the pool.
func getWriteSet() *writeSet { return writeSetPool.Get().(*writeSet) }

// release clears the client references (so the GC can reclaim torn-down
// clients) and returns the set to the pool.
func (ws *writeSet) release() {
	for i := range ws.clients {
		ws.clients[i] = nil
	}
	ws.clients = ws.clients[:0]
	writeSetPool.Put(ws)
}

// stagedFrame is one frame a loop pass accepted for a client, with its
// overload-policy metadata. A client's frames are chained through next, a
// 1-based index into ioThread.staged (0 ends the chain).
type stagedFrame struct {
	frame     []byte
	topic     string
	droppable bool
	next      int32
}

// writeChunkBytes bounds one coalesced write — a pass's frames for one
// client, or a backlog drain — to whole frames totalling at most this much
// (a larger frame goes alone). It is also what one write can leave in the
// transport carry on top of the client's budget.
const writeChunkBytes = 4 << 10

// maxStagedFrames flushes a pass early, so the staging array's retained
// capacity stays small however large a batch the queue hands over.
const maxStagedFrames = 512

// ioThread is one I/O-layer thread (paper §4): it owns the read-side
// decoding and the write side of every client pinned to it. Because a
// client is touched by exactly one ioThread, its decoder and batcher need
// no locks — the property the paper credits for the I/O layer's vertical
// scalability.
type ioThread struct {
	index  int
	in     *queue.MPSC[ioEvent]
	engine *Engine

	// pendingFlush tracks clients with batched-but-unflushed output, so
	// ticks only visit clients that need it.
	pendingFlush map[*Client]struct{}

	// stalled tracks clients whose transport write stalled (carried bytes
	// or a non-empty backlog); retryArmed guards the single retry timer,
	// and lastProbe rate-limits inline blocking probes thread-wide.
	stalled    map[*Client]struct{}
	retryArmed bool
	lastProbe  time.Time

	// poll is this thread's lazily-created readiness loop (see poll.go);
	// pollOnce guards creation and pollErr latches why there is none (a
	// failed creation, or Engine.Close sealing the Once).
	pollOnce sync.Once
	poll     *pollLoop
	pollErr  error

	// staged holds the frames this loop pass accepted, chained per client
	// (Client.passHead/passTail), and dirty the clients holding a chain, in
	// first-touch order; flushPass writes every chain when the pass ends.
	staged []stagedFrame
	dirty  []*Client

	// drainScratch is the reused buffer coalesced writes are built in.
	drainScratch []byte
}

func newIoThread(index int, e *Engine) *ioThread {
	return &ioThread{
		index:        index,
		in:           queue.NewMPSC[ioEvent](),
		engine:       e,
		pendingFlush: make(map[*Client]struct{}),
		stalled:      make(map[*Client]struct{}),
	}
}

// run is the IoThread loop. It exits when the queue is closed and drained.
// One pass handles one queue batch and then writes what it staged, before
// the loop parks again.
func (t *ioThread) run() {
	defer t.engine.wg.Done()
	for {
		batch, ok := t.in.PopWait()
		if !ok {
			return
		}
		start := time.Now()
		for i := range batch {
			t.handle(&batch[i])
		}
		t.flushPass()
		t.engine.cpu.AddBusy(time.Since(start))
		t.in.Recycle(batch)
	}
}

func (t *ioThread) handle(ev *ioEvent) {
	switch ev.kind {
	case evBytes:
		t.handleBytes(ev.c, ev.data)
	case evWrite:
		t.handleWrite(ev)
	case evWriteMulti:
		t.handleWriteMulti(ev)
	case evClose:
		t.teardown(ev.c)
	case evTick:
		t.flushDue()
	case evFunc:
		ev.fn()
	case evStallRetry:
		t.retryStalled()
	}
}

// do runs fn on the IoThread loop and waits for it to complete, reporting
// false without running fn if the thread has shut down. Tests use it to
// inspect ioThread-owned state (pendingFlush, batchers) without races.
func (t *ioThread) do(fn func()) bool {
	done := make(chan struct{})
	if !t.in.Push(ioEvent{kind: evFunc, fn: func() {
		defer close(done)
		fn()
	}}) {
		return false
	}
	<-done
	return true
}

// handleBytes feeds received bytes to the client's decoder and dispatches
// every complete message to the client's Worker ("Whenever an IoThread
// receives enough bytes from a client to decode them as a MigratoryData
// message, it adds that message to the queue of the Worker assigned to that
// client", §4). The chunk is pool-backed and dead once fed, so it is
// recycled here — the read path's steady state allocates nothing.
//
//vet:hotpath
func (t *ioThread) handleBytes(c *Client, data []byte) {
	defer RecycleReadChunk(data)
	if c.closed.Load() {
		return
	}
	c.decoder.Feed(data)
	for {
		m, err := c.decoder.Next()
		if err != nil {
			t.engine.logger.Debug("protocol error, closing client",
				"client", c.RemoteAddr(), "err", err)
			t.teardown(c)
			return
		}
		if m == nil {
			return
		}
		if rec := t.engine.recorder; rec != nil {
			// Tap before the worker push: Push transfers ownership of the
			// pooled message, so this is the last point m is safely readable.
			rec.RecordIn(c.id, m)
		}
		if !c.worker.in.Push(workerEvent{kind: weClientMsg, c: c, msg: m}) {
			// The worker queue only rejects after Close (engine shutdown
			// racing the read path). The decoder's messages and payloads are
			// pool-backed; dropping m without releasing would leak a pool
			// slot per in-flight message at shutdown.
			protocol.ReleaseMessage(m)
			return
		}
	}
}

// handleWrite batches the frame for the client and writes when the batcher
// says so.
func (t *ioThread) handleWrite(ev *ioEvent) {
	c := ev.c
	if c.closed.Load() {
		// Staged before the teardown won: nobody consumes the charge.
		c.releaseEgress(int64(len(ev.data)), 1)
		return
	}
	t.batchFrame(c, ev.data, ev.topic, ev.droppable, time.Now())
}

// handleWriteMulti feeds one shared frame into the batcher of every client
// in the set — the IoThread half of grouped fan-out. One time.Now() covers
// the whole set, and the set returns to its pool afterwards.
func (t *ioThread) handleWriteMulti(ev *ioEvent) {
	now := time.Now()
	frame := ev.data
	for _, c := range ev.set.clients {
		if c.closed.Load() {
			c.releaseEgress(int64(len(frame)), 1)
			continue
		}
		t.batchFrame(c, frame, ev.topic, ev.droppable, now)
	}
	ev.set.release()
}

// batchFrame adds one frame to c's output. With batching off the frame
// joins c's chain for this loop pass; otherwise it goes to c's batcher,
// writing on a size-triggered flush and tracking delay-triggered flushes in
// pendingFlush. A client whose transport has stalled (or that still holds a
// pressure backlog) first gets an inline recovery attempt — a reader that
// merely hiccuped must not be throttled to the retry-timer cadence — and,
// if still blocked, the frame diverts into the bounded backlog under the
// client's current pressure tier.
func (t *ioThread) batchFrame(c *Client, frame []byte, topic string, droppable bool, now time.Time) {
	if rec := t.engine.recorder; rec != nil {
		// Every outbound frame passes through here exactly once, before
		// batching or a pressure-backlog divert can coalesce or drop it —
		// the capture records what the engine *staged*, which is what a
		// replay must reproduce.
		rec.RecordOut(c.id, frame)
	}
	if t.engine.protect && c.egressBlocked() {
		t.recoverEgress(c, now)
		// A chain staged earlier in this pass is older than frame, so it
		// goes first: written if recovery freed the transport, diverted
		// into the backlog if not.
		t.writePending(c)
		if c.closed.Load() {
			c.releaseEgress(int64(len(frame)), 1)
			return
		}
		if c.egressBlocked() {
			t.pushBacklog(c, frame, topic, droppable)
			return
		}
	}
	if t.engine.cfg.BatchMaxDelay <= 0 {
		// Batching off (the default): the frame is written when this loop
		// pass ends, with every other frame the pass staged for c. No
		// Batcher is ever materialized — at C10M scale its struct and buffer
		// are pure per-connection overhead.
		t.stage(c, frame, topic, droppable)
		return
	}
	if c.batcher == nil {
		// Batching on: materialized on first write, not at attach — an
		// idle connection pays nothing.
		c.batcher = batch.NewBatcher(t.engine.cfg.BatchMaxBytes, t.engine.cfg.BatchMaxDelay)
	}
	c.batched++
	out := c.batcher.Add(now, frame)
	if out == nil {
		t.pendingFlush[c] = struct{}{}
		return
	}
	// The flush drained everything pending for c, so a stale pendingFlush
	// entry (from frames batched earlier in this interval) must go too —
	// otherwise every tick would re-visit a client with nothing due.
	delete(t.pendingFlush, c)
	frames := c.batched
	c.batched = 0
	t.write(c, out, frames)
}

// stage chains frame onto c's pass. The frames live in the ioThread-owned
// staged array; a client carries only its chain's two ends, so no client
// holds a buffer of its own.
//
//vet:hotpath
func (t *ioThread) stage(c *Client, frame []byte, topic string, droppable bool) {
	t.staged = append(t.staged, stagedFrame{frame: frame, topic: topic, droppable: droppable})
	i := int32(len(t.staged))
	if c.passHead == 0 {
		c.passHead = i
		t.dirty = append(t.dirty, c)
	} else {
		t.staged[c.passTail-1].next = i
	}
	c.passTail = i
	if len(t.staged) >= maxStagedFrames {
		t.flushPass()
	}
}

// flushPass ends a loop pass: every client the pass staged frames for has
// its chain written, in first-touch order — one write for a lone frame,
// writeChunkBytes-sized ones for many. This is where batching-off output
// coalesces, with no timer: frames that met in one pass share a write.
//
//vet:hotpath
func (t *ioThread) flushPass() {
	for _, c := range t.dirty {
		if c.passHead != 0 { // else written early, or released by teardown
			t.writePending(c)
		}
	}
	clear(t.dirty)
	t.dirty = t.dirty[:0]
	clear(t.staged)
	t.staged = t.staged[:0]
}

// writePending writes c's unwritten frames — the pressure backlog, then
// this pass's chain, which is never the older of the two (a frame is
// staged only while c is unblocked) — one chunk per write, until the
// client blocks or closes. The unwritten rest of the chain then diverts in
// order through pushBacklog, so the pressure tiers apply to it as to any
// frame for a blocked client.
func (t *ioThread) writePending(c *Client) {
	for !c.closed.Load() && c.stallBytes() == 0 {
		out, frames := t.nextChunk(c)
		if frames == 0 || !t.write(c, out, frames) {
			return
		}
	}
	for c.passHead != 0 && !c.closed.Load() {
		f := &t.staged[c.passHead-1]
		t.popChain(c)
		t.pushBacklog(c, f.frame, f.topic, f.droppable)
	}
}

// nextChunk takes c's next write off the backlog and then the chain: whole
// frames totalling at most writeChunkBytes, or one larger frame. A single
// frame is returned as it is; several are concatenated into drainScratch.
func (t *ioThread) nextChunk(c *Client) (out []byte, frames int64) {
	for {
		var f []byte
		fromBacklog := c.backlog != nil && c.backlog.Len() > 0
		switch {
		case fromBacklog:
			it, _ := c.backlog.Peek()
			f = it.Value
		case c.passHead != 0:
			f = t.staged[c.passHead-1].frame
		default:
			return out, frames
		}
		if frames > 0 && len(out)+len(f) > writeChunkBytes {
			return out, frames
		}
		if fromBacklog {
			c.backlog.Pop()
		} else {
			t.popChain(c)
		}
		if frames == 0 {
			out = f
		} else {
			if frames == 1 {
				t.drainScratch = append(t.drainScratch[:0], out...)
			}
			t.drainScratch = append(t.drainScratch, f...)
			out = t.drainScratch
		}
		frames++
	}
}

// popChain advances c's chain past its head.
func (t *ioThread) popChain(c *Client) {
	if c.passHead = t.staged[c.passHead-1].next; c.passHead == 0 {
		c.passTail = 0
	}
}

// recoverEgress opportunistically services a blocked client from the
// delivery path. A transport with no carried bytes is free — only the
// backlog's FIFO ordering blocks the fast path — so it drains inline at
// wire speed (the recovery a fast reader needs after a momentary hiccup).
// A still-carried transport is probed at most once per stallRetryEvery per
// client AND behind a thread-wide probe-rate limit (one blocking probe per
// 2 × stallProbe), so inline probe time stays bounded no matter how many
// stalled clients keep receiving traffic; the timer-driven retry otherwise
// owns them.
func (t *ioThread) recoverEgress(c *Client, now time.Time) {
	if c.stallBytes() > 0 {
		if now.Sub(c.lastProbe) < stallRetryEvery ||
			now.Sub(t.lastProbe) < 2*stallProbe {
			return
		}
		c.lastProbe = now
		t.lastProbe = now
	}
	t.flushStalled(c)
}

// pushBacklog stages one frame into c's bounded pressure backlog, applying
// the delivery policy of the client's current tier: append while healthy,
// per-topic conflation at TierConflate, drop-oldest-conflatable at
// TierDrop. When even eviction cannot satisfy the budget — only reliable
// traffic remains — the client has reached TierCritical and is fenced off.
func (t *ioThread) pushBacklog(c *Client, frame []byte, topic string, droppable bool) {
	if c.backlog == nil {
		c.backlog = queue.NewBounded(t.engine.egressBudgetBytes, int(t.engine.egressBudgetEvents),
			func(it queue.BoundedItem[[]byte]) {
				// Policy drop (conflated away or evicted): release the
				// budget and count it.
				c.releaseEgress(it.Size, 1)
				t.engine.stats.pressure.Drops.Inc()
			})
	}
	mode := queue.PushAppend
	switch tier := c.tier(); {
	case tier >= TierDrop:
		mode = queue.PushEvict
	case tier >= TierConflate:
		mode = queue.PushConflate
	}
	res := c.backlog.Push(queue.BoundedItem[[]byte]{
		Value: frame, Size: int64(len(frame)), Key: topic, Droppable: droppable,
	}, mode)
	if !res.Stored {
		c.releaseEgress(int64(len(frame)), 1)
		return
	}
	t.markStalled(c)
	if res.OverBudget && c.tier() >= TierCritical {
		t.overloadDisconnect(c)
	}
}

// overloadDisconnect fences a critically-overloaded client: a best-effort
// terminal DISCONNECT frame (so a live-but-slow client knows to reconnect
// rather than wait), then teardown. The client recovers losslessly by
// resubscribing with its last (epoch, seq) position — the history cache
// replays everything it missed, the same path as any reconnection (§3).
func (t *ioThread) overloadDisconnect(c *Client) {
	t.engine.stats.pressure.Disconnects.Inc()
	t.engine.logger.Debug("overload: disconnecting slow consumer",
		"client", c.RemoteAddr(), "egress_bytes", c.egress.bytes.Load())
	_ = c.framed.WriteBatch(terminalDisconnectFrame())
	t.teardown(c)
}

// terminalDisconnectFrame returns the shared pre-encoded fenced-disconnect
// frame (StatusRedirect: resume on a fresh connection).
var terminalDisconnectFrame = sync.OnceValue(func() []byte {
	return protocol.Encode(&protocol.Message{
		Kind:   protocol.KindDisconnect,
		Status: protocol.StatusRedirect,
	})
})

// markStalled tracks c for retry flushes and arms the retry timer.
func (t *ioThread) markStalled(c *Client) {
	if _, ok := t.stalled[c]; ok {
		return
	}
	t.stalled[c] = struct{}{}
	c.egress.stalled.Store(true)
	t.armRetry()
}

// unmarkStalled removes c from the stalled set.
func (t *ioThread) unmarkStalled(c *Client) {
	if _, ok := t.stalled[c]; !ok {
		return
	}
	delete(t.stalled, c)
	c.egress.stalled.Store(false)
}

// armRetry schedules one evStallRetry unless one is already pending.
func (t *ioThread) armRetry() {
	if t.retryArmed {
		return
	}
	t.retryArmed = true
	in := t.in
	time.AfterFunc(stallRetryEvery, func() {
		in.Push(ioEvent{kind: evStallRetry}) // no-op after engine close
	})
}

// The overload path's fixed timings. writeStallTimeout bounds one transport
// write under overload protection: a write that cannot complete within it
// diverts the remainder into the framing's carry buffer instead of blocking
// the IoThread. stallRetryEvery is the cadence of retry flushes for stalled
// clients; stallProbe bounds one retry-flush write attempt against a stalled
// transport.
const (
	writeStallTimeout = 2 * time.Millisecond
	stallRetryEvery   = 10 * time.Millisecond
	stallProbe        = 500 * time.Microsecond
)

// maxProbesPerRetry caps the blocking carry probes one retry tick may
// issue, so the IoThread time lost to full-transport probes stays bounded
// (≤ maxProbesPerRetry × stallProbe per stallRetryEvery) no matter how
// many clients are stalled — Go's randomized map iteration rotates which
// clients get probed each tick. Clients whose transport is free (backlog
// only) are always serviced: their drains cost no probe time.
const maxProbesPerRetry = 4

// retryStalled re-attempts transport flushes for stalled clients,
// re-arming the timer while any remain.
func (t *ioThread) retryStalled() {
	t.retryArmed = false
	probes := 0
	for c := range t.stalled {
		if c.closed.Load() {
			t.unmarkStalled(c)
			continue
		}
		if c.stallBytes() > 0 {
			if probes >= maxProbesPerRetry {
				continue // next tick; map order rotates fairness
			}
			probes++
		}
		t.flushStalled(c)
	}
	if len(t.stalled) > 0 {
		t.armRetry()
	}
}

// flushStalled drives one stalled client toward recovery: drain the
// transport carry, then any batched-but-unflushed output, then the pressure
// backlog and this pass's chain — in that order, preserving the wire order
// of every surviving frame. The client leaves the stalled set once
// everything is flushed.
func (t *ioThread) flushStalled(c *Client) {
	if c.stallBytes() > 0 {
		flushed, err := c.framed.FlushStalled(stallProbe)
		if flushed > 0 {
			c.releaseEgress(flushed, 0)
			t.engine.stats.egress.FlushBytes.Add(flushed)
			t.engine.traffic.AddBytes(flushed)
		}
		if err != nil {
			t.engine.logger.Debug("stall flush error, closing client",
				"client", c.RemoteAddr(), "err", err)
			t.teardown(c)
			return
		}
	}
	if c.stallBytes() > 0 {
		return // transport still full; retry later
	}
	if c.batcher != nil && c.batcher.Pending() > 0 {
		out := c.batcher.Flush()
		frames := c.batched
		c.batched = 0
		delete(t.pendingFlush, c)
		if !t.write(c, out, frames) {
			return
		}
	}
	t.writePending(c)
	if !c.closed.Load() && c.stallBytes() == 0 && (c.backlog == nil || c.backlog.Len() == 0) {
		t.unmarkStalled(c)
	}
}

// flushDue flushes every client whose batch delay has expired.
func (t *ioThread) flushDue() {
	if len(t.pendingFlush) == 0 {
		return
	}
	now := time.Now()
	for c := range t.pendingFlush {
		if c.closed.Load() {
			delete(t.pendingFlush, c)
			continue
		}
		frames := c.batched
		out := c.batcher.Due(now)
		if out == nil {
			if c.batcher.Pending() == 0 {
				delete(t.pendingFlush, c)
			}
			continue
		}
		delete(t.pendingFlush, c)
		c.batched = 0
		t.write(c, out, frames)
	}
}

// write sends a batch of frames to the client, tearing the connection down
// on error. With overload protection, a stalling transport consumes the
// batch into its carry buffer instead of blocking: the carried bytes stay
// charged to the client's egress budget until a later flush drains them,
// and the client joins the stalled set. Reports whether the client is still
// usable (false after teardown).
func (t *ioThread) write(c *Client, out []byte, frames int64) bool {
	before := c.stallBytes()
	err := c.framed.WriteBatch(out)
	if err != nil {
		c.releaseEgress(int64(len(out)), frames)
		t.engine.logger.Debug("write error, closing client",
			"client", c.RemoteAddr(), "err", err)
		t.teardown(c)
		return false
	}
	carried := max(c.stallBytes()-before, 0)
	// Frames are consumed (wire or carry): release their events now, and
	// the bytes that actually left; carried bytes stay charged until a
	// retry flush drains them.
	c.releaseEgress(int64(len(out))-carried, frames)
	if carried > 0 {
		t.markStalled(c)
	}
	t.engine.stats.egress.Flushes.Inc()
	t.engine.stats.egress.FlushBytes.Add(int64(len(out)) - carried)
	t.engine.traffic.AddBytes(int64(len(out)) - carried)
	return true
}

// teardown closes the connection and detaches the client from its Worker.
// Idempotent: the first caller wins.
func (t *ioThread) teardown(c *Client) {
	if c.closed.Swap(true) {
		return
	}
	if rec := t.engine.recorder; rec != nil {
		rec.RecordClose(c.id)
	}
	if pl := c.poll.Load(); pl != nil {
		// Deregister before closing the transport so a readiness event
		// cannot race the close (RawConn operations on a closed conn fail
		// cleanly either way — this just avoids the churn).
		pl.unregister(c)
	}
	delete(t.pendingFlush, c)
	t.unmarkStalled(c)
	// Teardown, not policy: release the budget of the unwritten chain and
	// backlog without counting drops.
	for c.passHead != 0 {
		c.releaseEgress(int64(len(t.staged[c.passHead-1].frame)), 1)
		t.popChain(c)
	}
	if c.backlog != nil {
		c.backlog.Close(func(it queue.BoundedItem[[]byte]) {
			c.releaseEgress(it.Size, 1)
		})
	}
	_ = c.framed.Close()
	c.worker.in.Push(workerEvent{kind: weDetach, c: c})
	t.engine.unregister(c)
}
