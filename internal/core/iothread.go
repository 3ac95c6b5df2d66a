package core

import (
	"sync"
	"time"

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
	// evTick writes the held chains whose batching delay expired.
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

// stagedFrame is one frame accepted for a client and not yet written, with
// its overload-policy metadata. A client's frames are chained through next,
// a 1-based index into ioThread.staged (0 ends the chain); a free slot is
// chained the same way onto ioThread.free.
type stagedFrame struct {
	frame     []byte
	topic     string
	droppable bool
	next      int32
}

// writeChunkBytes bounds one coalesced write — a chain's frames for one
// client, or a backlog drain — to whole frames totalling at most this much
// (a larger frame goes alone); with batching on, BatchMaxBytes raises it
// (ioThread.chunk). It is also what one write can leave in the transport
// carry on top of the client's budget.
const writeChunkBytes = 4 << 10

// maxStagedFrames flushes a pass early, so without a hold the staging
// array's retained capacity stays small however large a batch the queue
// hands over. With one, the array holds what the held chains hold, each at
// most one write.
const maxStagedFrames = 512

// ioThread is one I/O-layer thread (paper §4): it owns the read-side
// decoding and the write side of every client pinned to it. Because a
// client is touched by exactly one ioThread, its decoder and output chain
// need no locks — the property the paper credits for the I/O layer's
// vertical scalability.
type ioThread struct {
	index  int
	in     *queue.MPSC[ioEvent]
	engine *Engine

	// stalled tracks clients whose transport write stalled (carried bytes
	// or a non-empty backlog); retryArmed guards the single retry timer.
	stalled    map[*Client]struct{}
	retryArmed bool

	// poll is this thread's lazily-created readiness loop (see poll.go);
	// pollOnce guards creation and pollErr latches why there is none (a
	// failed creation, or Engine.Close sealing the Once).
	pollOnce sync.Once
	poll     *pollLoop
	pollErr  error

	// staged holds the frames accepted and not yet written, chained per
	// client (Client.passHead/passTail), and dirty the clients holding a
	// chain, each listed once (Client.listed), in first-touch order.
	// Without a hold, flushPass writes every chain when the loop pass ends
	// and clears the array. With one, chains outlive their pass, popChain
	// puts each written slot on the free list for stage to reuse, and
	// flushHeld writes the chains whose hold expired.
	staged []stagedFrame
	dirty  []*Client
	free   int32

	// hold is how long a chain may wait for more frames (BatchMaxDelay; 0
	// writes it when its pass ends), chunk the most one coalesced write
	// carries, and epoch the origin of Client.passSince.
	hold  time.Duration
	chunk int
	epoch time.Time

	// drainScratch is the reused buffer coalesced writes are built in.
	drainScratch []byte
}

func newIoThread(index int, e *Engine) *ioThread {
	t := &ioThread{
		index:   index,
		in:      queue.NewMPSC[ioEvent](),
		engine:  e,
		stalled: make(map[*Client]struct{}),
		chunk:   writeChunkBytes,
		epoch:   time.Now(),
	}
	if e.cfg.BatchMaxDelay > 0 {
		// A held chain is always written whole, in one write, so the write
		// cap must fit a full batch.
		t.hold = e.cfg.BatchMaxDelay
		t.chunk = max(writeChunkBytes, e.cfg.BatchMaxBytes)
	}
	return t
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
		t.flushHeld(time.Now())
	case evFunc:
		ev.fn()
	case evStallRetry:
		t.retryStalled()
	}
}

// do runs fn on the IoThread loop and waits for it to complete, reporting
// false without running fn if the thread has shut down. Tests use it to
// inspect ioThread-owned state (chains, backlogs) without races.
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

// handleWrite adds the frame to the client's output.
func (t *ioThread) handleWrite(ev *ioEvent) {
	c := ev.c
	if c.closed.Load() {
		// Staged before the teardown won: nobody consumes the charge.
		c.releaseEgress(int64(len(ev.data)), 1)
		return
	}
	t.batchFrame(c, ev.data, ev.topic, ev.droppable, time.Now())
}

// handleWriteMulti adds one shared frame to the output of every client in
// the set — the IoThread half of grouped fan-out. One time.Now() covers
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

// batchFrame adds one frame to c's chain (stage). Without a hold the chain
// is written when this loop pass ends, with every other frame the pass
// staged for c; with one (paper §4's batching) it is written once it
// reaches BatchMaxBytes, once the next frame would not fit in one write, or
// once its oldest frame is BatchMaxDelay old. A client whose transport has
// stalled (or that still holds a pressure backlog) first gets an inline
// recovery attempt — a reader that merely hiccuped must not be throttled to
// the retry-timer cadence — and, if still blocked, the frame diverts into
// the bounded backlog under the client's current pressure tier.
func (t *ioThread) batchFrame(c *Client, frame []byte, topic string, droppable bool, now time.Time) {
	if rec := t.engine.recorder; rec != nil {
		// Every outbound frame passes through here exactly once, before
		// batching or a pressure-backlog divert can coalesce or drop it —
		// the capture records what the engine *staged*, which is what a
		// replay must reproduce.
		rec.RecordOut(c.id, frame)
	}
	// A frame that finds c blocked, or that would overflow the held chain's
	// one write, sends the chain first — it is older than frame: written if
	// the transport is free (recoverEgress frees a blocked one where it
	// can), diverted into the backlog if not.
	full := t.hold > 0 && c.passHead != 0 && int(c.passBytes)+len(frame) > t.chunk
	if full || c.egressBlocked() {
		t.recoverEgress(c, now)
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
	t.stage(c, frame, topic, droppable, now)
}

// stage chains frame onto c's output. The frames live in the
// ioThread-owned staged array; a client carries only its chain's two ends,
// its size and its age, so no client holds a buffer of its own. With a
// hold, a chain that reaches BatchMaxBytes is written at once.
//
//vet:hotpath
func (t *ioThread) stage(c *Client, frame []byte, topic string, droppable bool, now time.Time) {
	f := stagedFrame{frame: frame, topic: topic, droppable: droppable}
	i := t.free
	if i != 0 {
		t.free = t.staged[i-1].next
		t.staged[i-1] = f
	} else {
		t.staged = append(t.staged, f)
		i = int32(len(t.staged))
	}
	if c.passHead == 0 {
		c.passHead = i
		if !c.listed {
			c.listed = true
			t.dirty = append(t.dirty, c)
		}
	} else {
		t.staged[c.passTail-1].next = i
	}
	c.passTail = i
	if t.hold <= 0 {
		if len(t.staged) >= maxStagedFrames {
			t.flushPass()
		}
		return
	}
	if c.passHead == i { // frame starts the chain
		c.passBytes = 0
		c.passSince = now.Sub(t.epoch)
	}
	c.passBytes += int32(len(frame))
	if limit := t.engine.cfg.BatchMaxBytes; limit > 0 && int(c.passBytes) >= limit {
		t.writePending(c)
	}
}

// flushPass ends a loop pass: every client the pass staged frames for has
// its chain written, in first-touch order — one write for a lone frame,
// writeChunkBytes-sized ones for many. This is where batching-off output
// coalesces, with no timer: frames that met in one pass share a write.
// With a hold it does nothing; flushHeld and the size triggers write.
//
//vet:hotpath
func (t *ioThread) flushPass() {
	if t.hold > 0 {
		return
	}
	for _, c := range t.dirty {
		c.listed = false
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
// the chain, which is never the older of the two (a frame is staged only
// while c is unblocked) — one chunk per write, until the client blocks or
// closes. The unwritten rest of the chain then diverts in order through
// pushBacklog, so the pressure tiers apply to it as to any frame for a
// blocked client.
func (t *ioThread) writePending(c *Client) {
	for !c.closed.Load() && c.stallBytes() == 0 {
		out, frames := t.nextChunk(c)
		if frames == 0 || !t.write(c, out, frames) {
			return
		}
	}
	for c.passHead != 0 && !c.closed.Load() {
		f := t.staged[c.passHead-1]
		t.popChain(c)
		t.pushBacklog(c, f.frame, f.topic, f.droppable)
	}
}

// nextChunk takes c's next write off the backlog and then the chain: whole
// frames totalling at most t.chunk, or one larger frame. A single frame is
// returned as it is; several are concatenated into drainScratch.
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
		if frames > 0 && len(out)+len(f) > t.chunk {
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

// popChain advances c's chain past its head. With a hold the freed slot
// goes on the free list, since other chains outlive the pass; without one
// flushPass clears the whole array when the pass ends.
func (t *ioThread) popChain(c *Client) {
	i := c.passHead
	f := &t.staged[i-1]
	if c.passHead = f.next; c.passHead == 0 {
		c.passTail = 0
	}
	if t.hold > 0 {
		*f = stagedFrame{next: t.free}
		t.free = i
	}
}

// flushHeld is the hold's delay trigger, run on each engine tick: one pass
// over dirty writes every chain whose oldest frame is BatchMaxDelay old and
// forgets every client whose chain is gone (written by size, or released
// by teardown).
func (t *ioThread) flushHeld(now time.Time) {
	due := now.Sub(t.epoch) - t.hold
	held := t.dirty[:0]
	for _, c := range t.dirty {
		if c.passHead != 0 && c.passSince <= due {
			t.writePending(c)
		}
		if c.passHead == 0 {
			c.listed = false
			continue
		}
		held = append(held, c)
	}
	clear(t.dirty[len(held):])
	t.dirty = held
}

// recoverEgress opportunistically services a blocked client from the
// delivery path. A transport with no carried bytes is free — only the
// backlog's FIFO ordering blocks the fast path — so it drains inline at
// wire speed (the recovery a fast reader needs after a momentary hiccup).
// A still-carried transport is retried at most once per stallRetryEvery
// per client; the timer-driven retry otherwise owns it.
func (t *ioThread) recoverEgress(c *Client, now time.Time) {
	if c.stallBytes() > 0 {
		if now.Sub(c.lastRetry) < stallRetryEvery {
			return
		}
		c.lastRetry = now
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
		c.backlog = queue.NewBounded(t.engine.egressBudgetBytes, egressBudgetEvents,
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

// stallRetryEvery is the overload path's one fixed timing: the cadence of
// retry flushes for stalled clients. A retry is one non-blocking write, so
// it costs the IoThread no wait however many clients are stalled.
const stallRetryEvery = 10 * time.Millisecond

// retryStalled re-attempts transport flushes for stalled clients,
// re-arming the timer while any remain.
func (t *ioThread) retryStalled() {
	t.retryArmed = false
	for c := range t.stalled {
		if c.closed.Load() {
			t.unmarkStalled(c)
			continue
		}
		t.flushStalled(c)
	}
	if len(t.stalled) > 0 {
		t.armRetry()
	}
}

// flushStalled drives one stalled client toward recovery: drain the
// transport carry, then the pressure backlog and the chain — in that order,
// preserving the wire order of every surviving frame. The client leaves the
// stalled set once everything is flushed.
func (t *ioThread) flushStalled(c *Client) {
	if c.stallBytes() > 0 {
		flushed, err := c.framed.FlushStalled()
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
	t.writePending(c)
	if !c.closed.Load() && c.stallBytes() == 0 && (c.backlog == nil || c.backlog.Len() == 0) {
		t.unmarkStalled(c)
	}
}

// write sends a batch of frames to the client, tearing the connection down
// on error. A stalling transport consumes the batch into its carry buffer
// instead of blocking: the carried bytes stay charged to the client's
// egress budget until a later flush drains them, and the client joins the
// stalled set. Reports whether the client is still usable (false after
// teardown).
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
