package core

import (
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
)

// workerEventKind discriminates Worker queue events.
type workerEventKind uint8

const (
	// weClientMsg carries a decoded message from a client.
	weClientMsg workerEventKind = iota + 1
	// weDeliver carries a sequenced publication to fan out to this
	// worker's subscribers.
	weDeliver
	// weDetach removes a disconnected client's state.
	weDetach
	// weTick drives conflation flushing.
	weTick
	// weFunc runs a closure on the worker loop (introspection and tests:
	// worker-owned state can be read without races only from here).
	weFunc
)

// workerEvent is one unit of Worker work.
type workerEvent struct {
	kind  workerEventKind
	c     *Client
	msg   *protocol.Message
	topic string
	entry cache.Entry
	frame []byte // pre-encoded NOTIFY frame shared across workers
	fn    func() // weFunc payload
}

// worker is one logic-layer thread (paper §4): it owns subscription
// matching, per-client session state, and conflation for the clients pinned
// to it. Each worker sees only its own clients, so the per-topic subscriber
// sets below are single-goroutine state.
type worker struct {
	index  int
	in     *queue.MPSC[workerEvent]
	engine *Engine

	// subsByTopic maps a topic to this worker's subscribers (packed sets,
	// see clientset.go). Its empty↔non-empty transitions are mirrored into
	// the engine's topic→worker index, which is what lets Engine.Deliver
	// skip this worker entirely for topics with no local subscribers.
	subsByTopic map[string]*clientSet

	// conflator aggregates per-topic deliveries when conflation is on.
	conflator conflator

	// ioBuckets and ioEvents are the grouped fan-out scratch, both indexed
	// by ioThread. fanOut buckets a topic's subscribers into per-ioThread
	// write sets (ioBuckets), stages one evWriteMulti per non-empty bucket
	// (ioEvents), and flushEgress hands each ioThread its staged events in
	// a single queue operation. Only this worker goroutine touches them.
	ioBuckets []*writeSet
	ioEvents  [][]ioEvent

	// replayScratch is the reused buffer for subscribe-replay cache reads
	// (cache.AppendSinceGroup), so a reconnect storm replaying history to
	// thousands of clients does not allocate a fresh slice per client.
	replayScratch []cache.Entry
}

func newWorker(index int, e *Engine) *worker {
	return &worker{
		index:       index,
		in:          queue.NewMPSC[workerEvent](),
		engine:      e,
		subsByTopic: make(map[string]*clientSet),
		conflator:   conflator{},
		ioBuckets:   make([]*writeSet, e.cfg.IoThreads),
		ioEvents:    make([][]ioEvent, e.cfg.IoThreads),
	}
}

// run is the Worker loop.
func (w *worker) run() {
	defer w.engine.wg.Done()
	for {
		events, ok := w.in.PopWait()
		if !ok {
			return
		}
		start := time.Now()
		for i := range events {
			w.handle(&events[i])
		}
		w.engine.cpu.AddBusy(time.Since(start))
		w.in.Recycle(events)
	}
}

func (w *worker) handle(ev *workerEvent) {
	switch ev.kind {
	case weClientMsg:
		w.handleClientMsg(ev.c, ev.msg)
	case weDeliver:
		w.deliver(ev.topic, ev.entry, ev.frame)
	case weDetach:
		w.detach(ev.c)
	case weTick:
		w.flushConflated()
	case weFunc:
		ev.fn()
	}
}

// do runs fn on the worker loop and waits for it to complete, reporting
// false without running fn if the worker has shut down. Tests use it to
// inspect worker-owned state (subsByTopic, conflator) without races.
func (w *worker) do(fn func()) bool {
	done := make(chan struct{})
	if !w.in.Push(workerEvent{kind: weFunc, fn: func() {
		defer close(done)
		fn()
	}}) {
		return false
	}
	<-done
	return true
}

func (w *worker) handleClientMsg(c *Client, m *protocol.Message) {
	if c.closed.Load() {
		protocol.ReleaseMessage(m)
		return
	}
	switch m.Kind {
	case protocol.KindConnect:
		c.name = m.ClientID
		c.Send(&protocol.Message{
			Kind:     protocol.KindConnAck,
			ClientID: w.engine.cfg.ServerID,
		})
	case protocol.KindSubscribe:
		w.subscribe(c, m)
	case protocol.KindUnsubscribe:
		w.unsubscribe(c, m)
	case protocol.KindPublish:
		// The publish path retains m.Payload (the sequencer appends it to
		// the history cache, the cluster replicates it), so a pooled decode
		// buffer must be detached before it escapes. The struct itself is
		// dead once publish returns — the publish paths keep only the
		// detached payload and immutable strings — so it goes back to the
		// message pool with the payload nilled out (the cache owns it now).
		m.Payload = protocol.UnpoolPayload(m.Payload)
		w.engine.stats.published.Inc()
		w.engine.publish(c, m)
		m.Payload = nil
		protocol.ReleaseMessage(m)
		return
	case protocol.KindPing:
		c.Send(&protocol.Message{Kind: protocol.KindPong, Timestamp: m.Timestamp})
	case protocol.KindDisconnect:
		c.CloseAsync()
	default:
		// Cluster-internal kinds on a client connection, or kinds a
		// server never receives (NOTIFY, acks): protocol violation.
		w.engine.logger.Debug("unexpected message kind from client",
			"kind", m.Kind, "client", c.RemoteAddr())
		c.CloseAsync()
	}
	// No branch above retains the message: its (pooled) payload and the
	// struct itself go back to their pools. Normal control messages carry
	// no payload; this also reclaims the buffer when a client puts a
	// payload where it doesn't belong.
	protocol.ReleaseMessage(m)
}

// subscribe registers the client for each topic and replays missed messages
// for topics carrying a resume position (paper §3: "a subscriber can detect
// and ask for missed messages upon a reconnection using these sequence
// numbers").
func (w *worker) subscribe(c *Client, m *protocol.Message) {
	var replay []byte
	for _, tp := range m.Topics {
		if tp.Topic == "" {
			continue
		}
		// One hash per topic: the subscription index and the replay read
		// below share the group.
		g := w.engine.cache.GroupOf(tp.Topic)
		// Interned: every subscriber of this topic (and the index and the
		// worker map keys) shares one canonical string allocation.
		topic := internTopic(tp.Topic)
		set := w.subsByTopic[topic]
		if set == nil {
			set = &clientSet{}
			w.subsByTopic[topic] = set
			// First local subscriber: make Deliver route to this worker.
			w.engine.subIndex.addGroup(g, topic, w.index)
		}
		// The client's own (small, sorted) set is the membership test; the
		// subscriber set relies on it so packed adds never have to scan.
		if c.subs.add(topic) {
			set.add(c)
		}

		if tp.Epoch != 0 || tp.Seq != 0 {
			// Replay through the worker's reused buffer: a reconnect storm
			// resubscribing thousands of clients costs no per-client slice.
			w.replayScratch = w.engine.cache.AppendSinceGroup(
				w.replayScratch[:0], g, tp.Topic, tp.Epoch, tp.Seq, 0)
			for _, e := range w.replayScratch {
				replay = protocol.AppendEncode(replay, notifyMessage(tp.Topic, e, protocol.FlagRetransmission))
				w.engine.stats.retransmitted.Inc()
			}
		}
	}
	c.Send(&protocol.Message{Kind: protocol.KindSubAck, Status: protocol.StatusOK})
	if len(replay) > 0 {
		c.SendFrame(replay)
	}
	// Drop the payload references so a huge replay cannot pin cache
	// payloads via the scratch buffer between subscribes — over the FULL
	// backing array: an earlier topic in this subscribe may have replayed
	// more entries than the last one, leaving live references past len.
	clear(w.replayScratch[:cap(w.replayScratch)])
}

func (w *worker) unsubscribe(c *Client, m *protocol.Message) {
	for _, tp := range m.Topics {
		if c.subs.remove(tp.Topic) {
			w.dropSub(c, tp.Topic)
		}
	}
	if len(c.subs) == 0 {
		c.subs = nil // idle again: no subscription state retained
	}
}

// dropSub removes c from topic's local subscriber set, de-indexing this
// worker on the last-subscriber transition. The caller has already
// established membership via c.subs.
func (w *worker) dropSub(c *Client, topic string) {
	set := w.subsByTopic[topic]
	if set == nil {
		return
	}
	set.remove(c)
	if set.size() == 0 {
		delete(w.subsByTopic, topic)
		w.engine.subIndex.remove(topic, w.index)
	}
}

// deliver fans a sequenced publication out to this worker's subscribers —
// or, with conflation on, leaves it to the conflator, which flushConflated
// drains on the engine tick.
func (w *worker) deliver(topic string, e cache.Entry, frame []byte) {
	if w.engine.cfg.ConflationInterval > 0 {
		w.conflator.offer(time.Now(), topic, e, frame)
		return
	}
	w.fanOut(topic, frame)
}

// fanOut sends an encoded frame to every subscriber of topic on this
// worker, grouped by owning ioThread: the per-delivery queue cost is one
// evWriteMulti push per ioThread with subscribers, not one evWrite per
// subscriber — O(ioThreads) instead of O(subscribers) mutex acquisitions
// per delivered message.
func (w *worker) fanOut(topic string, frame []byte) {
	w.stageFanout(topic, frame)
	w.flushEgress()
}

// stageFanout buckets topic's subscribers by ioThread and appends one
// staged evWriteMulti per non-empty bucket; flushEgress pushes the staged
// events out. Split from fanOut so flushConflated can stage several
// aggregates and flush them to each ioThread in one queue operation.
//
// This is the staging point of the egress budget: every target client is
// charged the frame's bytes (and one event) here, and the events carry the
// topic and its delivery class so the owning IoThread can apply the
// pressure-tier policy per client.
//
//vet:hotpath
func (w *worker) stageFanout(topic string, frame []byte) {
	set := w.subsByTopic[topic]
	n := set.size()
	if n == 0 {
		return
	}
	droppable := w.engine.classify(topic) == ClassConflatable
	size := int64(len(frame))
	if n == 1 {
		// Singleton fast path — the C10M shape (every client the sole
		// subscriber of its own topic): a plain evWrite needs no pooled
		// write set, so nothing shuttles between the worker's and the
		// ioThread's sync.Pool caches.
		c := set.single()
		c.chargeEgress(size)
		w.ioEvents[c.io.index] = append(w.ioEvents[c.io.index],
			ioEvent{kind: evWrite, c: c, data: frame, topic: topic, droppable: droppable})
		w.engine.stats.delivered.Inc()
		return
	}
	// Both clientSet representations are iterated inline: this is the
	// per-delivered-message path and must not allocate a closure.
	if set.many != nil {
		for c := range set.many {
			w.bucketClient(c, size)
		}
	} else {
		for _, c := range set.few {
			w.bucketClient(c, size)
		}
	}
	for ti, ws := range w.ioBuckets {
		if ws == nil {
			continue
		}
		w.ioBuckets[ti] = nil
		w.ioEvents[ti] = append(w.ioEvents[ti],
			ioEvent{kind: evWriteMulti, set: ws, data: frame, topic: topic, droppable: droppable})
	}
	w.engine.stats.delivered.Add(int64(n))
}

// bucketClient charges one fan-out target and appends it to the write set
// of its owning ioThread — the per-subscriber half of stageFanout, shared
// by both clientSet representations.
//
//vet:hotpath
func (w *worker) bucketClient(c *Client, size int64) {
	c.chargeEgress(size)
	ws := w.ioBuckets[c.io.index]
	if ws == nil {
		ws = getWriteSet()
		w.ioBuckets[c.io.index] = ws
	}
	ws.clients = append(ws.clients, c)
}

// flushEgress pushes every staged fan-out event to its ioThread — one
// PushAll per ioThread regardless of how many deliveries were staged. The
// event slices are reused (PushAll copies), so the steady state allocates
// nothing on the worker side.
//
//vet:hotpath
func (w *worker) flushEgress() {
	for ti, evs := range w.ioEvents {
		if len(evs) == 0 {
			continue
		}
		if w.engine.ioThreads[ti].in.PushAll(evs) {
			w.engine.stats.egress.FanoutEvents.Add(int64(len(evs)))
		} else {
			// Queue closed during shutdown: nobody will drain the sets or
			// consume the egress charges. Singleton fast-path events (plain
			// evWrite) carry no set.
			for i := range evs {
				size := int64(len(evs[i].data))
				if evs[i].set != nil {
					for _, c := range evs[i].set.clients {
						c.releaseEgress(size, 1)
					}
					evs[i].set.release()
				} else if evs[i].c != nil {
					evs[i].c.releaseEgress(size, 1)
				}
			}
		}
		for i := range evs {
			evs[i] = ioEvent{}
		}
		w.ioEvents[ti] = evs[:0]
	}
}

// flushConflated emits due conflation aggregates, staging them all before a
// single egress flush.
func (w *worker) flushConflated() {
	aggs := w.conflator.drain(time.Now(), w.engine.cfg.ConflationInterval)
	if len(aggs) == 0 {
		return
	}
	for _, agg := range aggs {
		w.stageFanout(agg.topic, aggregateFrame(agg))
	}
	w.flushEgress()
}

// aggregateFrame returns the wire frame for one conflation aggregate. A
// single-message aggregate needs no FlagConflated bit, so the NOTIFY frame
// already encoded at Deliver time is byte-identical and is reused instead
// of re-encoding.
func aggregateFrame(agg *aggregate) []byte {
	if agg.count == 1 {
		return agg.frame
	}
	return protocol.Encode(notifyMessage(agg.topic, agg.entry, protocol.FlagConflated))
}

// detach removes all of the client's subscriptions. Detach is terminal —
// it only runs from connection teardown, after c.closed flipped — so the
// subscription set is released outright (set to nil): a churning fleet
// of short-lived connections must not keep per-dead-client subscription
// state alive until the Client itself is collected.
func (w *worker) detach(c *Client) {
	for _, topic := range c.subs {
		w.dropSub(c, topic)
	}
	c.subs = nil
}

// notifyMessage builds the NOTIFY for a cached entry.
func notifyMessage(topic string, e cache.Entry, extraFlags uint8) *protocol.Message {
	return &protocol.Message{
		Kind:      protocol.KindNotify,
		Topic:     topic,
		ID:        e.ID,
		Payload:   e.Payload,
		Epoch:     e.Epoch,
		Seq:       e.Seq,
		Flags:     e.Flags | extraFlags,
		Timestamp: e.Timestamp,
	}
}
