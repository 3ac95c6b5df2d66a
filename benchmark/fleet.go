package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"migratorydata/internal/protocol"
)

// fleetPortBase is the local port of subscriber 0 at set-up (subscriber i
// uses fleetPortBase+i, publisher i fleetPortBase-1-i); below the kernel's
// ephemeral range. Reconnects use ephemeral ports.
const fleetPortBase = 21000

// doneRing is the size of each topic's delivery-count ring; it must exceed
// every workload's closed-loop window so a slot is never reused while the
// message it counts is still in flight.
const doneRing = 256

// topicState is the generator's view of one topic. One publisher owns it
// (single writer of published); every subscriber of the topic reads it.
type topicState struct {
	name string
	idx  uint32
	pub  *publisher

	published atomic.Uint64 // messages published so far == index of the next
	// Closed-loop bookkeeping: done counts, per in-flight message, how many
	// subscribers have it; complete counts messages every subscriber has —
	// "the slowest subscriber's received".
	complete atomic.Uint64
	done     [doneRing]atomic.Int32
}

// pubSpanID is the id of the publish span of message (topic, n); delivery
// spans name it as parent without any shared state.
func pubSpanID(topic uint32, n uint64) uint64 { return uint64(topic+1)<<40 | (n + 1) }

// messageOf inverts pubSpanID.
func messageOf(key uint64) (topic uint32, n uint64) {
	return uint32(key>>40) - 1, key&(1<<40-1) - 1
}

// subscriber is one fleet connection: a reader goroutine parked on the Go
// runtime poller, the reference checker of its single subscription, and
// the reconnect logic for client-side drops and server crashes.
type subscriber struct {
	r     *runState
	idx   int
	name  string
	topic *topicState

	conn   atomic.Pointer[clientConn]
	member int // cluster member currently connected to (reader-owned after start)

	// Owned by the reader goroutine.
	chk        checker
	mismatches int64 // payloads that differ from the reference stream
	cur        *clientConn
	gotSuback  bool
	resuming   bool
	resumeAim  uint64 // caught up once chk.next reaches this
	subackAt   int64

	// Shared with other goroutines.
	next      atomic.Uint64 // mirror of chk.next
	received  atomic.Int64  // distinct messages delivered
	offline   atomic.Bool   // dropped or orphaned, not yet caught up again
	dropUntil atomic.Int64  // churn: generator-clock time to come back at
	connectNs int64         // first connect: dial start → SUBACK
}

// connectInitial dials, subscribes "from now on" and waits for SUBACK. It
// runs on the setup goroutine, before the reader goroutine exists.
func (s *subscriber) connectInitial() error {
	c, err := dialClientFrom(fleetPortBase+s.idx, s.r.proc.addrs[s.member], s.r.w.framing)
	if err != nil {
		return err
	}
	if err := c.sendFrames(subscribeFrames(nil, s.name, s.topic.name, 0, 0)); err != nil {
		c.close()
		return err
	}
	s.cur = c
	s.gotSuback = false
	if err := c.readUntil(s.handle, func() bool { return s.gotSuback }); err != nil {
		c.close()
		return fmt.Errorf("await SUBACK: %w", err)
	}
	s.connectNs = s.subackAt - c.dialStart
	s.chk.started = true // subscribed before any publish: message 0 is next
	s.conn.Store(c)
	return nil
}

// resume reconnects and subscribes after the last position received. The
// reader loop then carries on; handle notices when the replay has brought
// the subscription level with what was published when the dial began.
func (s *subscriber) resume() error {
	aim := s.topic.published.Load()
	c, err := dialClient(s.r.proc.addrs[s.member], s.r.w.framing)
	if err != nil {
		return err
	}
	if err := c.sendFrames(subscribeFrames(nil, s.name, s.topic.name, s.chk.epoch, s.chk.seq)); err != nil {
		c.close()
		return err
	}
	s.gotSuback = false
	s.resuming = true
	s.resumeAim = aim
	s.conn.Store(c)
	s.r.resumes.Add(1)
	if s.r.stopping.Load() {
		c.close() // shutdown closed the old conn while we dialed; do not leak this one
	}
	return nil
}

// run is the reader goroutine.
func (s *subscriber) run() {
	defer s.r.readers.Done()
	for {
		c := s.conn.Load()
		s.cur = c
		err := c.read(s.handle)
		if err == nil {
			continue
		}
		c.close()
		if s.r.stopping.Load() {
			return
		}
		s.offline.Store(true)
		if until := s.dropUntil.Swap(0); until != 0 {
			// Dropped by the churn schedule: stay away, then come back.
			select {
			case <-time.After(time.Duration(until - nowNs())):
			case <-s.r.stop:
				return
			}
		} else if s.r.failover.Load() {
			// Our member crashed: move to a survivor at once.
			s.member = s.r.survivor(s.idx)
		} else {
			s.r.fail("subscriber %d (%s): %v", s.idx, s.topic.name, err)
			s.r.unexpectedCloses.Add(1)
			return
		}
		if err := s.resume(); err != nil {
			s.r.fail("subscriber %d resume: %v", s.idx, err)
			s.r.failedConnects.Add(1)
			return
		}
	}
}

func (s *subscriber) handle(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindSubAck:
		s.gotSuback = true
		s.subackAt = s.cur.recvNs
		s.caughtUp()
	case protocol.KindNotify:
		s.onNotify(m)
	}
}

func (s *subscriber) onNotify(m *protocol.Message) {
	r := s.r
	n, ok := r.ref.verify(m.Payload, s.topic.idx)
	if !ok || m.Topic != s.topic.name {
		s.mismatches++
		return
	}
	if s.chk.observe(m.Epoch, m.Seq, n) == deliveredDup {
		return
	}
	s.next.Store(s.chk.next)
	s.received.Add(1)
	recv := s.cur.recvNs
	if m.Flags&protocol.FlagRetransmission == 0 {
		// Live delivery: timed from the moment the publish was due. Replayed
		// messages are the resume path's work and are timed as catch-up.
		due := m.Timestamp
		lat := recv - due
		if r.delivery.Load().record(due, lat) {
			if mw := r.memberDelivery; mw != nil {
				mw[s.member].Load().record(due, lat)
			}
			if r.tr != nil && r.spansOn(due) && (n+uint64(s.idx))%64 == 0 {
				r.tr.add("delivery", due, recv, r.tr.id(), pubSpanID(s.topic.idx, n), pubSpanID(s.topic.idx, n))
			}
		}
	}
	if r.closedLoop.Load() {
		t := s.topic
		slot := &t.done[n%doneRing]
		if slot.Add(1) == int32(r.w.subsPerTopic) {
			slot.Store(0)
			t.complete.Add(1)
			t.pub.wake()
		}
	}
	s.caughtUp()
}

// caughtUp closes a resume once SUBACK is in and the replay has delivered
// everything that existed when the reconnect began.
func (s *subscriber) caughtUp() {
	if !s.resuming || !s.gotSuback || s.chk.next < s.resumeAim {
		return
	}
	s.resuming = false
	s.offline.Store(false)
	c := s.cur
	end := c.recvNs
	s.r.recordResume(float64(end-c.dialStart) / 1e3)
	if tr := s.r.tr; tr != nil {
		id := tr.id()
		msg := uint64(s.idx)
		tr.add("resume", c.dialStart, end, id, 0, msg)
		tr.add("resume.dial", c.dialStart, c.dialed, tr.id(), id, msg)
		tr.add("resume.handshake", c.dialed, c.handshaken, tr.id(), id, msg)
		tr.add("resume.suback", c.handshaken, s.subackAt, tr.id(), id, msg)
		tr.add("resume.replay", s.subackAt, end, tr.id(), id, msg)
	}
}

// pendRing is the size of a publisher's in-flight table. It must exceed the
// most publishes one connection can have unacknowledged: window × topics
// (64 × 128 in unicast_raw).
const pendRing = 1 << 15

// pending is one in-flight publish, written by the publishing goroutine and
// read by the ack reader.
type pending struct {
	id      atomic.Uint64 // publish id + 1 occupying the slot (0: never used)
	acked   atomic.Bool   // the first ack for id has been seen
	due     atomic.Int64
	written atomic.Int64
	key     atomic.Uint64 // pubSpanID(topic, n)
}

// redo is a publish the server refused (PUBACK with a failure status): the
// publisher owes it a republish — its at-least-once duty (§5.2.2, fn. 3).
type redo struct {
	key uint64 // pubSpanID(topic, n)
	due int64  // the original due time: the ack is still timed from it
}

// ackResult is what the ack reader hands a synchronous publisher.
type ackResult struct {
	id uint64
	ok bool
}

// publisher is one publisher connection: a publishing goroutine (paced or
// closed loop) and an ack-reader goroutine parked on the runtime poller.
type publisher struct {
	r      *runState
	idx    int
	conn   *clientConn
	topics []*topicState // owned topics, in seeded order
	sl     *sleeper

	payload []byte
	idBuf   []byte
	nextID  uint64
	pend    [pendRing]pending

	wakeCh chan struct{} // closed loop: a message completed (capacity 1)
	// sync mode (priming, crash check): acks are handed to the publishing
	// goroutine, which republishes failures, instead of being scored.
	sync  atomic.Bool
	ackCh chan ackResult
	// redoCh carries refused publishes from the ack reader to whichever
	// goroutine is publishing (a phase loop, or quiesce between phases).
	redoCh chan redo

	sent       atomic.Int64
	acked      atomic.Int64 // publishes acknowledged (first ack of each)
	failedAcks atomic.Int64 // refused publishes that could not even be queued for a republish
	strayAcks  atomic.Int64 // acks for no publish in flight: a second ack, or an unknown id
	retried    int64        // republishes after a refusal (allowed: the publisher's at-least-once duty)

}

func (p *publisher) wake() {
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// publishN sends message n of topic t, stamped as due at due, and returns
// the publish id and the generator-clock time the write began.
func (p *publisher) publishN(t *topicState, n uint64, due int64) (id uint64, written int64, err error) {
	p.r.ref.fill(p.payload, t.idx, n)
	id = p.nextID
	p.nextID++
	p.idBuf = strconv.AppendUint(p.idBuf[:0], id, 36)
	slot := &p.pend[id%pendRing]
	slot.due.Store(due)
	slot.key.Store(pubSpanID(t.idx, n))
	now := nowNs()
	slot.written.Store(now)
	slot.acked.Store(false)
	slot.id.Store(id + 1)
	p.sent.Add(1)
	err = p.conn.send(&protocol.Message{
		Kind:      protocol.KindPublish,
		Topic:     t.name,
		ID:        string(p.idBuf),
		Payload:   p.payload,
		Flags:     protocol.FlagAckRequired,
		Timestamp: due,
	})
	return id, now, err
}

// publish sends the next message of t and returns when the write began.
func (p *publisher) publish(t *topicState, due int64) (int64, error) {
	n := t.published.Load()
	// Counted before the write: a delivery can race ahead of this goroutine.
	t.published.Store(n + 1)
	_, written, err := p.publishN(t, n, due)
	return written, err
}

// readAcks is the ack-reader goroutine.
func (p *publisher) readAcks() {
	defer p.r.readers.Done()
	for {
		if err := p.conn.read(p.onAck); err != nil {
			if !p.r.stopping.Load() {
				p.r.fail("publisher %d: %v", p.idx, err)
				p.r.unexpectedCloses.Add(1)
			}
			return
		}
	}
}

func (p *publisher) onAck(m *protocol.Message) {
	if m.Kind != protocol.KindPubAck {
		return
	}
	id, err := strconv.ParseUint(m.ID, 36, 64)
	slot := &p.pend[id%pendRing]
	if err != nil || slot.id.Load() != id+1 || slot.acked.Swap(true) {
		p.strayAcks.Add(1)
		return
	}
	ok := m.Status == protocol.StatusOK
	if p.sync.Load() {
		p.acked.Add(1)
		p.ackCh <- ackResult{id: id, ok: ok}
		return
	}
	if !ok {
		select {
		case p.redoCh <- redo{key: slot.key.Load(), due: slot.due.Load()}:
		default:
			p.failedAcks.Add(1)
			p.r.fail("publisher %d: more than %d publishes refused at once", p.idx, cap(p.redoCh))
		}
	} else {
		due, recv := slot.due.Load(), p.conn.recvNs
		if p.r.acks.Load().record(due, recv-due) && p.r.tr != nil && p.r.spansOn(due) {
			tr, key, written := p.r.tr, slot.key.Load(), slot.written.Load()
			tr.add("publish", due, recv, key, 0, key)
			tr.add("publish.write", due, written, tr.id(), key, key)
			tr.add("publish.ack_wait", written, recv, tr.id(), key, key)
		}
	}
	p.acked.Add(1)
}

// republish sends again every publish the server has refused so far. Only
// the goroutine currently publishing on p may call it.
func (p *publisher) republish() error {
	for {
		select {
		case again := <-p.redoCh:
			topic, n := messageOf(again.key)
			p.retried++
			if _, _, err := p.publishN(&p.r.topics[topic], n, again.due); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// runPaced publishes on the open-loop schedule s, round-robin over the
// publisher's topics, stamping each message with its due time.
func (p *publisher) runPaced(s schedule) error {
	for k := 0; ; k++ {
		due, ok := s.due(k)
		if !ok {
			return nil
		}
		if err := p.sl.waitUntil(due); err != nil {
			return err
		}
		if err := p.republish(); err != nil {
			return err
		}
		if nowNs()-due > int64(100*time.Millisecond) {
			// Hopelessly behind: do not turn the open loop into a burst.
			// The shortfall fails the offered-vs-achieved gate.
			continue
		}
		written, err := p.publish(p.topics[k%len(p.topics)], due)
		if err != nil {
			return err
		}
		p.r.lag.Load().record(due, written-due)
	}
}

// runClosed publishes closed-loop on complete delivery: a topic may have at
// most window messages that some subscriber has not received yet. It stops
// at generator-clock time until (0: never) or once every topic has
// published perTopic more messages (0: no quota).
func (p *publisher) runClosed(until int64, perTopic uint64) error {
	window := uint64(p.r.w.window)
	quota := make([]uint64, len(p.topics))
	for i, t := range p.topics {
		quota[i] = t.published.Load() + perTopic
	}
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for {
		if err := p.republish(); err != nil {
			return err
		}
		progressed, open := false, false
		for i, t := range p.topics {
			for {
				n := t.published.Load()
				if perTopic > 0 && n >= quota[i] {
					break
				}
				open = true
				if n-t.complete.Load() >= window {
					break
				}
				if _, err := p.publish(t, nowNs()); err != nil {
					return err
				}
				progressed = true
			}
			if until > 0 && nowNs() >= until {
				return nil
			}
		}
		if perTopic > 0 && !open {
			return nil
		}
		if !progressed {
			idle.Reset(5 * time.Millisecond)
			select {
			case <-p.wakeCh:
			case <-idle.C:
			}
		}
	}
}

// publishSync publishes message n of t and waits for its ack, republishing
// on a failed ack (the publisher's at-least-once duty, §5.2.2) until it is
// accepted or the deadline passes. Sync mode must be on.
func (p *publisher) publishSync(t *topicState, n uint64, deadline time.Time) error {
	for {
		id, _, err := p.publishN(t, n, nowNs())
		if err != nil {
			return err
		}
		timeout := time.After(time.Until(deadline))
	await:
		for {
			select {
			case a := <-p.ackCh:
				if a.id != id {
					continue // the answer to an attempt already given up on
				}
				if a.ok {
					return nil
				}
				break await
			case <-timeout:
				return fmt.Errorf("publish %s #%d not acknowledged in time", t.name, n)
			}
		}
		p.retried++
		time.Sleep(10 * time.Millisecond)
	}
}
