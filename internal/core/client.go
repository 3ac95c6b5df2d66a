package core

import (
	"sync/atomic"
	"time"

	"migratorydata/internal/protocol"
	"migratorydata/internal/queue"
)

// Client is one connected publisher or subscriber. Per the paper §4, a
// client is assigned to exactly one IoThread and one Worker when it
// connects, and those assignments never change for the lifetime of the
// connection; consequently the decoder, output chain, and subscription
// state below are each touched by a single goroutine and need no locks.
type Client struct {
	id     uint64 // engine-unique connection id
	name   string // application client identifier from CONNECT
	framed Framed
	io     *ioThread
	worker *worker
	engine *Engine

	// decoder is owned by the IoThread.
	decoder protocol.StreamDecoder

	// passHead and passTail are the 1-based ends of this client's chain of
	// unwritten frames in ioThread.staged (0: none); with batching on,
	// passBytes is the chain's size and passSince when its oldest frame was
	// staged, as an offset from ioThread.epoch. listed records that the
	// client is in ioThread.dirty. All owned by the IoThread.
	passHead, passTail, passBytes int32
	listed                        bool
	passSince                     time.Duration

	// backlog is the bounded pressure queue frames divert into once the
	// transport stalls (docs/ARCHITECTURE.md, "The overload path"). Created
	// lazily on first stall; owned by the IoThread, as is lastRetry, when
	// the delivery path last retried this client's carried transport.
	backlog   *queue.Bounded[[]byte]
	lastRetry time.Time

	// poll is the IoThread poll loop this connection's fd is registered
	// with. Atomic because a teardown racing Attach may read it before
	// registration completes.
	poll atomic.Pointer[pollLoop]

	// egress is the per-client staged-egress budget account. Charged by
	// Workers (and any goroutine calling SendFrame), released by the owning
	// IoThread — all fields atomic.
	egress egressLedger

	// subs is owned by the Worker: topics this client subscribes to, as a
	// packed sorted slice (nil while unsubscribed — the C10M idle shape).
	// The Worker mirrors the empty↔non-empty transitions of its per-topic
	// subscriber sets (which this set feeds on detach) into the engine's
	// topic→worker delivery index, so the two must only ever be mutated
	// together on the Worker loop.
	subs topicSet

	closed atomic.Bool
}

// ID returns the engine-unique connection identifier.
func (c *Client) ID() uint64 { return c.id }

// Name returns the application-level client identifier (from CONNECT).
func (c *Client) Name() string { return c.name }

// RemoteAddr returns the peer address.
func (c *Client) RemoteAddr() string { return c.framed.RemoteAddr() }

// Send encodes m and queues it for delivery to this client via its
// IoThread. Safe to call from any goroutine.
func (c *Client) Send(m *protocol.Message) {
	if c.closed.Load() {
		return
	}
	c.SendFrame(protocol.Encode(m))
}

// SendFrame queues an already-encoded frame for delivery. The frame may be
// shared between clients and must not be mutated. Frames sent this way
// (acks, replays, cluster control) are reliable for the overload policy:
// they are never dropped under pressure.
func (c *Client) SendFrame(frame []byte) {
	c.sendFrameMeta(frame, "", false)
}

// sendFrameMeta is SendFrame carrying the overload-policy metadata: the
// topic the frame belongs to and whether the pressure tiers may conflate or
// drop it. The frame's bytes (and one event) are charged against the
// client's egress budget here — the staging point — and released by the
// IoThread when they reach the wire or are dropped.
func (c *Client) sendFrameMeta(frame []byte, topic string, droppable bool) {
	if c.closed.Load() {
		return
	}
	c.chargeEgress(int64(len(frame)))
	if !c.io.in.Push(ioEvent{kind: evWrite, c: c, data: frame, topic: topic, droppable: droppable}) {
		// Queue closed (engine shutdown): nobody will consume the charge.
		c.releaseEgress(int64(len(frame)), 1)
	}
}

// CloseAsync requests an asynchronous teardown of the connection.
func (c *Client) CloseAsync() {
	c.io.in.Push(ioEvent{kind: evClose, c: c})
}
