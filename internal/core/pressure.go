// Overload protection for slow consumers (docs/ARCHITECTURE.md, "The
// overload path"). The engine's egress rides unbounded MPSC queues, so
// without protection one client that stops reading would pin heap without
// limit. Protection is always on: every client has a byte/event egress
// budget, accounted when frames are staged (Client.SendFrame, worker
// fan-out staging) and released when bytes reach the wire or are dropped by
// policy, and transport writes never block (a socket that is full carries
// the unwritten suffix). Budget usage maps to a pressure tier at fixed
// fractions of either budget — half, four fifths, all of it — and the tier
// selects the delivery policy; Config.Classify decides which topics the
// policy may conflate or drop:
//
//	healthy   → normal delivery.
//	conflate  → conflatable topics collapse to last-value-wins in the
//	            client's bounded backlog (the per-client form of §4's
//	            conflation), and backlog drains go out as batched writes.
//	drop      → the oldest conflatable frames are evicted to fit the
//	            budget; reliable topics keep (epoch, seq) contiguity.
//	critical  → fenced disconnect: a terminal DISCONNECT frame, then
//	            teardown; the client resumes via subscribe-with-position
//	            and the history cache replays what it missed (§3).
package core

import "sync/atomic"

// DeliveryClass classifies a topic's traffic for the overload policy.
type DeliveryClass uint8

const (
	// ClassReliable frames must reach the subscriber contiguously in
	// (epoch, seq) order: under pressure they are batched but never
	// dropped; overflow escalates to a fenced disconnect, after which the
	// subscriber recovers losslessly through the resume/replay path.
	ClassReliable DeliveryClass = iota
	// ClassConflatable topics have last-value-wins semantics (tickers,
	// scores, sensor snapshots): under pressure superseded frames may be
	// conflated or dropped, exactly as §4 conflation already does for every
	// subscriber of a conflated topic.
	ClassConflatable
)

// ClassifyFunc maps a topic to its delivery class. nil classifies every
// topic as ClassReliable (never silently drop).
type ClassifyFunc func(topic string) DeliveryClass

// PressureTier orders the overload tiers.
type PressureTier uint32

const (
	// TierHealthy: normal delivery.
	TierHealthy PressureTier = iota
	// TierConflate: conflate-under-pressure for conflatable topics.
	TierConflate
	// TierDrop: drop-oldest for conflatable traffic.
	TierDrop
	// TierCritical: fenced disconnect when the budget cannot be met.
	TierCritical
)

// String names the tier for logs.
func (t PressureTier) String() string {
	switch t {
	case TierHealthy:
		return "healthy"
	case TierConflate:
		return "conflate"
	case TierDrop:
		return "drop"
	default:
		return "critical"
	}
}

// egressBudgetEvents bounds the frames staged toward one client, beside
// Config.EgressBudgetBytes.
const egressBudgetEvents = 8192

// pressureThresholds are one budget's tier boundaries — 1/2, 4/5 and all of
// it — precomputed so the staging hot path classifies with integer compares
// only.
type pressureThresholds struct{ conflate, drop, crit int64 }

func newPressureThresholds(budget int64) pressureThresholds {
	return pressureThresholds{conflate: budget / 2, drop: budget * 4 / 5, crit: budget}
}

// eventThresholds are the tier boundaries of the event budget.
var eventThresholds = newPressureThresholds(egressBudgetEvents)

// axis classifies usage against one budget.
func (th *pressureThresholds) axis(used int64) PressureTier {
	switch {
	case used < th.conflate:
		return TierHealthy
	case used < th.drop:
		return TierConflate
	case used < th.crit:
		return TierDrop
	default:
		return TierCritical
	}
}

// tier classifies one client's usage: the higher of its byte tier (th) and
// its event tier.
func (th *pressureThresholds) tier(bytes, events int64) PressureTier {
	return max(th.axis(bytes), eventThresholds.axis(events))
}

// egressLedger is one client's staged-egress account: bytes and events
// charged at staging time (Workers, any publisher goroutine) and released by
// the owning IoThread when frames reach the wire or are dropped. tier caches
// the last classification so both layers read the policy decision with one
// atomic load. stalled mirrors membership in the IoThread's stalled set (a
// transport carry or pressure backlog exists) for the "slow_consumers"
// gauge: a client held at the conflate equilibrium hovers around the tier
// threshold, so the stall state — not the instantaneous tier — is what
// identifies a slow consumer.
type egressLedger struct {
	bytes   atomic.Int64
	events  atomic.Int64
	tier    atomic.Uint32
	stalled atomic.Bool
}

// charge accounts one staged frame and reclassifies.
func (c *Client) chargeEgress(n int64) {
	b := c.egress.bytes.Add(n)
	ev := c.egress.events.Add(1)
	c.storeTier(b, ev)
}

// releaseEgress returns bytes/events to the budget (frames written, dropped,
// or staged at a client that closed underneath them) and reclassifies.
func (c *Client) releaseEgress(bytes, events int64) {
	if bytes == 0 && events == 0 {
		return
	}
	b := c.egress.bytes.Add(-bytes)
	ev := c.egress.events.Add(-events)
	c.storeTier(b, ev)
}

// storeTier updates the cached tier if the classification moved.
func (c *Client) storeTier(bytes, events int64) {
	t := uint32(c.engine.pressure.tier(bytes, events))
	if c.egress.tier.Load() != t {
		c.egress.tier.Store(t)
	}
}

// tier returns the client's cached pressure tier.
func (c *Client) tier() PressureTier { return PressureTier(c.egress.tier.Load()) }

// stallBytes reports the transport-carried unwritten bytes.
func (c *Client) stallBytes() int64 { return c.framed.StalledBytes() }

// egressBlocked reports whether frames for c must take the backlog path:
// the transport carries unwritten bytes, or older frames already wait in
// the pressure backlog (FIFO order forbids overtaking them).
func (c *Client) egressBlocked() bool {
	return c.stallBytes() > 0 || (c.backlog != nil && c.backlog.Len() > 0)
}
