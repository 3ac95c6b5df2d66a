// Overload protection for slow consumers (docs/ARCHITECTURE.md, "The
// overload path"). The engine's egress rides unbounded MPSC queues, so
// without protection one client that stops reading pins heap without limit
// and — worse — its blocking transport write stalls the whole IoThread.
// Protection gives every client a byte/event egress budget, accounted when
// frames are staged (Client.SendFrame, worker fan-out staging) and released
// when bytes reach the wire or are dropped by policy. Budget usage maps to a
// pressure tier; the tier selects the delivery policy, which — like RAFDA's
// separation of policy from mechanism — is pluggable per deployment through
// Config.Pressure and Config.Classify:
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

// PressurePolicy maps a client's budget usage to a tier. Fractions are of
// the configured budgets; zero values take the defaults. Tier, when set,
// replaces the threshold rule entirely — full policy pluggability.
type PressurePolicy struct {
	// ConflateAt is the usage fraction entering TierConflate. Default 0.5.
	ConflateAt float64
	// DropAt is the usage fraction entering TierDrop. Default 0.8.
	DropAt float64
	// DisconnectAt is the usage fraction entering TierCritical. Default 1.0.
	DisconnectAt float64
	// Tier, when non-nil, computes the tier from raw usage and budgets
	// (either budget may be 0, meaning unbounded on that axis).
	Tier func(bytesUsed, bytesBudget, eventsUsed, eventsBudget int64) PressureTier
}

// pressureThresholds are the policy fractions pre-multiplied into absolute
// byte/event counts, so the staging hot path classifies with integer
// compares only.
type pressureThresholds struct {
	conflateB, dropB, critB int64
	conflateE, dropE, critE int64
	custom                  func(bytesUsed, bytesBudget, eventsUsed, eventsBudget int64) PressureTier
	bytesBudget, evBudget   int64
}

// thresholds materializes the policy against the configured budgets.
func (p PressurePolicy) thresholds(bytesBudget, eventsBudget int64) pressureThresholds {
	conflate, drop, crit := p.ConflateAt, p.DropAt, p.DisconnectAt
	if conflate <= 0 {
		conflate = 0.5
	}
	if drop <= 0 {
		drop = 0.8
	}
	if crit <= 0 {
		crit = 1.0
	}
	frac := func(budget int64, f float64) int64 {
		if budget <= 0 {
			return 0 // unbounded axis: never advances the tier
		}
		return int64(float64(budget) * f)
	}
	return pressureThresholds{
		conflateB:   frac(bytesBudget, conflate),
		dropB:       frac(bytesBudget, drop),
		critB:       frac(bytesBudget, crit),
		conflateE:   frac(eventsBudget, conflate),
		dropE:       frac(eventsBudget, drop),
		critE:       frac(eventsBudget, crit),
		custom:      p.Tier,
		bytesBudget: bytesBudget,
		evBudget:    eventsBudget,
	}
}

// tier classifies one client's usage.
func (th *pressureThresholds) tier(bytes, events int64) PressureTier {
	if th.custom != nil {
		return th.custom(bytes, th.bytesBudget, events, th.evBudget)
	}
	axis := func(used, conflate, drop, crit int64) PressureTier {
		switch {
		case crit <= 0 || used < conflate:
			return TierHealthy
		case used < drop:
			return TierConflate
		case used < crit:
			return TierDrop
		default:
			return TierCritical
		}
	}
	tb := axis(bytes, th.conflateB, th.dropB, th.critB)
	te := axis(events, th.conflateE, th.dropE, th.critE)
	if te > tb {
		return te
	}
	return tb
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
	if !c.engine.protect {
		return
	}
	b := c.egress.bytes.Add(n)
	ev := c.egress.events.Add(1)
	c.storeTier(b, ev)
}

// releaseEgress returns bytes/events to the budget (frames written, dropped,
// or staged at a client that closed underneath them) and reclassifies.
func (c *Client) releaseEgress(bytes, events int64) {
	if !c.engine.protect || (bytes == 0 && events == 0) {
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
