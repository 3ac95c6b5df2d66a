package core

import (
	"time"

	"migratorydata/internal/cache"
)

// conflator is a Worker's conflation (paper §4): "aggregating messages for
// a period of time and sending the result of the aggregation in a single
// I/O operation to a client". Keyed by topic, it keeps the last delivery
// of each, so a subscriber sees the latest value at most once per interval
// per topic. It is a passive state machine driven by its Worker's loop —
// no goroutine, no lock.
type conflator map[string]*aggregate

// aggregate is one topic's conflated deliveries: the last one, with the
// NOTIFY frame encoded for it at Deliver time (so a single-delivery
// aggregate is re-sent without re-encoding), and how many it stands for.
type aggregate struct {
	topic string
	entry cache.Entry
	frame []byte
	count int
	since time.Time // the first delivery of the interval
}

// offer records a delivery on topic; the first one starts the topic's
// interval.
func (c conflator) offer(now time.Time, topic string, e cache.Entry, frame []byte) {
	if a := c[topic]; a != nil {
		a.entry, a.frame = e, frame
		a.count++
		return
	}
	c[topic] = &aggregate{topic: topic, entry: e, frame: frame, count: 1, since: now}
}

// drain returns the aggregates whose interval has elapsed, clearing them.
func (c conflator) drain(now time.Time, interval time.Duration) []*aggregate {
	var out []*aggregate
	for topic, a := range c {
		if now.Sub(a.since) >= interval {
			out = append(out, a)
			delete(c, topic)
		}
	}
	return out
}
