package main

import "time"

// clockBase anchors the generator's monotonic clock. Every timestamp the
// generator takes or puts on the wire is nanoseconds since clockBase, so
// it never jumps with the wall clock and always fits the protocol's
// Timestamp field as a positive number.
var clockBase = time.Now()

// nowNs reads the generator's monotonic clock.
func nowNs() int64 { return int64(time.Since(clockBase)) + 1 }

// schedule is an open-loop publishing plan on absolute deadlines: operation
// k is due at start + offset + k*interval, whatever happened to operation
// k-1. A late wake-up delays one operation; it never shifts the ones after
// it (the drift a time.Ticker-and-sleep loop accumulates), and latency is
// timed from the due time, so a stall is charged to every operation it held
// up (choosing-metrics §5).
type schedule struct {
	start    int64 // ns
	end      int64 // ns; operations due at or after end are not part of the plan
	interval int64 // ns between consecutive operations of this lane
	offset   int64 // ns; staggers the lanes of several publishers
}

// newSchedule plans rate operations per second over [start, end), split
// across lanes publishers; lane i gets every lanes-th slot.
func newSchedule(start, end int64, rate, lanes, lane int) schedule {
	slot := int64(time.Second) / int64(rate)
	return schedule{start: start, end: end, interval: slot * int64(lanes), offset: slot * int64(lane)}
}

// due returns operation k's deadline; ok is false once the plan is over.
func (s schedule) due(k int) (at int64, ok bool) {
	at = s.start + s.offset + int64(k)*s.interval
	return at, at < s.end
}

// offered is the number of operations the plan contains.
func (s schedule) offered() int {
	span := s.end - s.start - s.offset
	if span <= 0 {
		return 0
	}
	return int((span + s.interval - 1) / s.interval)
}
