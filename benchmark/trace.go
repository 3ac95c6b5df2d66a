package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
)

// span is one traced interval on the generator clock. Spans of one message
// share Msg; Parent names the span that caused this one (0: a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Msg    uint64 `json:"msg"`
}

// tracer records spans into a preallocated buffer — no allocation, no I/O
// and no lock while a workload runs — and writes them out once, at the end
// (choosing-metrics §4). A nil tracer records nothing: the untraced run
// pays one nil check per candidate span.
type tracer struct {
	spans []span
	n     atomic.Int64
	next  atomic.Uint64 // span id allocator
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

// id reserves a span id, so children can name a parent that ends later.
// The top bit keeps allocated ids apart from the ids derived from a message
// (pubSpanID).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1) | 1<<63
}

// add records a finished span; spans past the buffer's capacity are
// counted (see dropped) but not kept.
func (t *tracer) add(name string, start, end int64, id, parent, msg uint64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = span{Name: name, Start: start, End: end, ID: id, Parent: parent, Msg: msg}
	}
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

func (t *tracer) dropped() int64 {
	if t == nil {
		return 0
	}
	return max(0, t.n.Load()-int64(len(t.spans)))
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recorded() {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, each span's self time in nanoseconds:
// its duration minus the part of it its children cover (children of one
// parent do not overlap in this benchmark, so that is the sum of their
// durations clipped to the parent).
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[uint64]int64)
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p := byID[s.Parent]
		if s.Parent == 0 || p == nil {
			continue
		}
		if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
			covered[s.Parent] += d
		}
	}
	out := make(map[string][]float64)
	for i := range spans {
		s := &spans[i]
		self := s.End - s.Start - covered[s.ID]
		out[s.Name] = append(out[s.Name], float64(max(self, 0)))
	}
	return out
}
