package main

import (
	"math"
	"slices"
	"sync/atomic"
)

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile implements the reporting rule of choosing-metrics §1: the
// highest percentile that still has at least ten samples beyond it. With
// too few samples for any tail it falls back to the median.
func tailPercentile(samples int) float64 {
	for _, p := range tailLadder {
		if float64(samples)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of sorted (ascending) by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is what the acceptance check uses for its
// spread: (q3-q1)/median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// windows collects raw latency samples (nanoseconds) into fixed-width time
// windows keyed by the sample's due time. A timing is reported over all of
// them pooled; the windows serve the traced run (which seconds had spans on)
// and the stability figures beside each timing. Recording is lock-free and
// allocation-free; a window that overflows its preallocated capacity keeps
// counting but stops storing (reported as dropped).
type windows struct {
	start int64 // ns, generator clock
	end   int64
	width int64
	wins  []window
}

type window struct {
	n    atomic.Int64
	late atomic.Int64 // samples beyond latencyLimit
	v    []uint32
}

func newWindows(start, end, width int64, perWindow int) *windows {
	// Whole windows only: a shorter last one would have fewer samples than
	// the rest and drag the tail percentile down for all of them. Samples
	// due in the remainder belong to no window.
	count := max(1, int((end-start)/width))
	end = min(end, start+int64(count)*width)
	w := &windows{start: start, end: end, width: width, wins: make([]window, count)}
	for i := range w.wins {
		w.wins[i].v = make([]uint32, perWindow)
	}
	return w
}

// record files latency ns under the window containing due and reports
// whether it did. Samples due outside [start, end) belong to another phase
// and are ignored, as is everything on a nil receiver (no phase is timing).
func (w *windows) record(due, ns int64) bool {
	if w == nil || due < w.start || due >= w.end {
		return false
	}
	win := &w.wins[(due-w.start)/w.width]
	slot := win.n.Add(1) - 1
	if slot < int64(len(win.v)) {
		win.v[slot] = uint32(min(max(ns, 0), math.MaxUint32))
	}
	if ns > int64(latencyLimit) {
		win.late.Add(1)
	}
	return true
}

// timing is a reported latency figure, in microseconds: the median and the
// tail percentile of every sample of the phase, pooled.
type timing struct {
	P50us   float64 `json:"p50_us"`
	Tailus  float64 `json:"tail_us"`
	TailPct float64 `json:"tail_pct"` // which percentile Tailus is (the ≥10-beyond rule on Samples)
	Maxus   float64 `json:"max_us"`
	Samples int     `json:"samples"`
	Late    int64   `json:"late"` // samples beyond latencyLimit
	Windows int     `json:"windows"`
	Dropped int     `json:"dropped"` // samples beyond window capacity (not stored)
	// The median over windows of each window's median and tail: what a typical
	// quarter second looks like. A stall that hits few windows moves Tailus
	// and not these; informational, never a named metric.
	WindowP50us   float64 `json:"window_p50_us"`
	WindowTailus  float64 `json:"window_tail_us"`
	WindowTailPct float64 `json:"window_tail_pct"` // chosen for the smallest window
}

// summarize reduces the windows to a timing. filter selects which windows
// take part by their offset from the phase start (nil: all); windows with no
// samples are skipped.
func (w *windows) summarize(filter func(offset int64) bool) timing {
	var t timing
	if w == nil {
		return t
	}
	var pooled []float64
	var sorted [][]float64
	minSamples := math.MaxInt
	for i := range w.wins {
		if filter != nil && !filter(int64(i)*w.width) {
			continue
		}
		win := &w.wins[i]
		n := int(win.n.Load())
		stored := min(n, len(win.v))
		if stored == 0 {
			continue
		}
		t.Dropped += n - stored
		t.Late += win.late.Load()
		s := make([]float64, stored)
		for j, ns := range win.v[:stored] {
			s[j] = float64(ns) / 1e3
		}
		slices.Sort(s)
		sorted = append(sorted, s)
		pooled = append(pooled, s...)
		minSamples = min(minSamples, stored)
	}
	if len(sorted) == 0 {
		return t
	}
	slices.Sort(pooled)
	t.Samples = len(pooled)
	t.TailPct = tailPercentile(t.Samples)
	t.P50us = percentile(pooled, 50)
	t.Tailus = percentile(pooled, t.TailPct)
	t.Maxus = pooled[len(pooled)-1]

	t.Windows = len(sorted)
	t.WindowTailPct = tailPercentile(minSamples)
	var p50s, tails []float64
	for _, s := range sorted {
		p50s = append(p50s, percentile(s, 50))
		tails = append(tails, percentile(s, t.WindowTailPct))
	}
	t.WindowP50us = median(p50s)
	t.WindowTailus = median(tails)
	return t
}

// summarizeSamples reduces a flat sample set (microseconds) with the same
// percentile rule; used where a phase yields too few samples to window
// (resume catch-up times).
func summarizeSamples(us []float64) timing {
	s := slices.Clone(us)
	slices.Sort(s)
	t := timing{Samples: len(s), TailPct: tailPercentile(len(s))}
	t.P50us = percentile(s, 50)
	t.Tailus = percentile(s, t.TailPct)
	return t
}
