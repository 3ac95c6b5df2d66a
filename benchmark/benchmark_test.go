package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{51200, 99}, {1000, 99}, {999, 95}, {240, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.samples, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestWindowsKeyByDueTimeAndIgnoreOtherPhases(t *testing.T) {
	sec := int64(time.Second)
	w := newWindows(10*sec, 12*sec+sec/2, sec, 2000)
	for i := 0; i < 1500; i++ {
		w.record(10*sec+int64(i), int64(i)*1000)        // window 0: 0..1499 µs
		w.record(11*sec+int64(i), int64(i)*1000+500000) // window 1: 500..1999 µs
	}
	if w.record(9*sec, 1) || w.record(12*sec+sec/4, 1) {
		t.Error("a sample due outside the whole windows was recorded")
	}
	var none *windows
	if none.record(10*sec, 1) {
		t.Error("nil windows recorded a sample")
	}
	got := w.summarize(nil)
	if got.Windows != 2 || got.Samples != 3000 || got.TailPct != 99 {
		t.Fatalf("summary = %+v", got)
	}
	// The named figures are over all samples pooled: 0..1499 ∪ 500..1999 µs.
	if math.Abs(got.P50us-999.5) > 1e-9 || math.Abs(got.Tailus-1969.01) > 1e-6 {
		t.Errorf("pooled P50us = %v, Tailus = %v, want 999.5, 1969.01", got.P50us, got.Tailus)
	}
	// Beside them, the median over windows of each window's median and p99:
	// (749.5 + 1249.5) / 2 and (1484.01 + 1984.01) / 2.
	if math.Abs(got.WindowP50us-999.5) > 1e-9 || math.Abs(got.WindowTailus-1734.01) > 1e-6 || got.WindowTailPct != 99 {
		t.Errorf("window P50us = %v, Tailus = %v (p%g), want 999.5, 1734.01 (p99)", got.WindowP50us, got.WindowTailus, got.WindowTailPct)
	}
	only0 := w.summarize(func(offset int64) bool { return offset == 0 })
	if only0.Windows != 1 || only0.Samples != 1500 || math.Abs(only0.P50us-749.5) > 1e-9 {
		t.Errorf("filtered summary = %+v", only0)
	}
}

func TestRefStreamIsAPureFunctionOfSeed(t *testing.T) {
	a, b, other := newRefStream(7), newRefStream(7), newRefStream(8)
	pa, pb, po := make([]byte, 140), make([]byte, 140), make([]byte, 140)
	a.fill(pa, 3, 41)
	b.fill(pb, 3, 41)
	other.fill(po, 3, 41)
	if string(pa) != string(pb) {
		t.Error("same seed, different payload")
	}
	if string(pa) == string(po) {
		t.Error("different seed, same payload")
	}
	if n, ok := b.verify(pa, 3); !ok || n != 41 {
		t.Errorf("verify = %d, %v", n, ok)
	}
	if _, ok := b.verify(pa, 2); ok {
		t.Error("payload accepted for the wrong topic")
	}
	if _, ok := other.verify(pa, 3); ok {
		t.Error("payload accepted against another seed's stream")
	}
	pa[100] ^= 1
	if _, ok := b.verify(pa, 3); ok {
		t.Error("corrupted payload accepted")
	}
	if _, ok := b.verify(pa[:8], 3); ok {
		t.Error("truncated payload accepted")
	}
}

func TestCheckerContract(t *testing.T) {
	type delivery struct {
		epoch uint32
		seq   uint64
		n     uint64
	}
	for _, c := range []struct {
		name             string
		in               []delivery
		gaps, order, dup int64
		next             uint64
	}{
		{"in order", []delivery{{1, 1, 0}, {1, 2, 1}, {1, 3, 2}}, 0, 0, 0, 3},
		{"gap", []delivery{{1, 1, 0}, {1, 4, 3}}, 2, 0, 0, 4},
		{"first message missing", []delivery{{1, 2, 1}}, 1, 0, 0, 2},
		{"resume overlap is a duplicate", []delivery{{1, 1, 0}, {1, 2, 1}, {1, 2, 1}, {1, 3, 2}}, 0, 0, 1, 3},
		{"coordinator change restarts seq, no gap", []delivery{{1, 1, 0}, {1, 2, 1}, {5, 1, 2}, {5, 2, 3}}, 0, 0, 0, 4},
		{"gap across a coordinator change", []delivery{{1, 1, 0}, {5, 1, 2}}, 1, 0, 0, 3},
		{"republished message at a new position is a duplicate", []delivery{{1, 1, 0}, {1, 2, 1}, {1, 3, 0}, {1, 4, 2}}, 0, 0, 1, 3},
		{"new message at a stale position", []delivery{{2, 5, 0}, {2, 5, 1}, {1, 9, 2}}, 0, 2, 0, 3},
	} {
		chk := checker{started: true} // subscribed before the first publish
		for _, d := range c.in {
			chk.observe(d.epoch, d.seq, d.n)
		}
		if chk.gaps != c.gaps || chk.order != c.order || chk.duplicates != c.dup || chk.next != c.next {
			t.Errorf("%s: gaps=%d order=%d dup=%d next=%d, want %d %d %d %d",
				c.name, chk.gaps, chk.order, chk.duplicates, chk.next, c.gaps, c.order, c.dup, c.next)
		}
	}
	// A subscription that starts mid-stream accepts whatever comes first.
	var late checker
	late.observe(3, 70, 500)
	late.observe(3, 71, 501)
	if late.gaps != 0 || late.next != 502 {
		t.Errorf("mid-stream start: gaps=%d next=%d", late.gaps, late.next)
	}
}

func TestScheduleIsAbsoluteAndLanesInterleave(t *testing.T) {
	start, end := int64(1_000_000), int64(1_000_000+time.Second)
	a := newSchedule(start, end, 5000, 2, 0)
	b := newSchedule(start, end, 5000, 2, 1)
	if a.offered()+b.offered() != 5000 {
		t.Errorf("offered %d + %d, want 5000 in one second", a.offered(), b.offered())
	}
	// Operation k's deadline does not depend on when k-1 ran: no drift.
	for _, k := range []int{0, 1, 999, 2499} {
		at, ok := a.due(k)
		if want := start + int64(k)*400_000; !ok || at != want {
			t.Errorf("lane 0 due(%d) = %d, %v, want %d", k, at, ok, want)
		}
		bt, _ := b.due(k)
		if bt != at+200_000 {
			t.Errorf("lane 1 due(%d) = %d, want lane 0 + 200µs", k, bt)
		}
	}
	if _, ok := a.due(2500); ok {
		t.Error("operation due at the end of the plan is still offered")
	}
}

func TestSleeperWaitsForTheDeadlineOnly(t *testing.T) {
	s, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	t0 := nowNs()
	if err := s.waitUntil(t0 - int64(time.Second)); err != nil {
		t.Fatal(err)
	}
	if d := nowNs() - t0; d > int64(20*time.Millisecond) {
		t.Errorf("a deadline in the past slept %v", time.Duration(d))
	}
	due := nowNs() + int64(5*time.Millisecond)
	if err := s.waitUntil(due); err != nil {
		t.Fatal(err)
	}
	if late := nowNs() - due; late < 0 || late > int64(200*time.Millisecond) {
		t.Errorf("woke %v after the deadline", time.Duration(late))
	}
}

func TestStalledWindowsAreLeftOut(t *testing.T) {
	ms := int64(time.Millisecond)
	width := 250 * ms
	// A gap over [1190, 1300] ms touches windows 4 and 5; one that ended
	// before the phase began touches none.
	stalled := stalledWindows([]hostGap{{-300 * ms, -100 * ms}, {1190 * ms, 1300 * ms}}, 0, width, 8)
	want := []bool{false, false, false, false, true, true, false, false}
	if len(stalled) != len(want) {
		t.Fatalf("stalled = %v", stalled)
	}
	for i := range want {
		if stalled[i] != want[i] {
			t.Fatalf("stalled = %v, want %v", stalled, want)
		}
	}
	// A late sample counts where it was due, and not at all in a stalled window.
	w := newWindows(0, 8*width, width, 16)
	w.record(100*ms, int64(latencyLimit)+1)  // window 0: the server's doing
	w.record(1260*ms, int64(latencyLimit)*2) // window 5: the host's
	w.record(1800*ms, 400_000)
	all := w.summarize(nil)
	kept := w.summarize(func(offset int64) bool { return !stalled[offset/width] })
	if all.Late != 2 || kept.Late != 1 || kept.Samples != 2 || kept.Maxus != float64(latencyLimit+1)/1e3 {
		t.Errorf("all = %+v, kept = %+v", all, kept)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "delivery_p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "peak_deliveries_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d                      metricDef
		medA, medB, iqrA, iqrB float64
		want                   string
	}{
		{lower, 100, 105, 2, 2, "within-bound"},
		{lower, 100, 80, 2, 2, "within-bound"}, // better is never a regression
		{lower, 100, 115, 2, 2, "regression"},
		{lower, 100, 115, 12, 2, "unresolved"}, // A's own spread exceeds the bound
		{higher, 100, 85, 2, 2, "regression"},
		{higher, 100, 120, 2, 2, "within-bound"},
		{metricDef{name: "failed_ops_ratio", better: "lower"}, 0, 0, 0, 0, "within-bound"},
		{metricDef{name: "failed_ops_ratio", better: "lower"}, 0, 1e-6, 0, 0, "regression"},
	} {
		if got, _ := judge(c.d, c.medA, c.medB, c.iqrA, c.iqrB); got != c.want {
			t.Errorf("judge(%s, %v→%v, iqr %v/%v) = %s, want %s", c.d.name, c.medA, c.medB, c.iqrA, c.iqrB, got, c.want)
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	self := selfTimes([]span{
		{Name: "msg", Start: 0, End: 100, ID: 1},
		{Name: "decode", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "append", Start: 50, End: 70, ID: 3, Parent: 1},
		{Name: "inner", Start: 55, End: 60, ID: 4, Parent: 3},
	})
	if self["msg"][0] != 50 || self["decode"][0] != 30 || self["append"][0] != 15 || self["inner"][0] != 5 {
		t.Errorf("self times = %v", self)
	}
}

func TestTracerKeepsWhatFitsAndCountsTheRest(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 3; i++ {
		tr.add("s", 0, 1, tr.id(), 0, 0)
	}
	if len(tr.recorded()) != 2 || tr.dropped() != 1 {
		t.Errorf("recorded %d, dropped %d", len(tr.recorded()), tr.dropped())
	}
	var off *tracer
	off.add("s", 0, 1, off.id(), 0, 0) // an untraced run records nothing and does not crash
	if off.recorded() != nil || off.dropped() != 0 {
		t.Error("nil tracer recorded something")
	}
}

// BENCHMARK.json is hand-written; the tables in this package are what the
// program reports. They must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the table", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gate == driverGated {
			gated = append(gated, d)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the table", len(spec.EndToEnd), len(gated))
	}
	for i, m := range spec.EndToEnd {
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in the table", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(spec.PerLayer), len(layerDefs))
	}
	for i, m := range spec.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in the table", i, m, d)
		}
	}
}
