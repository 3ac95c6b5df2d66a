package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(25 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d", s.Count)
	}
	for name, v := range map[string]float64{
		"Median": s.Median, "Mean": s.Mean, "P90": s.P90, "P95": s.P95, "P99": s.P99, "Min": s.Min, "Max": s.Max,
	} {
		if math.Abs(v-25) > 1e-9 {
			t.Errorf("%s = %v, want 25", name, v)
		}
	}
	if s.StdDev != 0 {
		t.Errorf("StdDev = %v, want 0", s.StdDev)
	}
}

func TestHistogramKnownDistribution(t *testing.T) {
	var h Histogram
	// 1..100 ms, one sample each.
	for i := 1; i <= 100; i++ {
		h.RecordMillis(float64(i))
	}
	s := h.Snapshot()
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", s.Mean)
	}
	if math.Abs(s.Median-50.5) > 1e-9 {
		t.Errorf("Median = %v, want 50.5", s.Median)
	}
	if s.P90 < 90 || s.P90 > 91 {
		t.Errorf("P90 = %v, want in [90, 91]", s.P90)
	}
	if s.P99 < 99 || s.P99 > 100 {
		t.Errorf("P99 = %v, want in [99, 100]", s.P99)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("Min/Max = %v/%v, want 1/100", s.Min, s.Max)
	}
	// stddev of uniform 1..100 ≈ 28.866
	if math.Abs(s.StdDev-28.866) > 0.01 {
		t.Errorf("StdDev = %v, want ≈28.866", s.StdDev)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		var h Histogram
		for _, v := range raw {
			h.RecordMillis(float64(v))
		}
		s := h.Snapshot()
		return s.Median <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 &&
			s.Min <= s.Median && s.P99 <= s.Max
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRecordAfterSnapshot(t *testing.T) {
	var h Histogram
	h.RecordMillis(10)
	_ = h.Snapshot()
	h.RecordMillis(20)
	s := h.Snapshot()
	if s.Count != 2 || s.Max != 20 {
		t.Fatalf("snapshot after extra record = %+v", s)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.RecordMillis(1)
	b.RecordMillis(3)
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 2 || math.Abs(s.Mean-2) > 1e-9 {
		t.Fatalf("merged = %+v", s)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.RecordMillis(5)
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset did not clear samples")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.RecordMillis(float64(i % 50))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestStatsString(t *testing.T) {
	var h Histogram
	h.RecordMillis(10)
	got := h.Snapshot().String()
	if got == "" {
		t.Fatal("empty String()")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("Value = %d, want 10", c.Value())
	}
}

func TestTrafficMeter(t *testing.T) {
	var tm TrafficMeter
	if tm.Gbps() != 0 {
		t.Fatal("Gbps before Start should be 0")
	}
	tm.Start()
	tm.AddBytes(1e9 / 8) // 1 Gbit
	time.Sleep(10 * time.Millisecond)
	g := tm.Gbps()
	if g <= 0 {
		t.Fatalf("Gbps = %v, want > 0", g)
	}
	if tm.Bytes() != 1e9/8 {
		t.Fatalf("Bytes = %d", tm.Bytes())
	}
}

func TestCPUSampler(t *testing.T) {
	var cs CPUSampler
	if cs.Utilization() != 0 {
		t.Fatal("Utilization before Start should be 0")
	}
	cs.Start()
	cs.AddBusy(5 * time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	u := cs.Utilization()
	if u <= 0 || u > 1.5 {
		t.Fatalf("Utilization = %v, want in (0, 1.5]", u)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.RecordMillis(float64(i % 100))
	}
}

func BenchmarkHistogramSnapshot10k(b *testing.B) {
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.RecordMillis(float64(i % 500))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}
