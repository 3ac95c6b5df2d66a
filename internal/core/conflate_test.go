package core

import (
	"testing"
	"time"

	"migratorydata/internal/cache"
)

var conflateT0 = time.Unix(1000, 0)

func seqEntry(seq uint64) cache.Entry { return cache.Entry{Epoch: 1, Seq: seq} }

func TestConflatorKeepLast(t *testing.T) {
	c := conflator{}
	c.offer(conflateT0, "t", seqEntry(1), nil)
	c.offer(conflateT0.Add(10*time.Millisecond), "t", seqEntry(2), nil)
	c.offer(conflateT0.Add(20*time.Millisecond), "t", seqEntry(3), nil)
	if got := c.drain(conflateT0.Add(30*time.Millisecond), 50*time.Millisecond); got != nil {
		t.Fatalf("drain fired early: %v", got)
	}
	got := c.drain(conflateT0.Add(51*time.Millisecond), 50*time.Millisecond)
	if len(got) != 1 || got[0].entry.Seq != 3 || got[0].count != 3 || got[0].topic != "t" {
		t.Fatalf("drain = %+v", got)
	}
	if len(c) != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestConflatorPerTopicIntervals(t *testing.T) {
	c := conflator{}
	c.offer(conflateT0, "a", seqEntry(1), nil)
	c.offer(conflateT0.Add(40*time.Millisecond), "b", seqEntry(1), nil)
	got := c.drain(conflateT0.Add(55*time.Millisecond), 50*time.Millisecond)
	if len(got) != 1 || got[0].topic != "a" {
		t.Fatalf("drain = %+v, want only topic a", got)
	}
	got = c.drain(conflateT0.Add(95*time.Millisecond), 50*time.Millisecond)
	if len(got) != 1 || got[0].topic != "b" {
		t.Fatalf("drain = %+v, want topic b", got)
	}
}

func BenchmarkConflatorOffer(b *testing.B) {
	c := conflator{}
	frame := make([]byte, 140)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.offer(now, "ticker", seqEntry(uint64(i)), frame)
		if i%1000 == 0 {
			now = now.Add(2 * time.Millisecond)
			c.drain(now, time.Millisecond)
		}
	}
}
