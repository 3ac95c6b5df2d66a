package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// put and since are the tests' shorthands for the group-keyed API: hash the
// topic, then call the *Group form, as every production caller does.
func put(c *Cache, topic string, e Entry) bool {
	return c.AppendGroup(c.GroupOf(topic), topic, e)
}

func since(c *Cache, topic string, epoch uint32, seq uint64, limit int) []Entry {
	return c.SinceGroup(c.GroupOf(topic), topic, epoch, seq, limit)
}

func TestAppendAndLatest(t *testing.T) {
	c := New(10, 8)
	if _, ok := c.LatestGroup(c.GroupOf("t"), "t"); ok {
		t.Fatal("Latest on empty topic returned ok")
	}
	if !put(c, "t", Entry{Epoch: 1, Seq: 1, ID: "a"}) {
		t.Fatal("first append rejected")
	}
	e, ok := c.LatestGroup(c.GroupOf("t"), "t")
	if !ok || e.ID != "a" {
		t.Fatalf("Latest = %+v, %v", e, ok)
	}
}

func TestAppendRejectsStaleAndDuplicate(t *testing.T) {
	c := New(10, 8)
	put(c, "t", Entry{Epoch: 1, Seq: 5})
	if put(c, "t", Entry{Epoch: 1, Seq: 5}) {
		t.Fatal("duplicate (same epoch/seq) accepted")
	}
	if put(c, "t", Entry{Epoch: 1, Seq: 4}) {
		t.Fatal("stale seq accepted")
	}
	if put(c, "t", Entry{Epoch: 0, Seq: 100}) {
		t.Fatal("stale epoch accepted")
	}
	if !put(c, "t", Entry{Epoch: 1, Seq: 6}) {
		t.Fatal("next seq rejected")
	}
	if !put(c, "t", Entry{Epoch: 2, Seq: 1}) {
		t.Fatal("new epoch with lower seq rejected (epochs order first)")
	}
}

func TestSinceBasic(t *testing.T) {
	c := New(10, 16)
	for i := 1; i <= 10; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i), ID: fmt.Sprint(i)})
	}
	got := since(c, "t", 1, 4, 0)
	if len(got) != 6 {
		t.Fatalf("Since returned %d entries, want 6", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(5+i) {
			t.Fatalf("entry %d has seq %d, want %d (ordered oldest-first)", i, e.Seq, 5+i)
		}
	}
}

func TestSinceLimit(t *testing.T) {
	c := New(10, 16)
	for i := 1; i <= 10; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	got := since(c, "t", 0, 0, 3)
	if len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("limited Since = %v", got)
	}
}

func TestSinceUnknownTopic(t *testing.T) {
	c := New(10, 16)
	if got := since(c, "nope", 0, 0, 0); got != nil {
		t.Fatalf("Since unknown topic = %v", got)
	}
}

func TestSinceAcrossEpochs(t *testing.T) {
	c := New(10, 16)
	put(c, "t", Entry{Epoch: 1, Seq: 8})
	put(c, "t", Entry{Epoch: 1, Seq: 9})
	put(c, "t", Entry{Epoch: 2, Seq: 1}) // coordinator changed
	put(c, "t", Entry{Epoch: 2, Seq: 2})
	got := since(c, "t", 1, 9, 0)
	if len(got) != 2 || got[0].Epoch != 2 || got[0].Seq != 1 {
		t.Fatalf("Since across epochs = %v", got)
	}
}

func TestRingEviction(t *testing.T) {
	c := New(10, 4)
	for i := 1; i <= 10; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	got := since(c, "t", 0, 0, 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("ring contents = %v, want seqs 7..10", got)
	}
}

func TestPosition(t *testing.T) {
	c := New(10, 8)
	if _, _, ok := c.PositionGroup(c.GroupOf("t"), "t"); ok {
		t.Fatal("Position on empty topic")
	}
	put(c, "t", Entry{Epoch: 3, Seq: 77})
	e, s, ok := c.PositionGroup(c.GroupOf("t"), "t")
	if !ok || e != 3 || s != 77 {
		t.Fatalf("Position = %d %d %v", e, s, ok)
	}
}

func TestGroupOfConsistentWithTopicsInGroup(t *testing.T) {
	c := New(25, 8)
	topics := []string{"a", "b", "c", "scores/1", "odds/2"}
	for _, topic := range topics {
		put(c, topic, Entry{Epoch: 1, Seq: 1})
	}
	for _, topic := range topics {
		found := false
		for _, got := range c.TopicsInGroup(c.GroupOf(topic)) {
			if got == topic {
				found = true
			}
		}
		if !found {
			t.Fatalf("topic %q not listed in its group %d", topic, c.GroupOf(topic))
		}
	}
	if got := c.TopicsInGroup(-1); got != nil {
		t.Fatal("TopicsInGroup(-1) should be nil")
	}
	if got := c.TopicsInGroup(999); got != nil {
		t.Fatal("TopicsInGroup(out of range) should be nil")
	}
}

func TestTopicCountAndLen(t *testing.T) {
	c := New(10, 8)
	put(c, "a", Entry{Epoch: 1, Seq: 1})
	put(c, "a", Entry{Epoch: 1, Seq: 2})
	put(c, "b", Entry{Epoch: 1, Seq: 1})
	if got := c.MemStats().Topics; got != 2 {
		t.Fatalf("Topics = %d, want 2", got)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestDefaults(t *testing.T) {
	c := New(0, 0)
	if c.NumGroups() != DefaultTopicGroups {
		t.Fatalf("NumGroups = %d", c.NumGroups())
	}
}

func TestPropertySinceReturnsExactlyNewer(t *testing.T) {
	// Property: for any monotone append sequence and any query position,
	// Since returns exactly the cached entries after that position, in order.
	err := quick.Check(func(seqsRaw []uint8, queryRaw uint8) bool {
		c := New(4, 64)
		var appended []Entry
		seq := uint64(0)
		for _, d := range seqsRaw {
			seq += uint64(d%5) + 1
			e := Entry{Epoch: 1, Seq: seq}
			put(c, "t", e)
			appended = append(appended, e)
		}
		if len(appended) > 64 {
			appended = appended[len(appended)-64:]
		}
		query := uint64(queryRaw)
		var want []uint64
		for _, e := range appended {
			if e.Seq > query {
				want = append(want, e.Seq)
			}
		}
		got := since(c, "t", 1, query, 0)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Seq != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendDistinctTopics(t *testing.T) {
	c := New(100, 128)
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := fmt.Sprintf("topic-%d", w)
			for i := 1; i <= perWriter; i++ {
				if !put(c, topic, Entry{Epoch: 1, Seq: uint64(i)}) {
					t.Errorf("append rejected for %s seq %d", topic, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		topic := fmt.Sprintf("topic-%d", w)
		if got := len(since(c, topic, 0, 0, 0)); got != 128 {
			t.Fatalf("%s has %d entries, want 128 (ring capacity)", topic, got)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	c := New(10, 64)
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 500; i++ {
				entries := since(c, "t", 1, 0, 0)
				for j := 1; j < len(entries); j++ {
					if !entries[j].After(entries[j-1].Epoch, entries[j-1].Seq) {
						t.Error("Since returned out-of-order entries")
						return
					}
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

func BenchmarkAppendSingleTopic(b *testing.B) {
	c := New(100, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		put(c, "bench", Entry{Epoch: 1, Seq: uint64(i + 1), Payload: nil})
	}
}

func BenchmarkAppendShardedParallel(b *testing.B) {
	// Writers hit distinct topic groups — the design point of the sharded
	// cache (paper §4). Compare with BenchmarkAppendGlobalContention.
	c := New(100, 1024)
	var id int64
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		id++
		topic := fmt.Sprintf("topic-%d", id)
		mu.Unlock()
		seq := uint64(0)
		for pb.Next() {
			seq++
			put(c, topic, Entry{Epoch: 1, Seq: seq})
		}
	})
}

func BenchmarkAppendGlobalContention(b *testing.B) {
	// All writers hit one group (single-group cache = one global lock):
	// the ablation baseline for BenchmarkAppendShardedParallel.
	c := New(1, 1024)
	var id int64
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		id++
		topic := fmt.Sprintf("topic-%d", id)
		mu.Unlock()
		seq := uint64(0)
		for pb.Next() {
			seq++
			put(c, topic, Entry{Epoch: 1, Seq: seq})
		}
	})
}

func BenchmarkSince(b *testing.B) {
	c := New(100, 1024)
	for i := 1; i <= 1024; i++ {
		put(c, "bench", Entry{Epoch: 1, Seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		since(c, "bench", 1, 1000, 0)
	}
}

func TestRingGrowsGeometrically(t *testing.T) {
	c := New(4, 1024)
	slots := func() int { return c.MemStats().Slots }
	put(c, "t", Entry{Epoch: 1, Seq: 1})
	if got := slots(); got != initialRingCapacity {
		t.Fatalf("slots after first append = %d, want %d", got, initialRingCapacity)
	}
	for i := 2; i <= initialRingCapacity+1; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	if got := slots(); got != 2*initialRingCapacity {
		t.Fatalf("slots after overflow = %d, want %d (doubled)", got, 2*initialRingCapacity)
	}
	// Contents survive every growth step up to the cap, in order.
	for i := initialRingCapacity + 2; i <= 3000; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	if got := slots(); got != 1024 {
		t.Fatalf("slots at cap = %d, want 1024 (never beyond the per-topic cap)", got)
	}
	got := since(c, "t", 0, 0, 0)
	if len(got) != 1024 {
		t.Fatalf("ring holds %d entries at cap, want 1024", len(got))
	}
	for i, e := range got {
		if want := uint64(3000 - 1024 + 1 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestRingGrowthPreservesWrappedOrder(t *testing.T) {
	// Force a grow while start != 0: fill to cap 8 via a small cap... the
	// initial ring only wraps once it stops growing, so drive a cap-16 ring
	// past 8, behind a rotated start produced by epoch-ordered overwrites.
	c := New(4, 16)
	for i := 1; i <= 8; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	// Ring is exactly full at the initial capacity; the next append grows
	// with start possibly rotated. Then fill past 16 so it wraps at cap.
	for i := 9; i <= 40; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	got := since(c, "t", 0, 0, 0)
	if len(got) != 16 {
		t.Fatalf("len = %d, want 16", len(got))
	}
	for i, e := range got {
		if want := uint64(40 - 16 + 1 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestAppendNextSequences(t *testing.T) {
	c := New(10, 8)
	g := c.GroupOf("t")
	e1, ok := c.AppendNext(g, "t", Entry{Epoch: 1, ID: "a"})
	if !ok || e1.Epoch != 1 || e1.Seq != 1 {
		t.Fatalf("first AppendNext = %+v %v, want (1,1)", e1, ok)
	}
	e2, ok := c.AppendNext(g, "t", Entry{Epoch: 1, ID: "b"})
	if !ok || e2.Seq != 2 {
		t.Fatalf("second AppendNext = %+v %v, want seq 2", e2, ok)
	}
	// Proposed epoch ahead of the cache: the stream restarts at seq 1
	// (coordinator takeover).
	e3, ok := c.AppendNext(g, "t", Entry{Epoch: 3, ID: "c"})
	if !ok || e3.Epoch != 3 || e3.Seq != 1 {
		t.Fatalf("takeover AppendNext = %+v %v, want (3,1)", e3, ok)
	}
	// Proposed epoch behind the cache: stale authority, nothing stored.
	if _, ok := c.AppendNext(g, "t", Entry{Epoch: 2, ID: "d"}); ok {
		t.Fatal("AppendNext with stale epoch succeeded")
	}
	if got := len(since(c, "t", 0, 0, 0)); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 (stale append stored nothing)", got)
	}
	// The ignored e.Seq must not leak through.
	e4, ok := c.AppendNext(g, "t", Entry{Epoch: 3, Seq: 999})
	if !ok || e4.Seq != 2 {
		t.Fatalf("AppendNext ignored-seq = %+v, want seq 2", e4)
	}
}

func TestAppendNextConcurrentDenseSeqs(t *testing.T) {
	// N goroutines sequencing through one topic must produce exactly the
	// dense range 1..N with no duplicates — the single-lock sequencing
	// contract the publish path relies on.
	c := New(10, 4096)
	g := c.GroupOf("t")
	const writers, per = 8, 250
	var wg sync.WaitGroup
	seen := make([]sync.Map, 1) // seq -> struct{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e, ok := c.AppendNext(g, "t", Entry{Epoch: 1})
				if !ok {
					t.Error("AppendNext failed")
					return
				}
				if _, dup := seen[0].LoadOrStore(e.Seq, struct{}{}); dup {
					t.Errorf("duplicate seq %d", e.Seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	entries := since(c, "t", 0, 0, 0)
	if len(entries) != writers*per {
		t.Fatalf("cache holds %d entries, want %d", len(entries), writers*per)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d, want dense %d", i, e.Seq, i+1)
		}
	}
}

func TestGroupVariantsFallBackOnBadGroup(t *testing.T) {
	c := New(25, 8)
	g := c.GroupOf("t")
	if !c.AppendGroup(g, "t", Entry{Epoch: 1, Seq: 1, ID: "x"}) {
		t.Fatal("AppendGroup rejected first entry")
	}
	if e, ok := c.LatestGroup(g, "t"); !ok || e.ID != "x" {
		t.Fatalf("LatestGroup = %+v %v", e, ok)
	}
	if ep, s, ok := c.PositionGroup(g, "t"); !ok || ep != 1 || s != 1 {
		t.Fatalf("PositionGroup = %d %d %v", ep, s, ok)
	}
	if got := c.SinceGroup(g, "t", 0, 0, 0); len(got) != 1 {
		t.Fatalf("SinceGroup = %v", got)
	}
	// Out-of-range groups fall back to hashing rather than panicking.
	if !c.AppendGroup(-1, "t", Entry{Epoch: 1, Seq: 2}) {
		t.Fatal("AppendGroup(-1) did not fall back to hashing")
	}
	if _, ok := c.LatestGroup(9999, "t"); !ok {
		t.Fatal("LatestGroup(out of range) did not fall back to hashing")
	}
	if _, ok := c.AppendNext(9999, "t", Entry{Epoch: 1}); !ok {
		t.Fatal("AppendNext(out of range) did not fall back to hashing")
	}
}

func TestAppendSinceReusesBuffer(t *testing.T) {
	c := New(10, 64)
	g := c.GroupOf("t")
	for i := 1; i <= 20; i++ {
		put(c, "t", Entry{Epoch: 1, Seq: uint64(i)})
	}
	buf := make([]Entry, 0, 64)
	got := c.AppendSinceGroup(buf, g, "t", 1, 10, 0)
	if len(got) != 10 || got[0].Seq != 11 {
		t.Fatalf("AppendSince = %d entries starting %d", len(got), got[0].Seq)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendSince did not use the caller's buffer")
	}
	// Limit applies to entries appended, not to the total length of dst.
	got = c.AppendSinceGroup(got[:3], g, "t", 1, 0, 5)
	if len(got) != 8 {
		t.Fatalf("AppendSince with prefix+limit returned %d entries, want 3+5", len(got))
	}
	// Steady-state replay with a warm buffer allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendSinceGroup(buf[:0], g, "t", 1, 0, 0)
	})
	if allocs > 0 {
		t.Errorf("AppendSince with a warm buffer allocates %.1f objects/op, want 0", allocs)
	}
}

func TestMemStatsGauges(t *testing.T) {
	c := New(10, 64)
	ms := c.MemStats()
	if ms.Topics != 0 || ms.Entries != 0 || ms.Slots != 0 || ms.Bytes() != 0 {
		t.Fatalf("empty cache MemStats = %+v", ms)
	}
	put(c, "a", Entry{Epoch: 1, Seq: 1, Payload: make([]byte, 100)})
	put(c, "a", Entry{Epoch: 1, Seq: 2, Payload: make([]byte, 40)})
	put(c, "b", Entry{Epoch: 1, Seq: 1})
	ms = c.MemStats()
	if ms.Topics != 2 || ms.Entries != 3 || ms.Slots != 2*initialRingCapacity {
		t.Fatalf("MemStats = %+v", ms)
	}
	if ms.PayloadBytes != 140 {
		t.Fatalf("PayloadBytes = %d, want 140", ms.PayloadBytes)
	}
	if ms.SlotBytes != int64(ms.Slots)*entrySize || ms.Bytes() != ms.SlotBytes+140 {
		t.Fatalf("byte accounting inconsistent: %+v", ms)
	}
	if ms.Appends != 3 {
		t.Fatalf("Appends = %d, want 3", ms.Appends)
	}
}

func TestGroupLockAcquisitionsCountsAppendPaths(t *testing.T) {
	c := New(10, 8)
	g := c.GroupOf("t")
	before := c.MemStats().GroupLockAcquisitions
	c.AppendNext(g, "t", Entry{Epoch: 1})           // 1
	c.AppendNext(g, "t", Entry{Epoch: 1})           // 2
	put(c, "t", Entry{Epoch: 1, Seq: 99})           // 3
	c.AppendGroup(g, "t", Entry{Epoch: 1, Seq: 50}) // 4 (rejected, still one acquisition)
	since(c, "t", 0, 0, 0)                          // read path: not counted
	c.PositionGroup(c.GroupOf("t"), "t")            // read path: not counted
	if got := c.MemStats().GroupLockAcquisitions - before; got != 4 {
		t.Fatalf("GroupLockAcquisitions delta = %d, want 4", got)
	}
}

// TestColdTopicsMemoryProportional is the many-cold-topics footprint proof:
// 100k topics holding one message each must cost a small fraction of what
// eager per-topic-cap rings would pin — the paper's workload shape (most
// topics cold, §4) made the eager 1024-slot rings the dominant waste.
func TestColdTopicsMemoryProportional(t *testing.T) {
	const topics = 100_000
	c := New(DefaultTopicGroups, DefaultPerTopicCapacity)
	for i := 0; i < topics; i++ {
		put(c, fmt.Sprintf("cold-%d", i), Entry{Epoch: 1, Seq: 1})
	}
	ms := c.MemStats()
	if ms.Topics != topics || ms.Entries != topics {
		t.Fatalf("MemStats = %+v", ms)
	}
	if ms.Slots != topics*initialRingCapacity {
		t.Fatalf("Slots = %d, want %d (initial capacity per cold topic)",
			ms.Slots, topics*initialRingCapacity)
	}
	eager := c.EagerSlotBytes(topics)
	if ms.SlotBytes*10 > eager {
		t.Fatalf("cold-topic ring storage = %d bytes; eager allocation = %d; want >= 10x drop (got %.1fx)",
			ms.SlotBytes, eager, float64(eager)/float64(ms.SlotBytes))
	}
	t.Logf("ring storage for %d cold topics: %d bytes vs %d eager (%.0fx lower)",
		topics, ms.SlotBytes, eager, float64(eager)/float64(ms.SlotBytes))
}

// TestMemStatsIncrementalMatchesWalk guards the incrementally-maintained
// gauges (entries/slots/payload bytes, kept so MemStats is O(groups)):
// after growth, eviction-at-cap, and rejected appends they must equal a
// direct walk of every ring.
func TestMemStatsIncrementalMatchesWalk(t *testing.T) {
	c := New(8, 16)
	// Topic "hot" runs past the cap (evictions with varying payload
	// sizes), "warm" grows once, "cold" stays at the initial capacity.
	for i := 1; i <= 50; i++ {
		put(c, "hot", Entry{Epoch: 1, Seq: uint64(i), Payload: make([]byte, i%7)})
	}
	for i := 1; i <= 10; i++ {
		put(c, "warm", Entry{Epoch: 1, Seq: uint64(i), Payload: make([]byte, 3)})
	}
	put(c, "cold", Entry{Epoch: 1, Seq: 1})
	put(c, "cold", Entry{Epoch: 1, Seq: 1}) // duplicate: rejected, no gauge change
	g := c.GroupOf("cold")
	c.AppendNext(g, "cold", Entry{Epoch: 1, Payload: make([]byte, 9)})

	var entries, slots int
	var payload int64
	for _, gr := range c.groups {
		gr.mu.RLock()
		for _, r := range gr.topics {
			entries += r.length
			slots += len(r.entries)
			for i := 0; i < r.length; i++ {
				payload += int64(len(r.entries[(r.start+i)%len(r.entries)].Payload))
			}
		}
		gr.mu.RUnlock()
	}
	ms := c.MemStats()
	if ms.Entries != entries || ms.Slots != slots || ms.PayloadBytes != payload {
		t.Fatalf("incremental gauges diverged from walk: MemStats=%+v walk entries=%d slots=%d payload=%d",
			ms, entries, slots, payload)
	}
	if ms.Topics != 3 || ms.Entries != 16+10+2 {
		t.Fatalf("unexpected totals: %+v", ms)
	}
}

// TestRecoverGroupKeepsLockCounterPure: recovery loads enforce ordering
// like the publish appends but leave GroupLockAcquisitions untouched, so
// the one-lock-per-publish invariant (TestIngestInvariants) survives a boot
// from a recovered data dir.
func TestRecoverGroupKeepsLockCounterPure(t *testing.T) {
	c := New(4, 8)
	g := c.GroupOf("t")
	for seq := uint64(1); seq <= 3; seq++ {
		if !c.RecoverGroup(g, "t", Entry{Epoch: 1, Seq: seq, ID: fmt.Sprintf("r%d", seq)}) {
			t.Fatalf("recovery load of seq %d rejected", seq)
		}
	}
	// Stale and duplicate replays are rejected idempotently.
	if c.RecoverGroup(g, "t", Entry{Epoch: 1, Seq: 3}) {
		t.Fatal("duplicate recovery load accepted")
	}
	if c.RecoverGroup(g, "t", Entry{Epoch: 1, Seq: 2}) {
		t.Fatal("stale recovery load accepted")
	}
	ms := c.MemStats()
	if ms.GroupLockAcquisitions != 0 {
		t.Fatalf("recovery loads counted %d lock acquisitions; the counter is reserved for publish paths", ms.GroupLockAcquisitions)
	}
	if ms.Appends != 3 || ms.Entries != 3 {
		t.Fatalf("recovered state: %+v", ms)
	}
	// Publishing continues the recovered stream under the counted path.
	e, ok := c.AppendNext(g, "t", Entry{Epoch: 2})
	if !ok || e.Epoch != 2 || e.Seq != 1 {
		t.Fatalf("AppendNext after recovery = %+v, %v", e, ok)
	}
	if got := c.MemStats().GroupLockAcquisitions; got != 1 {
		t.Fatalf("publish after recovery counted %d acquisitions, want 1", got)
	}
}
