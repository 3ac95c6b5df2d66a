package queue

import (
	"fmt"
	"testing"
)

// drain pops every live item in order and returns their values, checking
// that Peek names each item before Pop removes it.
func drain(t *testing.T, q *Bounded[string]) []string {
	t.Helper()
	var got []string
	for {
		peeked, ok := q.Peek()
		it, popped := q.Pop()
		if ok != popped || peeked != it {
			t.Fatalf("Peek = %+v/%v, then Pop = %+v/%v", peeked, ok, it, popped)
		}
		if !popped {
			return got
		}
		got = append(got, it.Value)
	}
}

// item builds a droppable test item whose value names it.
func item(name, key string, size int64, droppable bool) BoundedItem[string] {
	return BoundedItem[string]{Value: name, Size: size, Key: key, Droppable: droppable}
}

// TestBoundedPushAccounting verifies the byte/item budgets across Push,
// Pop, and Peek: every stored byte is accounted exactly once and released
// exactly once.
func TestBoundedPushAccounting(t *testing.T) {
	var dropped []BoundedItem[string]
	q := NewBounded(100, 10, func(it BoundedItem[string]) { dropped = append(dropped, it) })

	for i := 0; i < 5; i++ {
		res := q.Push(item(fmt.Sprintf("v%d", i), fmt.Sprintf("k%d", i), 10, true), PushAppend)
		if !res.Stored || res.Dropped != 0 || res.OverBudget {
			t.Fatalf("push %d: unexpected result %+v", i, res)
		}
	}
	if q.Len() != 5 || q.Bytes() != 50 {
		t.Fatalf("after 5 pushes: len=%d bytes=%d, want 5/50", q.Len(), q.Bytes())
	}

	// PushAppend never drops, even over budget — it only reports it.
	res := q.Push(item("big", "big", 80, true), PushAppend)
	if !res.OverBudget || res.Dropped != 0 {
		t.Fatalf("over-budget append: %+v", res)
	}
	if q.Bytes() != 130 {
		t.Fatalf("bytes=%d, want 130", q.Bytes())
	}

	it, ok := q.Pop()
	if !ok || it.Value != "v0" || q.Bytes() != 120 || q.Len() != 5 {
		t.Fatalf("pop: %+v ok=%v len=%d bytes=%d", it, ok, q.Len(), q.Bytes())
	}
	got := drain(t, q)
	if len(got) != 5 || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("drain: n=%d len=%d bytes=%d", len(got), q.Len(), q.Bytes())
	}
	want := []string{"v1", "v2", "v3", "v4", "big"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if len(dropped) != 0 {
		t.Fatalf("nothing should have been dropped, got %v", dropped)
	}
}

// TestBoundedPushAllAggregates verifies PushAll pushes in order and
// aggregates the result.
func TestBoundedPushAllAggregates(t *testing.T) {
	drops := 0
	q := NewBounded(30, 0, func(BoundedItem[string]) { drops++ })
	res := q.PushAll([]BoundedItem[string]{
		item("a", "t1", 10, true),
		item("b", "t2", 10, true),
		item("c", "t1", 10, true), // conflates away "a"
		item("d", "t3", 10, true),
	}, PushConflate)
	if !res.Stored || res.Dropped != 1 || res.DroppedBytes != 10 {
		t.Fatalf("pushall result %+v", res)
	}
	if q.Len() != 3 || q.Bytes() != 30 || drops != 1 {
		t.Fatalf("len=%d bytes=%d drops=%d", q.Len(), q.Bytes(), drops)
	}
	got := drain(t, q)
	want := []string{"b", "c", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestBoundedConflateReplacesSameKey verifies per-key last-value-wins: the
// newest droppable frame for a topic replaces the pending one, and reliable
// items with the same key are untouched.
func TestBoundedConflateReplacesSameKey(t *testing.T) {
	var dropped []string
	q := NewBounded[string](1000, 0, func(it BoundedItem[string]) { dropped = append(dropped, it.Value) })
	q.Push(item("old", "tick", 10, true), PushAppend)
	q.Push(item("rel", "tick", 10, false), PushAppend)
	q.Push(item("new", "tick", 10, true), PushConflate)
	if q.Len() != 2 {
		t.Fatalf("len=%d, want 2 (old conflated away)", q.Len())
	}
	if len(dropped) != 1 || dropped[0] != "old" {
		t.Fatalf("dropped %v, want [old]", dropped)
	}
	q.Push(item("newer", "tick", 10, true), PushConflate)
	got := drain(t, q)
	want := []string{"rel", "newer"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestBoundedEvictOldestPreservesReliable verifies the drop-tier policy:
// eviction removes the OLDEST droppable items first and never touches
// reliable items, so the reliable subsequence survives intact and in order
// — the (epoch, seq) contiguity guarantee for reliable topics.
func TestBoundedEvictOldestPreservesReliable(t *testing.T) {
	var dropped []string
	q := NewBounded[string](50, 0, func(it BoundedItem[string]) { dropped = append(dropped, it.Value) })
	// Interleave reliable (r*) and droppable (d*) items, 10 bytes each.
	q.Push(item("r1", "rel", 10, false), PushAppend)
	q.Push(item("d1", "a", 10, true), PushAppend)
	q.Push(item("r2", "rel", 10, false), PushAppend)
	q.Push(item("d2", "b", 10, true), PushAppend)
	q.Push(item("r3", "rel", 10, false), PushAppend)
	// Budget full (50). Evicting pushes must remove d1 then d2 — oldest
	// droppable first — and never r1..r3.
	res := q.Push(item("d3", "c", 10, true), PushEvict)
	if res.Dropped != 1 || res.OverBudget {
		t.Fatalf("first evicting push: %+v", res)
	}
	res = q.Push(item("d4", "d", 10, true), PushEvict)
	if res.Dropped != 1 || res.OverBudget {
		t.Fatalf("second evicting push: %+v", res)
	}
	if len(dropped) != 2 || dropped[0] != "d1" || dropped[1] != "d2" {
		t.Fatalf("dropped %v, want [d1 d2] (oldest droppable first)", dropped)
	}
	// Only reliable traffic left to evict: the push stores but reports
	// OverBudget — the engine's cue for a fenced disconnect.
	res = q.Push(item("r4", "rel2", 30, false), PushEvict)
	if res.Dropped != 2 { // d3, d4 evicted trying to make room
		t.Fatalf("reliable-overflow push dropped %d, want 2", res.Dropped)
	}
	if !res.OverBudget {
		t.Fatal("reliable overflow must report OverBudget")
	}
	got := drain(t, q)
	want := []string{"r1", "r2", "r3", "r4"}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reliable order %v, want %v (contiguity broken)", got, want)
		}
	}
}

// TestBoundedItemBudgetEviction verifies the event-count axis triggers
// eviction too.
func TestBoundedItemBudgetEviction(t *testing.T) {
	q := NewBounded[string](0, 3, nil)
	q.Push(item("a", "a", 1, true), PushAppend)
	q.Push(item("b", "b", 1, true), PushAppend)
	q.Push(item("c", "c", 1, true), PushAppend)
	res := q.Push(item("d", "d", 1, true), PushEvict)
	if res.Dropped != 1 || res.OverBudget || q.Len() != 3 {
		t.Fatalf("item-budget eviction: %+v len=%d", res, q.Len())
	}
	it, _ := q.Pop()
	if it.Value != "b" {
		t.Fatalf("head %q, want b (a evicted)", it.Value)
	}
}

// TestBoundedCloseReleasesEverything verifies Close accounting: every
// remaining item flows through the release callback (not onDrop), the
// budgets return to zero, and further pushes are rejected.
func TestBoundedCloseReleasesEverything(t *testing.T) {
	onDropCalls := 0
	q := NewBounded(1000, 0, func(BoundedItem[string]) { onDropCalls++ })
	q.Push(item("a", "a", 10, true), PushAppend)
	q.Push(item("b", "b", 20, false), PushAppend)
	var released int64
	items, bytes := q.Close(func(it BoundedItem[string]) { released += it.Size })
	if items != 2 || bytes != 30 || released != 30 {
		t.Fatalf("close released items=%d bytes=%d cb=%d", items, bytes, released)
	}
	if onDropCalls != 0 {
		t.Fatal("Close must not invoke onDrop (teardown is not a policy drop)")
	}
	if q.Len() != 0 || q.Bytes() != 0 || !q.Closed() {
		t.Fatalf("post-close len=%d bytes=%d closed=%v", q.Len(), q.Bytes(), q.Closed())
	}
	if res := q.Push(item("c", "c", 1, true), PushAppend); res.Stored {
		t.Fatal("push after Close must report Stored=false")
	}
	if res := q.PushAll([]BoundedItem[string]{item("c", "c", 1, true)}, PushAppend); res.Stored {
		t.Fatal("pushall after Close must report Stored=false")
	}
}

// TestBoundedConflateChurnBoundsStorage is the regression test for the
// stalled-client leak: a never-drained queue under pure conflate churn
// (every push tombstones the pending same-key item) must not grow its
// backing slice one dead slot per push — interior tombstones have to be
// compacted even though head never advances.
func TestBoundedConflateChurnBoundsStorage(t *testing.T) {
	q := NewBounded[string](1<<20, 0, nil)
	// Seed a few reliable items so live > 1 and the queue is never empty.
	q.Push(item("r1", "rel", 10, false), PushAppend)
	q.Push(item("r2", "rel", 10, false), PushAppend)
	for i := 0; i < 100_000; i++ {
		q.Push(item(fmt.Sprintf("v%d", i), "tick", 10, true), PushConflate)
	}
	if q.Len() != 3 {
		t.Fatalf("live = %d, want 3 (2 reliable + 1 conflated)", q.Len())
	}
	if slots := q.Slots(); slots > 64 {
		t.Fatalf("backing slice holds %d slots for 3 live items: tombstones leak", slots)
	}
	got := drain(t, q)
	want := []string{"r1", "r2", "v99999"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestBoundedCompaction exercises head compaction under a pop-push cycle
// with live byKey entries.
func TestBoundedCompaction(t *testing.T) {
	q := NewBounded[string](0, 0, nil)
	for i := 0; i < 200; i++ {
		q.Push(item(fmt.Sprintf("v%d", i), fmt.Sprintf("k%d", i%7), 1, true), PushConflate)
		if i%2 == 1 {
			if _, ok := q.Pop(); !ok {
				t.Fatalf("pop %d failed", i)
			}
		}
	}
	// Whatever survives must still drain in order with correct accounting.
	prev := -1
	for _, v := range drain(t, q) {
		var n int
		fmt.Sscanf(v, "v%d", &n)
		if n <= prev {
			t.Fatalf("out of order: v%d after v%d", n, prev)
		}
		prev = n
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("post-drain bytes=%d len=%d", q.Bytes(), q.Len())
	}
}
