package queue

// Bounded is the budget-accounted variant of the egress staging queue: a
// FIFO of sized items with a byte budget and an item budget, supporting the
// engine's pressure-tiered delivery policy (docs/ARCHITECTURE.md, "The
// overload path"):
//
//   - PushAppend stores the item unconditionally (healthy tier; the caller
//     reads OverBudget to escalate).
//   - PushConflate first replaces a pending droppable item with the same
//     Key — per-key last-value-wins, the per-client form of conflation.
//   - PushEvict additionally drops the OLDEST droppable items until the
//     budget fits. Non-droppable ("reliable") items are never dropped and
//     never reordered, so the (epoch, seq) contiguity of reliable topics is
//     preserved: a reliable stream either reaches the client intact or the
//     caller escalates to a fenced disconnect and the client resumes via
//     session replay.
//
// Unlike MPSC, a Bounded queue is NOT thread-safe: the engine gives each
// client one instance owned by the client's IoThread (the paper's fixed
// client→thread assignment), so no locks are needed. Every drop — by
// conflation, eviction, or Close — is reported through the onDrop callback
// so the owner can release the matching budget reservations.
type Bounded[T any] struct {
	maxBytes int64
	maxItems int
	onDrop   func(BoundedItem[T])

	items  []boundedSlot[T]
	head   int            // index of the first live-or-dead slot still stored
	live   int            // live (non-dropped) item count
	bytes  int64          // live bytes
	byKey  map[string]int // Key -> slot index of the latest droppable item
	closed bool
}

// BoundedItem is one queued value with its accounting metadata.
type BoundedItem[T any] struct {
	Value T
	// Size is the byte cost charged against the queue budget.
	Size int64
	// Key groups items for PushConflate replacement (typically the topic).
	Key string
	// Droppable marks the item as safe to conflate or evict under pressure;
	// reliable items (false) are never dropped.
	Droppable bool
}

type boundedSlot[T any] struct {
	item  BoundedItem[T]
	alive bool
}

// PushMode selects the pressure behavior of one push.
type PushMode uint8

const (
	// PushAppend appends without dropping anything.
	PushAppend PushMode = iota
	// PushConflate replaces a pending droppable item with the same Key.
	PushConflate
	// PushEvict conflates, then evicts the oldest droppable items until the
	// budgets fit.
	PushEvict
)

// PushResult reports what one push did.
type PushResult struct {
	// Stored is false only when the queue is closed.
	Stored bool
	// Dropped counts the items removed (conflated away or evicted).
	Dropped int
	// DroppedBytes sums the sizes of the removed items.
	DroppedBytes int64
	// OverBudget reports that, after the push (and any eviction), the queue
	// still exceeds a budget — the caller's signal to escalate (the engine
	// disconnects the client at the critical tier).
	OverBudget bool
}

// NewBounded returns an empty queue with the given budgets. maxBytes <= 0 or
// maxItems <= 0 disable the respective bound. onDrop (may be nil) is invoked
// for every item removed without being drained, including by Close.
func NewBounded[T any](maxBytes int64, maxItems int, onDrop func(BoundedItem[T])) *Bounded[T] {
	return &Bounded[T]{maxBytes: maxBytes, maxItems: maxItems, onDrop: onDrop}
}

// Len reports the number of live queued items.
func (q *Bounded[T]) Len() int { return q.live }

// Bytes reports the live queued byte total.
func (q *Bounded[T]) Bytes() int64 { return q.bytes }

// Slots reports the backing-slice length including dead slots — the
// storage-bound observable the compaction policy maintains: it stays
// O(live) regardless of churn.
func (q *Bounded[T]) Slots() int { return len(q.items) }

// Push stores it according to mode. See PushResult.
func (q *Bounded[T]) Push(it BoundedItem[T], mode PushMode) PushResult {
	var res PushResult
	if q.closed {
		return res
	}
	res.Stored = true
	if mode >= PushConflate && it.Droppable && it.Key != "" {
		if idx, ok := q.byKey[it.Key]; ok {
			if s := &q.items[idx]; s.alive && s.item.Droppable {
				q.dropSlot(idx, &res)
			}
			delete(q.byKey, it.Key)
		}
	}
	if mode >= PushEvict {
		for (q.overBytes(it.Size) || q.overItems(1)) && q.evictOldestDroppable(&res) {
		}
	}
	q.append(it)
	res.OverBudget = q.overBytes(0) || q.overItems(0)
	return res
}

// PushAll pushes every item with a single aggregated result, in order.
func (q *Bounded[T]) PushAll(items []BoundedItem[T], mode PushMode) PushResult {
	var res PushResult
	if q.closed {
		return res
	}
	for _, it := range items {
		r := q.Push(it, mode)
		res.Dropped += r.Dropped
		res.DroppedBytes += r.DroppedBytes
		res.OverBudget = r.OverBudget
	}
	res.Stored = true
	return res
}

// overBytes reports whether adding extra bytes would exceed the byte budget.
func (q *Bounded[T]) overBytes(extra int64) bool {
	return q.maxBytes > 0 && q.bytes+extra > q.maxBytes
}

// overItems reports whether adding extra items would exceed the item budget.
func (q *Bounded[T]) overItems(extra int) bool {
	return q.maxItems > 0 && q.live+extra > q.maxItems
}

// append stores it at the tail, compacting the backing slice when dead
// space (consumed head slots AND interior tombstones from conflation or
// eviction) outweighs the live items. The tombstone condition matters: a
// permanently stalled client at the conflate tier replaces one pending
// frame per push without ever draining, so head never advances — without
// interior compaction its backlog slice would grow one dead slot per
// frame, unboundedly, on exactly the path this queue exists to bound.
func (q *Bounded[T]) append(it BoundedItem[T]) {
	if dead := len(q.items) - q.live; dead > 16 && dead > q.live {
		q.compact()
	}
	q.items = append(q.items, boundedSlot[T]{item: it, alive: true})
	q.live++
	q.bytes += it.Size
	if it.Droppable && it.Key != "" {
		if q.byKey == nil {
			q.byKey = make(map[string]int)
		}
		q.byKey[it.Key] = len(q.items) - 1
	}
}

// compact squeezes out consumed head slots and interior tombstones,
// rebuilding byKey over the surviving positions (iteration order keeps the
// latest droppable slot per key, matching the index's invariant).
func (q *Bounded[T]) compact() {
	clear(q.byKey)
	n := 0
	for i := q.head; i < len(q.items); i++ {
		if !q.items[i].alive {
			continue
		}
		q.items[n] = q.items[i]
		if it := &q.items[n].item; it.Droppable && it.Key != "" {
			q.byKey[it.Key] = n
		}
		n++
	}
	tail := q.items[n:]
	for i := range tail {
		tail[i] = boundedSlot[T]{}
	}
	q.items = q.items[:n]
	q.head = 0
}

// evictOldestDroppable drops the oldest live droppable item, reporting false
// when none exists (only reliable traffic remains).
func (q *Bounded[T]) evictOldestDroppable(res *PushResult) bool {
	for i := q.head; i < len(q.items); i++ {
		s := &q.items[i]
		if s.alive && s.item.Droppable {
			if s.item.Key != "" {
				if idx, ok := q.byKey[s.item.Key]; ok && idx == i {
					delete(q.byKey, s.item.Key)
				}
			}
			q.dropSlot(i, res)
			return true
		}
	}
	return false
}

// dropSlot kills slot idx, accounting the drop and notifying onDrop.
func (q *Bounded[T]) dropSlot(idx int, res *PushResult) {
	s := &q.items[idx]
	s.alive = false
	q.live--
	q.bytes -= s.item.Size
	res.Dropped++
	res.DroppedBytes += s.item.Size
	if q.onDrop != nil {
		q.onDrop(s.item)
	}
	s.item = BoundedItem[T]{}
}

// Pop removes and returns the oldest live item.
func (q *Bounded[T]) Pop() (BoundedItem[T], bool) {
	for q.head < len(q.items) {
		s := &q.items[q.head]
		q.head++
		if !s.alive {
			continue
		}
		it := s.item
		*s = boundedSlot[T]{}
		q.live--
		q.bytes -= it.Size
		if it.Droppable && it.Key != "" {
			if idx, ok := q.byKey[it.Key]; ok && idx == q.head-1 {
				delete(q.byKey, it.Key)
			}
		}
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		}
		return it, true
	}
	return BoundedItem[T]{}, false
}

// Peek returns the oldest live item without removing it.
func (q *Bounded[T]) Peek() (BoundedItem[T], bool) {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].alive {
			return q.items[i].item, true
		}
	}
	return BoundedItem[T]{}, false
}

// Close drops every remaining item through release (may be nil; onDrop is
// NOT used, so owners can distinguish policy drops from teardown), marks the
// queue closed — further pushes report Stored == false — and returns the
// released item and byte counts.
func (q *Bounded[T]) Close(release func(BoundedItem[T])) (items int, bytes int64) {
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		items++
		bytes += it.Size
		if release != nil {
			release(it)
		}
	}
	q.items = nil
	q.byKey = nil
	q.closed = true
	return items, bytes
}

// Closed reports whether Close has been called.
func (q *Bounded[T]) Closed() bool { return q.closed }
