package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"migratorydata/internal/cache"
	"migratorydata/internal/protocol"
)

// attachClient attaches a raw-framed connection and returns both the
// engine-side Client (for internal-state assertions) and the peer end.
func attachClient(t *testing.T, e *Engine, name string) (*Client, *testPeer) {
	t.Helper()
	a, b := testPipe(t, name, "server", 0)
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return c, &testPeer{t: t, conn: a, buf: make([]byte, 8192)}
}

// inPendingFlush reports whether c holds a chain of unwritten frames,
// read on the ioThread loop itself (the only race-free place to look).
func inPendingFlush(t *testing.T, c *Client) bool {
	t.Helper()
	var present bool
	if !c.io.do(func() { present = c.passHead != 0 }) {
		t.Fatal("ioThread already shut down")
	}
	return present
}

// TestSizeFlushRemovesPendingFlush: a client whose held chain was written
// by the size trigger holds nothing afterwards, so a later tick finds
// nothing due for it and writes nothing.
func TestSizeFlushRemovesPendingFlush(t *testing.T) {
	e := newTestEngine(t, Config{
		BatchMaxBytes: 64,
		BatchMaxDelay: time.Hour, // only the size trigger can flush
		TickInterval:  time.Hour, // ticks are driven manually below
	})
	c, peer := attachClient(t, e, "pending-flush")

	// A small frame batches without flushing: the client goes pending.
	c.SendFrame(make([]byte, 16))
	if !inPendingFlush(t, c) {
		t.Fatal("client with batched output holds no chain")
	}

	// Crossing maxBytes writes the chain by size, leaving nothing held.
	c.SendFrame(make([]byte, 64))
	if inPendingFlush(t, c) {
		t.Fatal("size-flushed client still holds a chain")
	}

	// A manual tick must find nothing to do for this client: no re-visit,
	// no second write.
	flushesBefore := e.Stats().IOFlushes
	c.io.in.Push(ioEvent{kind: evTick})
	if inPendingFlush(t, c) {
		t.Fatal("tick left a flushed client holding a chain")
	}
	if got := e.Stats().IOFlushes; got != flushesBefore {
		t.Fatalf("tick performed %d extra flushes for an already-flushed client", got-flushesBefore)
	}

	// The peer received exactly the one 80-byte batch.
	total := 0
	deadline := time.Now().Add(2 * time.Second)
	for total < 80 && time.Now().Before(deadline) {
		peer.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _ := peer.conn.Read(peer.buf)
		total += n
	}
	if total != 80 {
		t.Fatalf("peer received %d bytes, want 80", total)
	}
}

// TestGroupedFanoutEventCount pins the tentpole property: delivering one
// message to subscribers spread over the IoThreads costs at most one
// grouped write event per IoThread — not one per subscriber.
func TestGroupedFanoutEventCount(t *testing.T) {
	const ioThreads = 4
	const subscribers = 16
	e := newTestEngine(t, Config{IoThreads: ioThreads, Workers: 1})

	peers := make([]*testPeer, subscribers)
	for i := range peers {
		_, p := attachClient(t, e, fmt.Sprintf("fan-%d", i))
		peers[i] = p
		p.send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "hot"}}})
		p.expectKind(protocol.KindSubAck, 2*time.Second)
	}

	before := e.Stats()
	if n := e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("x")}); n != 1 {
		t.Fatalf("Deliver enqueued %d worker events, want 1 (single worker)", n)
	}
	for i, p := range peers {
		m := p.expectKind(protocol.KindNotify, 2*time.Second)
		if m.Seq != 1 || m.Topic != "hot" {
			t.Fatalf("peer %d got %+v", i, m)
		}
	}
	st := e.Stats()
	events := st.FanoutEvents - before.FanoutEvents
	if events < 1 || events > ioThreads {
		t.Fatalf("fan-out to %d subscribers pushed %d grouped events, want 1..%d",
			subscribers, events, ioThreads)
	}
	if delivered := st.Delivered - before.Delivered; delivered != subscribers {
		t.Fatalf("delivered counter = %d, want %d", delivered, subscribers)
	}

	// A second delivery costs the same O(ioThreads) again (scratch reuse,
	// no leftover state from round one).
	if e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 2, Payload: []byte("y")}) != 1 {
		t.Fatal("second Deliver routing changed")
	}
	for _, p := range peers {
		p.expectKind(protocol.KindNotify, 2*time.Second)
	}
	if d := e.Stats().FanoutEvents - st.FanoutEvents; d < 1 || d > ioThreads {
		t.Fatalf("second fan-out pushed %d grouped events, want 1..%d", d, ioThreads)
	}
}

// TestGroupedFanoutSkipsClosedClients: a client torn down between the
// worker staging a write set and the ioThread draining it must simply be
// skipped, and the remaining members of the set still get the frame.
func TestGroupedFanoutSkipsClosedClients(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	cDead, _ := attachClient(t, e, "dead")
	_, alive := attachClient(t, e, "alive")
	alive.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "hot"}}})
	alive.expectKind(protocol.KindSubAck, 2*time.Second)

	// Subscribe the doomed client on the worker loop directly so we control
	// its lifecycle without a peer read loop.
	if !cDead.worker.do(func() {
		cDead.worker.subscribe(cDead, &protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "hot"}}})
	}) {
		t.Fatal("worker shut down")
	}
	// Mark it closed as a teardown in flight would.
	cDead.closed.Store(true)

	e.Deliver("hot", cache.Entry{Epoch: 1, Seq: 1, Payload: []byte("x")})
	if m := alive.expectKind(protocol.KindNotify, 2*time.Second); m.Seq != 1 {
		t.Fatalf("live subscriber got %+v", m)
	}
}

// TestHandleBytesReleasesMessageOnClosedWorkerQueue is the regression test
// for the shutdown leak in handleBytes: the worker queue rejects pushes
// once the engine closes it, and a rejected weClientMsg used to drop its
// decoded message — pool-backed struct and 8 KiB payload both — on the
// floor. Driving handleBytes directly against a closed engine makes the
// race deterministic; with the rejected message released, the loop runs
// allocation-free on pool reuse, while a leak costs two fresh allocations
// per message.
func TestHandleBytesReleasesMessageOnClosedWorkerQueue(t *testing.T) {
	e := newTestEngine(t, Config{})
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	frame := protocol.Encode(&protocol.Message{
		Kind:    protocol.KindPublish,
		Payload: make([]byte, 64),
	})
	c := &Client{worker: e.workers[0]}
	c.decoder.PoolPayloads = true
	c.decoder.PoolMessages = true
	io0 := e.ioThreads[0]

	allocs := testing.AllocsPerRun(50, func() {
		io0.handleBytes(c, frame)
	})
	if allocs > 0.5 {
		t.Fatalf("handleBytes allocates %.2f/op against a closed worker queue: rejected messages are not returned to their pools", allocs)
	}
}

// recordingFramed keeps every write instead of sending it, so a test can
// assert a client's writes exactly: how many, and their bytes. Only the
// IoThread writes, so the log is read on its loop.
type recordingFramed struct {
	Framed
	writes []string
}

func (r *recordingFramed) WriteBatch(b []byte) error {
	r.writes = append(r.writes, string(b))
	return nil
}

// attachRecorded attaches a client whose writes are recorded, on an engine
// with one IoThread whose own ticks never fire: the test drives the hold's
// triggers with a synthetic clock.
func attachRecorded(t *testing.T, maxBytes int, delay time.Duration) (*Client, *recordingFramed) {
	t.Helper()
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1,
		BatchMaxBytes: maxBytes, BatchMaxDelay: delay, TickInterval: time.Hour})
	a, b := testPipe(t, "held-chain", "server", 0)
	t.Cleanup(func() { a.Close() })
	rec := &recordingFramed{Framed: NewRawFramed(b)}
	c, err := e.Attach(rec)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return c, rec
}

// offerAt charges frame to c's egress ledger, as Client.SendFrame does, and
// hands it to c's ioThread at the given offset from its epoch. Loop only.
func offerAt(c *Client, at time.Duration, frame []byte) {
	c.chargeEgress(int64(len(frame)))
	c.io.batchFrame(c, frame, "", false, c.io.epoch.Add(at))
	c.io.flushPass() // the loop pass ends; a held chain outlives it
}

// TestHeldChainTriggers pins batching as a hold on the pass chain: a held
// chain is written, in exactly one write, when it reaches BatchMaxBytes,
// when the next frame would not fit in one write, or when a tick finds its
// oldest frame BatchMaxDelay old — and never otherwise.
func TestHeldChainTriggers(t *testing.T) {
	type step struct {
		at     time.Duration // since the ioThread's epoch
		frame  string        // offered when non-empty, else a tick
		writes int           // total writes once the step ran
	}
	frames256 := make([]step, 64)
	var batches256 []string
	for i := range frames256 {
		f := strings.Repeat(string(rune('a'+i%26)), 256)
		frames256[i] = step{frame: f, writes: (i + 1) / 16}
		if i%16 == 0 {
			batches256 = append(batches256, "")
		}
		batches256[len(batches256)-1] += f
	}
	cases := []struct {
		name     string
		maxBytes int
		delay    time.Duration
		steps    []step
		want     []string
	}{
		{"size_trigger", 10, time.Hour, []step{
			{frame: "12345"}, {frame: "67890", writes: 1}, {at: 2 * time.Hour, writes: 1},
		}, []string{"1234567890"}},
		{"oversized_frame", 10, time.Hour, []step{
			{frame: "0123456789abcdef", writes: 1},
		}, []string{"0123456789abcdef"}},
		{"delay_trigger", 1 << 20, 50 * time.Millisecond, []step{
			{frame: "aa"},
			{at: 10 * time.Millisecond, frame: "bb"},
			{at: 30 * time.Millisecond},
			{at: 51 * time.Millisecond, writes: 1},
			{at: time.Hour, writes: 1},
		}, []string{"aabb"}},
		{"delay_from_oldest", 1 << 20, 50 * time.Millisecond, []step{
			{frame: "aa"},
			{at: 40 * time.Millisecond, frame: "bb"},
			{at: 30 * time.Millisecond},
			{at: 55 * time.Millisecond, writes: 1},
		}, []string{"aabb"}},
		{"due_exactly_at_max_delay", 1 << 20, 50 * time.Millisecond, []step{
			{frame: "x"},
			{at: 50*time.Millisecond - 1},
			{at: 50 * time.Millisecond, writes: 1},
		}, []string{"x"}},
		{"one_write_per_batch", 4096, time.Hour, frames256, batches256},
		{"no_size_trigger", 0, time.Hour, []step{
			{frame: strings.Repeat("a", 3000)},
			{frame: strings.Repeat("b", 1000)},
			{frame: strings.Repeat("c", 200), writes: 1},
			{at: 2 * time.Hour, writes: 2},
		}, []string{strings.Repeat("a", 3000) + strings.Repeat("b", 1000), strings.Repeat("c", 200)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, rec := attachRecorded(t, tc.maxBytes, tc.delay)
			for i, s := range tc.steps {
				var n int
				c.io.do(func() {
					if s.frame != "" {
						offerAt(c, s.at, []byte(s.frame))
					} else {
						c.io.flushHeld(c.io.epoch.Add(s.at))
					}
					n = len(rec.writes)
				})
				if n != s.writes {
					t.Fatalf("step %d (at %v, %d B): %d writes, want %d", i, s.at, len(s.frame), n, s.writes)
				}
			}
			var got []string
			c.io.do(func() { got = rec.writes })
			if len(got) != len(tc.want) {
				t.Fatalf("%d writes, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("write %d: %d B %.16q…, want %d B %.16q…", i, len(got[i]), got[i], len(tc.want[i]), tc.want[i])
				}
			}
			if b, ev := c.egress.bytes.Load(), c.egress.events.Load(); b != 0 || ev != 0 {
				t.Fatalf("egress ledger holds %d bytes, %d events after every write", b, ev)
			}
		})
	}
}

// TestHeldChainBookkeeping pins what a hold costs: a held frame allocates
// nothing once the staging array has room (written slots are reused), a
// client whose chain is size-written over and over between ticks is listed
// once, and holding adds nothing to a Client.
func TestHeldChainBookkeeping(t *testing.T) {
	if n := unsafe.Sizeof(Client{}); n > 216 {
		t.Fatalf("Client is %d B, want <= 216", n)
	}

	c, _ := attachRecorded(t, 1<<20, time.Hour)
	frame := []byte("12345678")
	var allocs float64
	c.io.do(func() {
		for range 200 {
			offerAt(c, 0, frame)
		}
		c.io.flushHeld(c.io.epoch.Add(2 * time.Hour)) // 200 slots freed
		allocs = testing.AllocsPerRun(100, func() { offerAt(c, 3*time.Hour, frame) })
		c.io.flushHeld(c.io.epoch.Add(5 * time.Hour))
	})
	if allocs != 0 {
		t.Fatalf("a held frame allocates %.2f times, want 0", allocs)
	}

	c, _ = attachRecorded(t, 16, time.Hour)
	frame = []byte("0123456789abcdef")
	var listed, slots, afterTick int
	c.io.do(func() {
		for range 100 {
			offerAt(c, 0, frame) // written on arrival
		}
		listed, slots = len(c.io.dirty), len(c.io.staged)
		c.io.flushHeld(c.io.epoch.Add(time.Minute))
		afterTick = len(c.io.dirty)
	})
	if listed != 1 || slots != 1 {
		t.Fatalf("after 100 size-triggered writes: %d dirty entries, %d staging slots; want 1 and 1", listed, slots)
	}
	if afterTick != 0 {
		t.Fatalf("a tick kept %d clients with nothing held", afterTick)
	}
}
