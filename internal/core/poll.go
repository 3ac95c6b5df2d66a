package core

import (
	"fmt"
	"sync"
	"syscall"

	"migratorydata/internal/netpoll"
)

// pollLoop is the per-IoThread readiness machinery: one goroutine
// multiplexing every fd-backed connection pinned to the thread. It
// performs the socket reads (into pooled chunks) and pushes the
// resulting evBytes onto the IoThread queue — decoding, writing, and
// teardown stay on the IoThread, preserving the fixed client→thread
// ownership of §4. Between readiness events it is parked on the runtime
// poller and holds no thread, so the IoThread it has just readied runs
// at once. Created lazily by ioThread.poller on the thread's first
// Attach, so an engine that never serves a connection never starts one.
//
// fd ownership rule: the poll loop never holds a raw fd. Registration,
// deregistration, and reads all go through syscall.RawConn, whose
// callbacks the runtime reference-counts against Close — so a stale
// readiness event can never touch an fd number that has been recycled
// to a newer connection.
type pollLoop struct {
	t *ioThread
	p *netpoll.Poller

	mu     sync.Mutex
	conns  map[uint64]*Client // registered clients by id (the poll token)
	kicked []uint64           // registrations awaiting their initial read pass
	closed bool

	curr *Client      // connection being serviced; emit's push target
	emit func([]byte) // bound once to emitChunk, so ReadReady costs no closure
}

// pollEventBatch bounds one Wait's readiness harvest.
const pollEventBatch = 128

// register adds a connection to the interest set. The kick entry forces
// one explicit read pass even if the kernel never reports readiness:
// bytes already drawn into user-space buffers (a WebSocket handshake's
// pipelined frames) are invisible to the poller.
func (pl *pollLoop) register(c *Client, rc syscall.RawConn) error {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return ErrEngineClosed
	}
	pl.conns[c.id] = c
	pl.mu.Unlock()
	if err := pl.p.Add(rc, c.id); err != nil {
		pl.mu.Lock()
		delete(pl.conns, c.id)
		pl.mu.Unlock()
		return fmt.Errorf("core: attach: poller registration: %w", err)
	}
	pl.mu.Lock()
	pl.kicked = append(pl.kicked, c.id)
	pl.mu.Unlock()
	pl.p.Wake()
	return nil
}

// unregister removes a connection from the interest set. Idempotent;
// called from the owning IoThread's teardown and from the poll loop
// itself on a terminal read error.
func (pl *pollLoop) unregister(c *Client) {
	pl.mu.Lock()
	_, ok := pl.conns[c.id]
	delete(pl.conns, c.id)
	pl.mu.Unlock()
	if !ok {
		return
	}
	if rc, err := c.framed.PollConn(); err == nil {
		// Best effort: if the transport is already closed the kernel
		// removed the fd from the interest set itself.
		_ = pl.p.Del(rc)
	}
}

// close marks the loop closed and wakes it; the loop's next Wait
// releases the poller's kernel resources and the goroutine exits.
func (pl *pollLoop) close() {
	pl.mu.Lock()
	pl.closed = true
	pl.mu.Unlock()
	pl.p.Close()
}

// run is the poll loop: wait for readiness, service ready connections,
// repeat until closed.
func (pl *pollLoop) run() {
	defer pl.t.engine.wg.Done()
	evs := make([]netpoll.Event, pollEventBatch)
	for {
		n, woken, err := pl.p.Wait(evs)
		if err != nil {
			return // netpoll.ErrClosed, or a terminal poller failure
		}
		if woken {
			pl.mu.Lock()
			kicked := pl.kicked
			pl.kicked = nil
			closed := pl.closed
			pl.mu.Unlock()
			if closed {
				continue // next Wait observes the flag and tears down
			}
			for _, token := range kicked {
				pl.ready(token)
			}
		}
		for i := 0; i < n; i++ {
			pl.ready(evs[i].Token)
		}
	}
}

// ready services one readiness event: one non-blocking transport read,
// feeding decoded chunks to the owning IoThread. On a terminal error the
// connection is deregistered immediately — a level-triggered readable
// socket would otherwise re-fire until the IoThread processes the close
// — and teardown is handed to the IoThread.
func (pl *pollLoop) ready(token uint64) {
	pl.mu.Lock()
	c := pl.conns[token]
	pl.mu.Unlock()
	if c == nil {
		return // stale event: the client deregistered after the wakeup
	}
	if c.closed.Load() {
		// Torn down after registration (a teardown that raced Attach, or a
		// close processed between wakeup and service): drop the entry so a
		// level-triggered socket cannot re-fire for it.
		pl.unregister(c)
		return
	}
	pl.curr = c
	err := c.framed.ReadReady(pl.emit)
	pl.curr = nil
	if err != nil {
		pl.unregister(c)
		pl.t.in.Push(ioEvent{kind: evClose, c: c})
	}
}

// emitChunk hands one decoded chunk to the IoThread; run and ready are
// single-goroutine, so curr is stable for the duration of a ReadReady.
func (pl *pollLoop) emitChunk(chunk []byte) {
	if !pl.t.in.Push(ioEvent{kind: evBytes, c: pl.curr, data: chunk}) {
		RecycleReadChunk(chunk) // engine shutdown: nobody will consume it
	}
}

// poller lazily creates the ioThread's poll loop. Safe for concurrent
// Attach calls; Engine.Close seals the Once so no loop can start after
// shutdown, and the post-creation closed re-check covers the window
// where Close swept the threads while a loop was being created.
func (t *ioThread) poller() (*pollLoop, error) {
	t.pollOnce.Do(func() {
		p, err := netpoll.New()
		if err != nil {
			t.pollErr = fmt.Errorf("core: attach: kernel poller: %w", err)
			return
		}
		pl := &pollLoop{t: t, p: p, conns: make(map[uint64]*Client)}
		pl.emit = pl.emitChunk
		t.engine.wg.Add(1)
		go pl.run()
		t.poll = pl
		if t.engine.closed.Load() {
			pl.close()
		}
	})
	if t.poll == nil {
		return nil, t.pollErr
	}
	return t.poll, nil
}
