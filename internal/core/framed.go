// Package core implements the MigratoryData single-node engine (paper §4,
// Figure 2): a first layer of IoThreads performing client I/O with clients
// pinned to a fixed IoThread for their whole connection lifetime, and a
// second layer of Workers providing the MigratoryData logic (matching
// publishers with subscribers, caching, batching, conflation), with clients
// likewise pinned to a fixed Worker. The layers communicate through
// thread-safe queues.
//
// The paper's Java implementation multiplexes clients over a configurable
// number of IoThreads using asynchronous I/O. This engine does the same:
// each IoThread owns a kernel readiness poller (internal/netpoll — epoll
// on linux, kqueue on darwin) whose poll-loop goroutine — parked on the
// Go runtime poller between events, holding no thread — reads ready
// sockets into pooled chunks and forwards them to the IoThread's queue,
// so goroutine count stays flat in connection count (the C10M property)
// while all protocol decoding, routing, and writing still happens on the
// fixed IoThread — preserving the paper's lock-free-by-pinning property.
// That is the only read path: every connection is a descriptor on a
// poller — in-process ones included (internal/transport hands out
// socketpair ends) — and Attach refuses a transport that has none.
package core

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"

	"migratorydata/internal/bufpool"
	"migratorydata/internal/netpoll"
	"migratorydata/internal/websocket"
)

// Framed abstracts one client connection's byte transport so the engine is
// identical over raw framed TCP and WebSocket.
type Framed interface {
	// WriteBatch writes one or more already-encoded protocol frames in a
	// single non-blocking transport write (see the stall-aware write side
	// below).
	WriteBatch(batch []byte) error
	// Close tears the connection down.
	Close() error
	// RemoteAddr names the peer, used for IoThread/Worker pinning.
	RemoteAddr() string

	// The stall-aware write side behind overload protection
	// (docs/ARCHITECTURE.md, "The overload path"). A WriteBatch is one
	// non-blocking write attempt: wire bytes the socket did not take are
	// retained internally (wire-exact, order preserved) and drained by
	// FlushStalled — so one client that stops reading can never stall the
	// IoThread that owns it, and no write arms a deadline.

	// StalledBytes reports retained unwritten wire bytes. Safe from any
	// goroutine.
	StalledBytes() int64
	// FlushStalled makes one non-blocking attempt to drain retained bytes
	// and returns the bytes actually written (exact, even when other
	// writers append to the retained buffer concurrently — the engine's
	// ledger reconciliation depends on this). A still-full peer is not an
	// error; transport failures are.
	FlushStalled() (int64, error)

	// The readiness read path (docs/ARCHITECTURE.md, "The connection
	// path"). Attach registers the transport's raw connection with its
	// IoThread's poll loop; ReadReady then runs on that loop whenever the
	// kernel reports the socket readable.

	// PollConn returns the transport's raw (fd-backed) connection, or an
	// error naming the transport when it has none: such a connection
	// cannot be served, and Attach reports the error.
	PollConn() (syscall.RawConn, error)
	// ReadReady consumes at most one transport read's worth of bytes
	// without blocking, emitting zero or more pool-backed chunks of
	// protocol bytes (they may contain partial protocol frames —
	// reassembly is the IoThread's job); ownership of each chunk passes to
	// emit, to be released with RecycleReadChunk. A spurious wakeup
	// (EAGAIN) emits nothing and returns nil. io.EOF or any
	// transport/framing error is terminal: the caller tears the
	// connection down. PollConn must have succeeded first.
	ReadReady(emit func(chunk []byte)) error
}

// RecycleReadChunk returns a chunk emitted by Framed.ReadReady to the
// buffer pool. The IoThread calls it once the chunk has been fed to the
// client's decoder; chunks that never reach an IoThread (push on a closed
// queue) are recycled by the poll loop. Safe on any chunk: buffers the pool
// does not recognize are simply left to the GC.
func RecycleReadChunk(chunk []byte) {
	bufpool.Put(chunk)
}

// rawFramed carries protocol frames directly on a net.Conn.
type rawFramed struct {
	conn net.Conn

	// rc is the raw connection, cached by PollConn on the readiness read
	// path (set before registration, read-only afterwards).
	rc syscall.RawConn

	// Stall-aware write state (see Framed). Only the owning IoThread
	// writes, so carry needs no lock; carried mirrors its length for
	// lock-free readers (Workers computing pressure tiers).
	carry   []byte
	carried atomic.Int64
}

// NewRawFramed wraps a net.Conn carrying raw protocol frames.
func NewRawFramed(conn net.Conn) Framed {
	return &rawFramed{conn: conn}
}

// WriteBatch implements Framed: one non-blocking write; unwritten bytes
// are carried and the client is handled as a slow consumer (pressure tiers,
// retried flushes) instead of blocking the IoThread. PollConn must have
// succeeded first (Attach calls it).
func (r *rawFramed) WriteBatch(batch []byte) error {
	if len(r.carry) > 0 {
		// Strict FIFO: earlier carried bytes must reach the wire first.
		r.carry = append(r.carry, batch...)
		r.carried.Store(int64(len(r.carry)))
		return nil
	}
	n, again, err := netpoll.WriteConn(r.rc, batch, nil)
	if again {
		r.carry = append(r.carry, batch[n:]...)
		r.carried.Store(int64(len(r.carry)))
	}
	return err
}

// StalledBytes implements Framed.
func (r *rawFramed) StalledBytes() int64 { return r.carried.Load() }

// FlushStalled implements Framed.
func (r *rawFramed) FlushStalled() (int64, error) {
	if len(r.carry) == 0 {
		return 0, nil
	}
	n, _, err := netpoll.WriteConn(r.rc, r.carry, nil)
	if n > 0 {
		rest := copy(r.carry, r.carry[n:])
		r.carry = r.carry[:rest]
		r.carried.Store(int64(rest))
	}
	return int64(n), err
}

// Close implements Framed.
func (r *rawFramed) Close() error { return r.conn.Close() }

// RemoteAddr implements Framed.
func (r *rawFramed) RemoteAddr() string { return r.conn.RemoteAddr().String() }

// PollConn implements Framed.
func (r *rawFramed) PollConn() (syscall.RawConn, error) {
	if r.rc == nil {
		rc, err := rawConnOf(r.conn)
		if err != nil {
			return nil, err
		}
		r.rc = rc
	}
	return r.rc, nil
}

// rawConnOf returns conn's descriptor as the poller takes it.
func rawConnOf(conn net.Conn) (syscall.RawConn, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("core: %T has no file descriptor to poll (in-process connections come from internal/transport)", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("core: raw connection of %T: %w", conn, err)
	}
	return rc, nil
}

// ReadReady implements Framed: one non-blocking read straight into a
// pooled chunk and handed off — no per-read copy, no per-read allocation;
// the IoThread releases it via RecycleReadChunk after decoding.
//
//vet:hotpath
func (r *rawFramed) ReadReady(emit func(chunk []byte)) error {
	buf := bufpool.Get(bufpool.ClassSize)
	n, again, err := netpoll.ReadConn(r.rc, buf)
	if n > 0 {
		emit(buf[:n])
		//vet:ignore poolcheck -- emit transfers ownership: the chunk rides the evBytes event and handleBytes recycles it
		return nil
	}
	bufpool.Put(buf)
	if again {
		return nil
	}
	if err == nil {
		err = io.EOF
	}
	return err
}

// wsFramed carries protocol frames inside WebSocket binary messages.
type wsFramed struct {
	ws *websocket.Conn

	// Readiness read path state: the cached raw connection and the
	// incremental deframer that carries partial-frame state across
	// wakeups. Both owned by the poll loop after registration.
	rc syscall.RawConn
	sr *websocket.StreamReader
}

// NewWebSocketFramed wraps an established (post-handshake) WebSocket
// connection and turns on its stall-aware writes (the websocket layer owns
// the carry, since control frames written from the read loop share the same
// wire). Message payloads are deframed into pooled buffers (released by the
// IoThread via RecycleReadChunk, like raw chunks).
func NewWebSocketFramed(ws *websocket.Conn) Framed {
	ws.SetWriteStall()
	return &wsFramed{ws: ws}
}

// WriteBatch implements Framed: the whole batch rides in one binary message
// (transport-level batching for free).
func (w *wsFramed) WriteBatch(batch []byte) error {
	return w.ws.WriteMessage(websocket.OpBinary, batch)
}

// StalledBytes implements Framed.
func (w *wsFramed) StalledBytes() int64 { return w.ws.StalledBytes() }

// FlushStalled implements Framed.
func (w *wsFramed) FlushStalled() (int64, error) { return w.ws.FlushStalled() }

// Close implements Framed.
func (w *wsFramed) Close() error { return w.ws.Close() }

// RemoteAddr implements Framed.
func (w *wsFramed) RemoteAddr() string { return w.ws.NetConn().RemoteAddr().String() }

// PollConn implements Framed.
func (w *wsFramed) PollConn() (syscall.RawConn, error) {
	if w.rc == nil {
		rc, err := rawConnOf(w.ws.NetConn())
		if err != nil {
			return nil, err
		}
		w.rc = rc
	}
	return w.rc, nil
}

// ReadReady implements Framed: one non-blocking socket read pushed
// through the incremental WebSocket deframer, which emits the contained
// protocol bytes as pooled chunks. A frame split across wakeups picks up
// exactly where the previous wakeup left off (the StreamReader holds the
// partial header/payload state). The first call drains frames the
// handshake's buffered reader swallowed — those bytes never produce
// socket readiness.
func (w *wsFramed) ReadReady(emit func(chunk []byte)) error {
	if w.sr == nil {
		w.sr = w.ws.NewStreamReader(bufpool.Get)
		if err := w.sr.FeedBuffered(emit); err != nil {
			return err
		}
	}
	buf := bufpool.Get(bufpool.ClassSize)
	n, again, err := netpoll.ReadConn(w.rc, buf)
	if n > 0 {
		ferr := w.sr.Feed(buf[:n], emit)
		bufpool.Put(buf)
		return ferr
	}
	bufpool.Put(buf)
	if again {
		return nil
	}
	if err == nil {
		err = io.EOF
	}
	return err
}
