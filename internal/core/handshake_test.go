package core

import (
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"migratorydata/internal/websocket"
)

// recordingConn notes, in order, the calls handleConn's deadline
// discipline is made of, and how many clients were attached at each.
type recordingConn struct {
	net.Conn
	e *Engine

	mu  sync.Mutex
	ops []connOp
}

type connOp struct {
	name     string // "arm", "clear", "read", "close"
	attached int
}

func (r *recordingConn) note(name string) {
	r.mu.Lock()
	r.ops = append(r.ops, connOp{name, r.e.NumClients()})
	r.mu.Unlock()
}

func (r *recordingConn) Read(b []byte) (int, error) { r.note("read"); return r.Conn.Read(b) }
func (r *recordingConn) Close() error               { r.note("close"); return r.Conn.Close() }
func (r *recordingConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		r.note("clear")
	} else {
		r.note("arm")
	}
	return r.Conn.SetDeadline(t)
}

// snapshot returns the ops so far: the reader Attach starts keeps
// appending after handleConn has returned.
func (r *recordingConn) snapshot() []connOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]connOp(nil), r.ops...)
}

func indexOp(ops []connOp, name string) int {
	return slices.IndexFunc(ops, func(op connOp) bool { return op.name == name })
}

func TestHandshakeDeadlineArmedThenCleared(t *testing.T) {
	e := newTestEngine(t, Config{})
	a, b := net.Pipe()
	defer a.Close()
	rec := &recordingConn{Conn: b, e: e}
	done := make(chan struct{})
	go func() { e.handleConn(rec, "ws"); close(done) }()
	if _, err := websocket.ClientHandshake(a, "test", "/"); err != nil {
		t.Fatal(err)
	}
	<-done
	if e.NumClients() != 1 {
		t.Fatalf("NumClients = %d after a good handshake, want 1", e.NumClients())
	}
	ops := rec.snapshot()
	arm, read, clear := indexOp(ops, "arm"), indexOp(ops, "read"), indexOp(ops, "clear")
	if arm != 0 || read < arm {
		t.Fatalf("deadline not armed before the first read: ops = %v", ops)
	}
	if clear < read || ops[clear].attached != 0 {
		t.Fatalf("deadline not cleared between the handshake and Attach: ops = %v", ops)
	}
}

func TestHandshakeErrorClosesConn(t *testing.T) {
	e := newTestEngine(t, Config{})
	a, b := net.Pipe()
	defer a.Close()
	rec := &recordingConn{Conn: b, e: e}
	done := make(chan struct{})
	go func() { e.handleConn(rec, "ws"); close(done) }()
	go io.Copy(io.Discard, a) // the refusal is written back; a pipe write needs a reader
	// No Upgrade header: the handshake must refuse this.
	if _, err := a.Write([]byte("GET / HTTP/1.1\r\nHost: test\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	<-done
	ops := rec.snapshot()
	if indexOp(ops, "arm") != 0 || indexOp(ops, "close") < 0 || indexOp(ops, "clear") >= 0 {
		t.Fatalf("want arm … close and no clear after a failed handshake: ops = %v", ops)
	}
	if e.NumClients() != 0 {
		t.Fatalf("NumClients = %d after a failed handshake, want 0", e.NumClients())
	}
}
