package core

import (
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"migratorydata/internal/websocket"
)

// recordingConn notes, in order, the calls handleConn's deadline
// discipline is made of, and how many clients were attached at each. It
// wraps one end of a socketpair and forwards SyscallConn: Attach takes only
// transports with a descriptor.
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

func (r *recordingConn) SyscallConn() (syscall.RawConn, error) {
	sc, ok := r.Conn.(syscall.Conn)
	if !ok {
		return nil, errors.New("wrapped conn has no descriptor")
	}
	return sc.SyscallConn()
}

// snapshot returns the ops so far.
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
	a, b := testPipe(t, "hs-client", "hs-server", 0)
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
	a, b := testPipe(t, "hs-client", "hs-server", 0)
	defer a.Close()
	rec := &recordingConn{Conn: b, e: e}
	done := make(chan struct{})
	go func() { e.handleConn(rec, "ws"); close(done) }()
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

// TestAttachWithoutDescriptorLeavesNothingBehind: a transport the poller
// cannot take (net.Pipe has no fd) is refused with an error naming it, not
// served some other way, and the failed Attach leaves no client, no connect
// count and no goroutine; handleConn closes the conn.
func TestAttachWithoutDescriptorLeavesNothingBehind(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 1, Workers: 1})
	attachPeer(t, e) // start the IoThread's poll loop: that goroutine is not the failure's
	a, b := net.Pipe()
	defer a.Close()
	before := runtime.NumGoroutine()
	_, err := e.Attach(NewRawFramed(b))
	if err == nil || !strings.Contains(err.Error(), "no file descriptor") {
		t.Fatalf("Attach over net.Pipe: err = %v, want one naming the missing descriptor", err)
	}
	if n := e.NumClients(); n != 1 {
		t.Fatalf("NumClients = %d after a failed Attach, want the 1 attached before it", n)
	}
	if c := e.Stats().Connects; c != 1 {
		t.Fatalf("Connects = %d after a failed Attach, want 1", c)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across a failed Attach", before, after)
	}

	rec := &recordingConn{Conn: b, e: e}
	e.handleConn(rec, "raw")
	if ops := rec.snapshot(); indexOp(ops, "close") < 0 {
		t.Fatalf("handleConn left the refused conn open: ops = %v", ops)
	}
	if n := e.NumClients(); n != 1 {
		t.Fatalf("NumClients = %d after a refused handleConn, want 1", n)
	}
}
