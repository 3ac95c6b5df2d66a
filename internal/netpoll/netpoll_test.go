package netpoll

import (
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns a connected loopback TCP pair.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		server, err = l.Accept()
		close(done)
	}()
	client, cerr := net.Dial("tcp", l.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func rawConnOf(t *testing.T, c net.Conn) syscall.RawConn {
	t.Helper()
	rc, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// waitEvents runs Wait in a goroutine so tests can bound the block.
func waitEvents(p *Poller) <-chan struct {
	evs   []Event
	woken bool
	err   error
} {
	ch := make(chan struct {
		evs   []Event
		woken bool
		err   error
	}, 1)
	go func() {
		evs := make([]Event, 16)
		n, woken, err := p.Wait(evs)
		ch <- struct {
			evs   []Event
			woken bool
			err   error
		}{evs[:n], woken, err}
	}()
	return ch
}

func TestReadinessAndRead(t *testing.T) {
	client, server := tcpPair(t)
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rc := rawConnOf(t, server)
	if err := p.Add(rc, 42); err != nil {
		t.Fatal(err)
	}

	// EAGAIN before any bytes arrive: a readiness-less read drains nothing.
	buf := make([]byte, 64)
	n, again, err := ReadConn(rc, buf)
	if err != nil || !again || n != 0 {
		t.Fatalf("ReadConn on empty socket = (%d, %v, %v), want (0, true, nil)", n, again, err)
	}

	ch := waitEvents(p)
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.evs) != 1 || r.evs[0].Token != 42 {
			t.Fatalf("events = %v, want one event with token 42", r.evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event within 5s")
	}
	n, again, err = ReadConn(rc, buf)
	if err != nil || again || string(buf[:n]) != "hello" {
		t.Fatalf("ReadConn = (%q, %v, %v), want (hello, false, nil)", buf[:n], again, err)
	}

	// Peer close surfaces as io.EOF.
	client.Close()
	ch = waitEvents(p)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event for peer close within 5s")
	}
	if _, _, err := ReadConn(rc, buf); err != io.EOF {
		t.Fatalf("ReadConn after peer close = %v, want io.EOF", err)
	}
}

func TestWakeInterruptsWait(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ch := waitEvents(p)
	p.Wake()
	select {
	case r := <-ch:
		if r.err != nil || !r.woken || len(r.evs) != 0 {
			t.Fatalf("Wait after Wake = (%v, woken=%v, %v), want (none, true, nil)", r.evs, r.woken, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not interrupt Wait within 5s")
	}
}

func TestDelStopsEvents(t *testing.T) {
	client, server := tcpPair(t)
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rc := rawConnOf(t, server)
	if err := p.Add(rc, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Del(rc); err != nil {
		t.Fatal(err)
	}
	ch := waitEvents(p)
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Only a Wake should surface; the deleted fd must not.
	time.Sleep(50 * time.Millisecond)
	p.Wake()
	select {
	case r := <-ch:
		if r.err != nil || len(r.evs) != 0 {
			t.Fatalf("Wait after Del = (%v, %v), want no events", r.evs, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return within 5s")
	}
}

func TestAddClosedConnFails(t *testing.T) {
	_, server := tcpPair(t)
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rc := rawConnOf(t, server)
	server.Close()
	if err := p.Add(rc, 1); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Add on closed conn = %v, want ErrConnClosed", err)
	}
}

func TestCloseUnblocksWait(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ch := waitEvents(p)
	p.Close()
	p.Close() // idempotent
	select {
	case r := <-ch:
		if !errors.Is(r.err, ErrClosed) {
			t.Fatalf("Wait after Close = %v, want ErrClosed", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Wait within 5s")
	}
	// A Wait entered after close must also observe ErrClosed promptly.
	if _, _, err := p.Wait(make([]Event, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait on closed poller = %v, want ErrClosed", err)
	}
}

func TestRegistrationChurn(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 50; i++ {
		client, server := tcpPair(t)
		rc := rawConnOf(t, server)
		if err := p.Add(rc, uint64(i)); err != nil {
			t.Fatalf("Add #%d: %v", i, err)
		}
		ch := waitEvents(p)
		if _, err := client.Write([]byte("y")); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-ch:
			if r.err != nil || len(r.evs) != 1 || r.evs[0].Token != uint64(i) {
				t.Fatalf("churn #%d: events = %v err = %v", i, r.evs, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("churn #%d: no event", i)
		}
		var buf [8]byte
		if _, _, err := ReadConn(rc, buf[:]); err != nil {
			t.Fatal(err)
		}
		if err := p.Del(rc); err != nil {
			t.Fatalf("Del #%d: %v", i, err)
		}
		client.Close()
		server.Close()
	}
}

// TestWaitLosesNoWakeup has the reader race harvest → park against a
// writer on every round: each byte must surface through Wait, however
// the write lands relative to the goroutine parking.
func TestWaitLosesNoWakeup(t *testing.T) {
	client, server := tcpPair(t)
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rc := rawConnOf(t, server)
	if err := p.Add(rc, 9); err != nil {
		t.Fatal(err)
	}
	const rounds = 10000
	seen := make(chan error) // unbuffered: the writer sends byte i+1 only after byte i was read
	go func() {
		evs := make([]Event, 4)
		var buf [8]byte
		for i := 0; i < rounds; i++ {
			n, _, err := p.Wait(evs)
			if err == nil && (n != 1 || evs[0].Token != 9) {
				err = errors.New("unexpected event set")
			}
			if err == nil {
				if n, again, rerr := ReadConn(rc, buf[:]); rerr != nil || again || n != 1 {
					err = errors.New("readiness reported but no byte to read")
				}
			}
			seen <- err
			if err != nil {
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if _, err := client.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-seen:
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("round %d: byte written but Wait never reported it (lost wake-up)", i)
		}
	}
}
