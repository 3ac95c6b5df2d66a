package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestInprocListenDialRoundTrip(t *testing.T) {
	l, err := Listen("inproc", "srv-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		done <- err
	}()

	c, err := Dial("inproc", "srv-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("echo = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestInprocAddrInUse(t *testing.T) {
	l, err := Listen("inproc", "srv-dup")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Listen("inproc", "srv-dup"); err == nil {
		t.Fatal("expected ErrAddrInUse")
	}
}

func TestInprocDialNoListener(t *testing.T) {
	if _, err := Dial("inproc", "nope"); err == nil {
		t.Fatal("expected ErrNoListener")
	}
}

func TestInprocListenerCloseReleasesAddr(t *testing.T) {
	l, err := Listen("inproc", "srv-release")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Listen("inproc", "srv-release")
	if err != nil {
		t.Fatalf("address not released: %v", err)
	}
	l2.Close()
}

func TestInprocAcceptAfterClose(t *testing.T) {
	l, _ := Listen("inproc", "srv-closed")
	l.Close()
	if _, err := l.Accept(); err == nil {
		t.Fatal("expected error accepting on closed listener")
	}
}

func TestUnknownNetwork(t *testing.T) {
	if _, err := Listen("udp", "x"); err == nil {
		t.Fatal("expected error for unknown network")
	}
	if _, err := Dial("udp", "x"); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

// newTestPipe is NewPipe failing the test on a socketpair error.
func newTestPipe(t testing.TB, aName, bName string) (a, b net.Conn) {
	t.Helper()
	a, b, err := NewPipe(Addr{"inproc", aName}, Addr{"inproc", bName})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sendBuffer reads SO_SNDBUF back from the socket — the kernel's answer,
// not the request — so "more than fits" is sized from the real bound.
func sendBuffer(t testing.TB, c net.Conn) int {
	t.Helper()
	rc, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

func TestPipeLargeTransfer(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	defer a.Close()
	defer b.Close()

	// Far more than the socket buffer holds: exercises backpressure.
	data := make([]byte, 4<<20+sendBuffer(t, a))
	for i := range data {
		data[i] = byte(i * 31)
	}
	go func() {
		a.Write(data)
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), len(data))
	}
}

func TestPipeCloseUnblocksReader(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("read on closed pipe returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock reader")
	}
}

func TestPipeCloseUnblocksWriter(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	errc := make(chan error, 1)
	go func() {
		big := make([]byte, 2*sendBuffer(t, a))
		_, err := a.Write(big) // must block: nobody reads
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("write on closed pipe returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock writer")
	}
}

func TestPipeReadDeadline(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := b.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline wildly overshot")
	}
}

func TestPipeWriteDeadline(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	defer a.Close()
	defer b.Close()
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	big := make([]byte, 2*sendBuffer(t, a))
	_, err := a.Write(big)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestPipeDeadlineClearedAllowsRead(t *testing.T) {
	a, b := newTestPipe(t, "a", "b")
	defer a.Close()
	defer b.Close()
	b.SetDeadline(time.Now().Add(-time.Second)) // already expired
	buf := make([]byte, 1)
	if _, err := b.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	b.SetDeadline(time.Time{}) // clear
	a.Write([]byte{42})
	if _, err := b.Read(buf); err != nil || buf[0] != 42 {
		t.Fatalf("read after clearing deadline: %v %v", buf, err)
	}
}

func TestPipeAddrs(t *testing.T) {
	a, b := newTestPipe(t, "alpha", "beta")
	defer a.Close()
	defer b.Close()
	if a.LocalAddr().String() != "alpha" || a.RemoteAddr().String() != "beta" {
		t.Fatalf("a addrs = %v -> %v", a.LocalAddr(), a.RemoteAddr())
	}
	if b.LocalAddr().String() != "beta" || b.RemoteAddr().String() != "alpha" {
		t.Fatalf("b addrs = %v -> %v", b.LocalAddr(), b.RemoteAddr())
	}
	if a.LocalAddr().Network() != "inproc" {
		t.Fatal("network name")
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	l, err := Listen("inproc", "srv-many")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const conns = 500
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c) // echo
			}(c)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial("inproc", "srv-many")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			msg := []byte(fmt.Sprintf("conn-%d", i))
			if _, err := c.Write(msg); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, msg) {
				errs <- fmt.Errorf("conn %d echo mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("tcp echo: %q %v", buf, err)
	}
}

func BenchmarkPipeThroughput(b *testing.B) {
	x, y := newTestPipe(b, "a", "b")
	defer x.Close()
	defer y.Close()
	chunk := make([]byte, 4096)
	go func() {
		buf := make([]byte, 8192)
		for {
			if _, err := y.Read(buf); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInprocDial(b *testing.B) {
	l, err := Listen("inproc", "srv-bench-dial")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Dial("inproc", "srv-bench-dial")
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}
