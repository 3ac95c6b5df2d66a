//go:build linux

package netpoll

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// parkedInWait matches a goroutine that the runtime poller parked inside
// (*Poller).Wait. A goroutine blocked in a raw epoll_wait reads
// "[syscall]" instead: it holds its thread, and its P until sysmon
// retakes it.
var parkedInWait = regexp.MustCompile(`(?s)goroutine \d+ \[IO wait[^\]]*\]:[^\n]*\n(?:[^\n]+\n)*?[^\n]*\(\*Poller\)\.Wait`)

func TestWaitParksOnRuntimePoller(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ch := waitEvents(p)
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := buf[:runtime.Stack(buf, true)]
		if parkedInWait.Match(stacks) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine parked in [IO wait] under (*Poller).Wait:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if r := <-ch; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("Wait after Close = %v, want ErrClosed", r.err)
	}
}

func openFds(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestCloseWhileParked(t *testing.T) {
	before := openFds(t)
	for i := 0; i < 100; i++ {
		p, err := New()
		if err != nil {
			t.Fatal(err)
		}
		ch := waitEvents(p)
		if i%2 == 0 {
			// Let the waiter park first on half the rounds; on the rest
			// Close races the harvest → park transition.
			time.Sleep(100 * time.Microsecond)
		}
		p.Close()
		select {
		case r := <-ch:
			if !errors.Is(r.err, ErrClosed) {
				t.Fatalf("cycle %d: Wait after Close = %v, want ErrClosed", i, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: Close did not release the parked Wait", i)
		}
	}
	if after := openFds(t); after > before {
		t.Fatalf("open descriptors grew %d → %d over 100 New/Close cycles", before, after)
	}
}

func TestNewFailsWhenRuntimeRefusesFd(t *testing.T) {
	// A regular file cannot join an epoll set, so the runtime poller
	// refuses it — the same silent refusal newPoller must catch for an
	// epoll fd, since parking on an unregistered fd would fail or hang.
	fd, err := syscall.Open(filepath.Join(t.TempDir(), "f"), syscall.O_RDWR|syscall.O_CREAT|syscall.O_CLOEXEC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPoller(fd)
	if err == nil {
		p.Close()
		t.Fatal("newPoller on a regular file succeeded; want an error")
	}
	if !errors.Is(err, os.ErrNoDeadline) {
		t.Fatalf("newPoller error = %v, want one wrapping os.ErrNoDeadline", err)
	}
	if err := syscall.Close(fd); err != syscall.EBADF {
		t.Fatalf("close of the refused fd = %v, want EBADF: newPoller owns and closes it", err)
	}
}
