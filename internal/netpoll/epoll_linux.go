//go:build linux

package netpoll

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// wakeToken is the reserved token carried by the self-pipe's read end.
const wakeToken = ^uint64(0)

// Poller wraps an epoll instance plus a self-pipe used to interrupt
// Wait. The epoll fd is itself registered with the Go runtime's poller
// (epoll nests), so Wait parks the calling goroutine and holds neither
// a thread nor a P while nothing is ready. All methods except Wait are
// safe for concurrent use; Wait has a single caller (the IoThread's
// poll loop), which is also the goroutine that releases the kernel fds
// once it observes ErrClosed — fd teardown never races with a
// concurrent Wait on the same fds.
type Poller struct {
	epfd   int             // owned by file; never written after New
	file   *os.File        // epfd as the runtime poller sees it
	rc     syscall.RawConn // file's, for the parking Read in Wait
	wakeR  int
	closed atomic.Bool

	// One Wait's harvest: the callback is bound once and reports through
	// these fields (Wait has a single caller), so a wake-up allocates
	// nothing.
	harvest func(fd uintptr) bool
	buf     []syscall.EpollEvent // sized to the caller's batch
	ready   int
	werr    error

	// The wake-write end is the one fd touched by goroutines other than
	// the Wait caller, so its teardown is mutex-fenced: Wake must never
	// write to an fd number the kernel may have recycled.
	wakeMu     sync.Mutex
	wakeW      int
	wakeClosed bool
}

// New creates a Poller. The self-pipe is registered up front with the
// reserved wakeToken so Wake can interrupt a parked Wait.
func New() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	return newPoller(epfd)
}

// newPoller builds a Poller around epfd, taking ownership of it. The fd
// goes to the runtime poller through os.NewFile, which registers any fd
// already in non-blocking mode; a registration failure is silent there,
// so the deadline probe proves it — a Poller the runtime refused would
// fail its first idle Wait, so New fails instead.
func newPoller(epfd int) (*Poller, error) {
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	file := os.NewFile(uintptr(epfd), "netpoll-epoll")
	if err := file.SetReadDeadline(time.Time{}); err != nil {
		file.Close()
		return nil, fmt.Errorf("netpoll: runtime poller refused the epoll fd: %w", err)
	}
	rc, err := file.SyscallConn()
	if err != nil {
		file.Close()
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		file.Close()
		return nil, err
	}
	p := &Poller{epfd: epfd, file: file, rc: rc, wakeR: pipe[0], wakeW: pipe[1]}
	p.harvest = p.harvestReady
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN}
	putToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		p.destroy()
		return nil, err
	}
	return p, nil
}

// putToken packs a 64-bit token into the event's Fd+Pad fields (the
// kernel treats epoll_event.data as opaque 64 bits; Go's struct splits
// it into two int32s).
func putToken(ev *syscall.EpollEvent, token uint64) {
	ev.Fd = int32(uint32(token))
	ev.Pad = int32(uint32(token >> 32))
}

func getToken(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

// Add registers the connection for level-triggered readability with the
// given token. The RawConn indirection (not an integer fd) is what makes
// registration safe against fd reuse: if the connection is concurrently
// closed, Control fails instead of registering a stranger's fd.
func (p *Poller) Add(rc syscall.RawConn, token uint64) error {
	var opErr error
	err := rc.Control(func(fd uintptr) {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP}
		putToken(&ev, token)
		opErr = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev)
	})
	if err != nil {
		return ErrConnClosed
	}
	return opErr
}

// Del removes the connection from the interest set. A failure is benign:
// either the connection is already closed (the kernel removed the fd
// from every epoll set on close) or it was never added.
func (p *Poller) Del(rc syscall.RawConn) error {
	var opErr error
	err := rc.Control(func(fd uintptr) {
		// The event argument must be non-nil for portability with
		// pre-2.6.9 kernels; its contents are ignored for EPOLL_CTL_DEL.
		var ev syscall.EpollEvent
		opErr = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(fd), &ev)
	})
	if err != nil {
		return ErrConnClosed
	}
	return opErr
}

// Wait parks the calling goroutine until at least one registered
// connection is readable or Wake is called, filling evs (which must not be
// empty) with readiness tokens. woken reports that a Wake was consumed
// (the caller should process pending registration kicks). After Close,
// Wait releases the kernel fds and returns ErrClosed — it is the single
// place teardown happens.
func (p *Poller) Wait(evs []Event) (n int, woken bool, err error) {
	if cap(p.buf) < len(evs) {
		p.buf = make([]syscall.EpollEvent, len(evs))
	}
	p.buf = p.buf[:len(evs)]
	for {
		if p.closed.Load() {
			p.destroy()
			return 0, false, ErrClosed
		}
		// The runtime runs the harvest now and again on every readiness
		// edge of the epoll fd, parking this goroutine in between.
		err := p.rc.Read(p.harvest)
		if err == nil {
			err = p.werr
		}
		if err != nil {
			p.destroy()
			if p.closed.Load() {
				return 0, false, ErrClosed
			}
			return 0, false, err
		}
		out := 0
		for i := 0; i < p.ready; i++ {
			tok := getToken(&p.buf[i])
			if tok == wakeToken {
				woken = true
				p.drainWake()
				continue
			}
			evs[out] = Event{Token: tok}
			out++
		}
		if p.closed.Load() || (out == 0 && !woken) {
			continue // closed: tear down above; otherwise spurious
		}
		return out, woken, nil
	}
}

// harvestReady is Wait's RawConn.Read callback: one zero-timeout
// epoll_pwait, which never sleeps (so is never interrupted). False sends
// the runtime back to park until the epoll fd's next readiness edge.
//
//vet:hotpath
func (p *Poller) harvestReady(fd uintptr) bool {
	r, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_PWAIT, fd,
		uintptr(unsafe.Pointer(&p.buf[0])), uintptr(len(p.buf)), 0, 0, 0)
	p.ready, p.werr = int(r), nil
	if e != 0 {
		p.ready, p.werr = 0, e
	}
	return p.ready > 0 || p.werr != nil
}

// Wake interrupts a parked Wait. A full pipe means a wake is already
// pending, which is just as good. The write happens under wakeMu so it
// can never hit an fd number recycled after destroy.
func (p *Poller) Wake() {
	p.wakeMu.Lock()
	defer p.wakeMu.Unlock()
	if p.wakeClosed {
		return
	}
	var b [1]byte
	for {
		_, err := syscall.Write(p.wakeW, b[:])
		if err == syscall.EINTR {
			continue
		}
		return
	}
}

func (p *Poller) drainWake() {
	var b [64]byte
	for {
		n, err := syscall.Read(p.wakeR, b[:])
		if n == len(b) && err == nil {
			continue
		}
		return
	}
}

// Close marks the poller closed and wakes the Wait caller, which
// observes the flag, releases the kernel fds, and exits. Idempotent.
func (p *Poller) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.Wake()
}

func (p *Poller) destroy() {
	if p.wakeR >= 0 {
		p.file.Close() // closes epfd
		syscall.Close(p.wakeR)
		p.wakeR = -1
	}
	p.wakeMu.Lock()
	if !p.wakeClosed {
		syscall.Close(p.wakeW)
		p.wakeW = -1
		p.wakeClosed = true
	}
	p.wakeMu.Unlock()
}
