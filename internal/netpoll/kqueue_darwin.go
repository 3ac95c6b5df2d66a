//go:build darwin

package netpoll

import (
	"sync"
	"sync/atomic"
	"syscall"
)

// Poller wraps a kqueue instance plus a self-pipe used to interrupt
// Wait. Unlike the epoll Poller, Wait here still blocks its thread in a
// raw kevent rather than parking on the runtime poller: this file can be
// compiled where it is developed but not run, so it keeps the form that
// was tested on darwin.
//
// kevent's udata field is a pointer Go cannot populate from the
// syscall package portably, so tokens are kept in an fd-indexed map
// instead; the map is only mutated under mu while the owning connection
// is provably open (inside RawConn.Control), so a reused fd number
// cannot alias a stale entry — Del for the old connection ran first or
// its Control fails.
type Poller struct {
	kq    int
	wakeR int

	mu     sync.Mutex
	tokens map[int]uint64

	events []syscall.Kevent_t
	closed atomic.Bool

	// The wake-write end is the one fd touched by goroutines other than
	// the Wait caller, so its teardown is mutex-fenced: Wake must never
	// write to an fd number the kernel may have recycled.
	wakeMu     sync.Mutex
	wakeW      int
	wakeClosed bool
}

// New creates a Poller with its wake pipe registered.
func New() (*Poller, error) {
	kq, err := syscall.Kqueue()
	if err != nil {
		return nil, err
	}
	syscall.CloseOnExec(kq)
	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		syscall.Close(kq)
		return nil, err
	}
	for _, fd := range pipe {
		syscall.CloseOnExec(fd)
		if err := syscall.SetNonblock(fd, true); err != nil {
			syscall.Close(kq)
			syscall.Close(pipe[0])
			syscall.Close(pipe[1])
			return nil, err
		}
	}
	p := &Poller{kq: kq, wakeR: pipe[0], wakeW: pipe[1], tokens: make(map[int]uint64)}
	ev := syscall.Kevent_t{
		Ident:  uint64(pipe[0]),
		Filter: syscall.EVFILT_READ,
		Flags:  syscall.EV_ADD,
	}
	if _, err := syscall.Kevent(kq, []syscall.Kevent_t{ev}, nil, nil); err != nil {
		p.destroy()
		return nil, err
	}
	return p, nil
}

// Add registers the connection for level-triggered readability.
func (p *Poller) Add(rc syscall.RawConn, token uint64) error {
	var opErr error
	err := rc.Control(func(fd uintptr) {
		ev := syscall.Kevent_t{
			Ident:  uint64(fd),
			Filter: syscall.EVFILT_READ,
			Flags:  syscall.EV_ADD,
		}
		_, opErr = syscall.Kevent(p.kq, []syscall.Kevent_t{ev}, nil, nil)
		if opErr == nil {
			p.mu.Lock()
			p.tokens[int(fd)] = token
			p.mu.Unlock()
		}
	})
	if err != nil {
		return ErrConnClosed
	}
	return opErr
}

// Del removes the connection from the interest set.
func (p *Poller) Del(rc syscall.RawConn) error {
	var opErr error
	err := rc.Control(func(fd uintptr) {
		ev := syscall.Kevent_t{
			Ident:  uint64(fd),
			Filter: syscall.EVFILT_READ,
			Flags:  syscall.EV_DELETE,
		}
		_, opErr = syscall.Kevent(p.kq, []syscall.Kevent_t{ev}, nil, nil)
		p.mu.Lock()
		delete(p.tokens, int(fd))
		p.mu.Unlock()
	})
	if err != nil {
		return ErrConnClosed
	}
	return opErr
}

// Wait blocks until readiness or a Wake; see the linux implementation
// for the single-consumer teardown contract.
func (p *Poller) Wait(evs []Event) (n int, woken bool, err error) {
	if p.closed.Load() {
		p.destroy()
		return 0, false, ErrClosed
	}
	if cap(p.events) < len(evs) {
		p.events = make([]syscall.Kevent_t, len(evs))
	}
	buf := p.events[:len(evs)]
	for {
		nn, err := syscall.Kevent(p.kq, nil, buf, nil)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			p.destroy()
			if p.closed.Load() {
				return 0, false, ErrClosed
			}
			return 0, false, err
		}
		out := 0
		for i := 0; i < nn; i++ {
			fd := int(buf[i].Ident)
			if fd == p.wakeR {
				woken = true
				p.drainWake()
				continue
			}
			p.mu.Lock()
			tok, ok := p.tokens[fd]
			p.mu.Unlock()
			if !ok {
				continue // deregistered between kevent and here
			}
			evs[out] = Event{Token: tok}
			out++
		}
		if p.closed.Load() {
			p.destroy()
			return 0, false, ErrClosed
		}
		if out == 0 && !woken {
			continue // spurious
		}
		return out, woken, nil
	}
}

// Wake interrupts a blocked Wait. The write happens under wakeMu so it
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

// Close marks the poller closed and wakes the Wait caller. Idempotent.
func (p *Poller) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.Wake()
}

func (p *Poller) destroy() {
	if p.kq >= 0 {
		syscall.Close(p.kq)
		syscall.Close(p.wakeR)
		p.kq, p.wakeR = -1, -1
	}
	p.wakeMu.Lock()
	if !p.wakeClosed {
		syscall.Close(p.wakeW)
		p.wakeW = -1
		p.wakeClosed = true
	}
	p.wakeMu.Unlock()
}
