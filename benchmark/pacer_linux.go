//go:build linux

package main

import (
	"os"
	"syscall"
	"unsafe"
)

// sleeper blocks a goroutine until a deadline on the generator clock.
//
// On Linux it is a timerfd parked on the Go runtime poller. time.Sleep is
// not usable for pacing here: an idle P waits in epoll_wait with a
// millisecond-granular timeout, so a 200 µs sleep returns ~0.9 ms late
// (golang/go#44343) — later than the latencies being measured. A timerfd
// expiry wakes the poller at hrtimer precision (tens of µs) and costs the
// generator no extra OS thread.
type sleeper struct {
	f *os.File
	// fd is the descriptor f wraps. File.Fd would switch it to blocking mode
	// and take it off the poller, so the raw value is kept for settime.
	fd  uintptr
	buf [8]byte
}

type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// waitUntil returns once the generator clock has reached at; immediately
// if it already has (a late generator catches up without sleeping).
func (s *sleeper) waitUntil(at int64) error {
	d := at - nowNs()
	if d <= 0 {
		return nil
	}
	its := itimerspec{Value: syscall.NsecToTimespec(d)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { _ = s.f.Close() }
