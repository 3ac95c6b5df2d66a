// Package netpoll is the kernel readiness-notification primitive behind
// the engine's event-driven read path. One Poller multiplexes every
// connection pinned to an IoThread: instead of a blocking
// reader goroutine per connection (8 KiB of stack each — the binding
// constraint on the paper's C10M supplementary experiment), a single
// poll-loop goroutine per IoThread waits on epoll (linux) or kqueue
// (darwin) and reads only sockets the kernel reports readable.
//
// On linux the wait parks that goroutine on the Go runtime's own poller
// (the epoll fd is registered with it) and holds no thread. A raw
// blocking epoll_wait would keep the P until sysmon retook it, and every
// goroutine the loop had just readied would wait that out — on one P,
// most of a delivery's latency. The rule for the delivery path: no
// goroutine on it enters an unbounded raw blocking syscall.
//
// The other half of the rule: a delivery-path call that cannot block does
// not enter the runtime's syscall path either. ReadConn's readv,
// WriteConn's writev and Wait's epoll_pwait harvest are raw syscalls, made
// inside RawConn callbacks. The runtime's syscall entry wakes a parked
// sysmon thread on the first call after every idle spell, and sysmon then
// polls in 20 µs sleeps on the process's CPU — about two thread wake-ups
// per paced delivery. Skipping the entry is safe only because all three act
// on non-blocking descriptors (the runtime keeps every socket and the
// epoll fd that way), so none of them can hold its thread and P for long.
// A call that can block must keep the runtime's entry.
//
// The package builds on linux (tested) and darwin (compile-checked) and
// nowhere else: every connection the engine serves is a descriptor on a
// Poller, so a platform without one has no engine.
//
// Safety model: callers never hand the Poller a raw integer fd. Add,
// Del, ReadConn and WriteConn all take a syscall.RawConn, whose callbacks
// are reference-counted by the Go runtime — an operation on a connection
// that has been closed fails instead of touching a recycled fd number that
// may now belong to a different connection: with ErrConnClosed, or for
// WriteConn with the runtime's own error, which also reports a write
// deadline that has passed.
package netpoll

import "errors"

// Event is one readiness notification: the Token passed to Add for the
// connection that became readable.
type Event struct {
	Token uint64
}

var (
	// ErrClosed is returned by Wait after Close: the Poller has released
	// its kernel resources and will deliver no more events.
	ErrClosed = errors.New("netpoll: poller closed")
	// ErrConnClosed is returned when a RawConn operation finds the
	// connection already closed by its owner.
	ErrConnClosed = errors.New("netpoll: connection closed")
)
