// Package netpoll is the kernel readiness-notification primitive behind
// the engine's event-driven read path. One Poller multiplexes every
// fd-backed connection pinned to an IoThread: instead of a blocking
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
// On other platforms, or under the `nonetpoll` build tag, Supported
// reports false and the engine falls back to goroutine-per-connection
// reads — the fallback is exercised in CI so it cannot rot.
//
// Safety model: callers never hand the Poller a raw integer fd. Add,
// Del, and ReadConn all take a syscall.RawConn, whose Control/Read
// callbacks are reference-counted by the Go runtime — an operation on a
// connection that has been closed fails with ErrConnClosed instead of
// touching a recycled fd number that may now belong to a different
// connection.
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
	// ErrUnsupported is returned by New and ReadConn on platforms (or
	// builds) without a kernel poller.
	ErrUnsupported = errors.New("netpoll: not supported on this platform")
	// ErrConnClosed is returned when a RawConn operation finds the
	// connection already closed by its owner.
	ErrConnClosed = errors.New("netpoll: connection closed")
)
