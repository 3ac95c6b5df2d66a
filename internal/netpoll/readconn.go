//go:build linux || darwin

package netpoll

import (
	"io"
	"sync"
	"syscall"
	"unsafe"
)

// Supported reports whether this build has a kernel poller. The package
// builds only where it has one, so the answer is always true; it remains
// for callers that ask before they rely on New.
func Supported() bool { return true }

// rawOp carries one ReadConn or WriteConn through its RawConn callback. A
// closure there costs three heap objects per call — itself and the two
// results it captures — on the engine's only read and write paths; an op's
// callback is bound once and ops are pooled with their own iovec array, so
// a read or a write allocates nothing.
type rawOp struct {
	trap uintptr // syscall.SYS_READV or syscall.SYS_WRITEV
	iov  [2]syscall.Iovec
	cnt  int
	n    int
	err  error
	fn   func(fd uintptr) bool // bound to attempt
}

var rawOps = sync.Pool{New: func() any {
	op := new(rawOp)
	op.fn = op.attempt
	return op
}}

// attempt is the RawConn callback of ReadConn and WriteConn: one readv or
// writev, made as a raw syscall on a descriptor the runtime keeps
// non-blocking (see the package doc for why). It never parks: the caller
// acts on EAGAIN.
//
//vet:hotpath
func (op *rawOp) attempt(fd uintptr) bool {
	for {
		r, _, e := syscall.RawSyscall(op.trap, fd, uintptr(unsafe.Pointer(&op.iov[0])), uintptr(op.cnt))
		if e == syscall.EINTR {
			continue
		}
		op.n, op.err = int(r), nil
		if e != 0 {
			op.n, op.err = 0, e
		}
		return true
	}
}

// add appends b to the op's iovec unless it is empty.
func (op *rawOp) add(b []byte) {
	if len(b) > 0 {
		op.iov[op.cnt].Base = &b[0]
		op.iov[op.cnt].SetLen(len(b))
		op.cnt++
	}
}

// do runs op through call (rc.Read or rc.Write) and returns the callback's
// result and the runtime's own error, leaving op pooled and pinning neither
// the caller's buffers nor an error.
func (op *rawOp) do(call func(func(uintptr) bool) error) (n int, err, cerr error) {
	cerr = call(op.fn)
	n, err = op.n, op.err
	*op = rawOp{fn: op.fn}
	rawOps.Put(op)
	return n, err, cerr
}

// ReadConn performs one non-blocking read from the connection into buf.
// again=true means the socket had no data after all (EAGAIN — a
// spurious or already-consumed readiness event); n==0 with a nil
// syscall error means the peer closed cleanly, reported as io.EOF.
func ReadConn(rc syscall.RawConn, buf []byte) (n int, again bool, err error) {
	op := rawOps.Get().(*rawOp)
	op.trap = syscall.SYS_READV
	op.add(buf)
	n, rerr, cerr := op.do(rc.Read)
	switch {
	case cerr != nil:
		return 0, false, ErrConnClosed
	case rerr == syscall.EAGAIN:
		return 0, true, nil
	case rerr != nil:
		return 0, false, rerr
	case n == 0:
		return 0, false, io.EOF
	}
	return n, false, nil
}

// WriteConn performs one non-blocking write of hdr followed by payload —
// a single writev, so a frame header and its payload leave together
// without being copied into one buffer. n counts the bytes written across
// both. again=true means the socket took less than all of them (EAGAIN, or
// a short write that filled the send buffer): the caller keeps the
// unwritten suffix and retries later. A closed peer or any other failure
// is err; a connection closed by its owner, or one whose write deadline
// has passed, reports the runtime's refusal. The call never waits.
func WriteConn(rc syscall.RawConn, hdr, payload []byte) (n int, again bool, err error) {
	op := rawOps.Get().(*rawOp)
	op.trap = syscall.SYS_WRITEV
	op.add(hdr)
	op.add(payload)
	n, werr, cerr := op.do(rc.Write)
	switch {
	case cerr != nil:
		return 0, false, cerr
	case werr == syscall.EAGAIN:
		return 0, true, nil
	case werr != nil:
		return 0, false, werr
	}
	return n, n < len(hdr)+len(payload), nil
}
