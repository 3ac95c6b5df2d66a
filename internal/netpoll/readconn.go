//go:build linux || darwin

package netpoll

import (
	"io"
	"sync"
	"syscall"
)

// Supported reports whether this build has a kernel poller. The package
// builds only where it has one, so the answer is always true; it remains
// for callers that ask before they rely on New.
func Supported() bool { return true }

// readOp carries one ReadConn through RawConn.Read. A closure there costs
// three heap objects per read — itself and the two results it captures —
// on the engine's only read path; an op's callback is bound once and ops
// are pooled, so a read allocates nothing.
type readOp struct {
	buf []byte
	n   int
	err error
	fn  func(fd uintptr) bool // bound to attempt
}

var readOps = sync.Pool{New: func() any {
	op := new(readOp)
	op.fn = op.attempt
	return op
}}

func (op *readOp) attempt(fd uintptr) bool {
	for {
		op.n, op.err = syscall.Read(int(fd), op.buf)
		if op.err == syscall.EINTR {
			continue
		}
		return true // never block in the runtime poller; one attempt only
	}
}

// ReadConn performs one non-blocking read from the connection into buf.
// again=true means the socket had no data after all (EAGAIN — a
// spurious or already-consumed readiness event); n==0 with a nil
// syscall error means the peer closed cleanly, reported as io.EOF.
func ReadConn(rc syscall.RawConn, buf []byte) (n int, again bool, err error) {
	op := readOps.Get().(*readOp)
	op.buf = buf
	cerr := rc.Read(op.fn)
	n, rerr := op.n, op.err
	op.buf, op.err = nil, nil // pin neither the caller's buffer nor an error
	readOps.Put(op)
	if cerr != nil {
		return 0, false, ErrConnClosed
	}
	if rerr == syscall.EAGAIN {
		return 0, true, nil
	}
	if rerr != nil {
		return 0, false, rerr
	}
	if n == 0 {
		return 0, false, io.EOF
	}
	return n, false, nil
}
