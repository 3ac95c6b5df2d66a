package transport

import (
	"fmt"
	"net"
	"os"
	"syscall"
)

// pipeConn is one end of an in-process connection: a connected AF_UNIX
// stream socket. Everything but the names is the embedded UnixConn's —
// SyscallConn (so the engine's poller takes it like any accepted socket),
// deadlines, writev and flow control are the kernel's and the runtime's.
// A socketpair is unnamed, so the names the caller chose stand in.
type pipeConn struct {
	*net.UnixConn
	local, remote net.Addr
}

// LocalAddr implements net.Conn.
func (c *pipeConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *pipeConn) RemoteAddr() net.Addr { return c.remote }

// NewPipe returns both ends of an in-process duplex connection with the
// kernel's default socket buffers. It costs two file descriptors.
func NewPipe(aName, bName net.Addr) (a, b net.Conn, err error) {
	return NewPipeSize(aName, bName, 0)
}

// NewPipeSize is NewPipe asking the kernel for size bytes of socket buffer
// per direction (size <= 0 keeps the default). Load harnesses opening
// thousands of connections ask for small ones — each connection carries ~1
// small message per second in the paper's workload. The kernel rounds the
// request to its own floor and bookkeeping; SO_SNDBUF read back from the
// socket is the truth.
func NewPipeSize(aName, bName net.Addr, size int) (a, b net.Conn, err error) {
	// No SOCK_CLOEXEC on darwin: the fork lock keeps a concurrent exec from
	// inheriting the pair before the flag is set. net.FileConn duplicates
	// each descriptor (close-on-exec, non-blocking) into the runtime poller.
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, nil, fmt.Errorf("transport: socketpair: %w", err)
	}
	fa, fb := os.NewFile(uintptr(fds[0]), "inproc"), os.NewFile(uintptr(fds[1]), "inproc")
	defer fa.Close()
	defer fb.Close()
	ea, err := pipeEnd(fa, aName, bName, size)
	if err != nil {
		return nil, nil, err
	}
	eb, err := pipeEnd(fb, bName, aName, size)
	if err != nil {
		ea.Close()
		return nil, nil, err
	}
	return ea, eb, nil
}

// pipeEnd wraps one descriptor of the pair as a named, sized net.Conn.
func pipeEnd(f *os.File, local, remote net.Addr, size int) (*pipeConn, error) {
	c, err := net.FileConn(f)
	if err != nil {
		return nil, fmt.Errorf("transport: inproc conn: %w", err)
	}
	uc := c.(*net.UnixConn) // what FileConn returns for an AF_UNIX stream socket
	if size > 0 {
		// Which of the two bounds a direction differs by platform (linux
		// charges the sender's, darwin the receiver's), so set both.
		if err = uc.SetWriteBuffer(size); err == nil {
			err = uc.SetReadBuffer(size)
		}
		if err != nil {
			uc.Close()
			return nil, fmt.Errorf("transport: inproc buffer size: %w", err)
		}
	}
	return &pipeConn{UnixConn: uc, local: local, remote: remote}, nil
}
