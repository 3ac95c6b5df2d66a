// Package transport abstracts the byte transport under the MigratoryData
// engine so the same code path serves real TCP sockets and in-process
// connections. The paper's evaluation opens up to one million real
// WebSocket/TCP connections on 10 GbE hardware; in this reproduction the
// "inproc" network connects the two ends with an AF_UNIX socketpair, so an
// in-process connection is a descriptor like any accepted socket: the
// engine registers it with the same kernel poller and reads it through the
// same code, and tests and harnesses run the production connection path
// without a listener or the loopback TCP stack.
//
// The price is the descriptor budget: an in-process connection costs two
// file descriptors (one per end, both in this process), so a harness
// opening N of them needs RLIMIT_NOFILE above 2N.
//
// Networks:
//   - "tcp": delegates to the net package.
//   - "inproc": socketpair-backed, with a process-global address registry.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Transport errors.
var (
	ErrAddrInUse    = errors.New("transport: inproc address already in use")
	ErrNoListener   = errors.New("transport: no inproc listener at address")
	ErrListenClosed = errors.New("transport: listener closed")
)

// Listen opens a listener on the given network ("tcp" or "inproc").
func Listen(network, addr string) (net.Listener, error) {
	switch network {
	case "tcp":
		return net.Listen("tcp", addr)
	case "inproc":
		return listenInproc(addr)
	default:
		return nil, fmt.Errorf("transport: unknown network %q", network)
	}
}

// Dial connects to addr on the given network ("tcp" or "inproc").
func Dial(network, addr string) (net.Conn, error) {
	switch network {
	case "tcp":
		return net.Dial("tcp", addr)
	case "inproc":
		return dialInproc(addr)
	default:
		return nil, fmt.Errorf("transport: unknown network %q", network)
	}
}

// registry maps inproc addresses to their listeners.
var registry = struct {
	sync.Mutex
	m map[string]*inprocListener
}{m: make(map[string]*inprocListener)}

// inprocListener accepts in-process connections for one address.
type inprocListener struct {
	addr    string
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func listenInproc(addr string) (net.Listener, error) {
	l := &inprocListener{
		addr:    addr,
		backlog: make(chan net.Conn, 1024),
		done:    make(chan struct{}),
	}
	registry.Lock()
	defer registry.Unlock()
	if _, exists := registry.m[addr]; exists {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	registry.m[addr] = l
	return l, nil
}

func dialInproc(addr string) (net.Conn, error) {
	registry.Lock()
	l := registry.m[addr]
	registry.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoListener, addr)
	}
	client, server, err := NewPipe(
		Addr{Net: "inproc", Address: "dialer->" + addr},
		Addr{Net: "inproc", Address: addr},
	)
	if err != nil {
		return nil, err
	}
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %s", ErrNoListener, addr)
	}
}

// Accept implements net.Listener.
func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		// Drain connections raced in before close.
		select {
		case c := <-l.backlog:
			return c, nil
		default:
			return nil, ErrListenClosed
		}
	}
}

// Close implements net.Listener.
func (l *inprocListener) Close() error {
	l.once.Do(func() {
		registry.Lock()
		if registry.m[l.addr] == l {
			delete(registry.m, l.addr)
		}
		registry.Unlock()
		close(l.done)
	})
	return nil
}

// Addr implements net.Listener.
func (l *inprocListener) Addr() net.Addr {
	return Addr{Net: "inproc", Address: l.addr}
}

// Addr is the net.Addr for inproc endpoints.
type Addr struct {
	Net     string
	Address string
}

// Network implements net.Addr.
func (a Addr) Network() string { return a.Net }

// String implements net.Addr.
func (a Addr) String() string { return a.Address }
