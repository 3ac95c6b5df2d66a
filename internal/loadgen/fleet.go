package loadgen

import (
	"fmt"
	"net"
	"sync"
	"time"

	"migratorydata/internal/protocol"
)

// TCPAttach returns an AttachFunc dialing real loopback TCP connections —
// the attach mode that goes through the listener, accept and the TCP stack
// (in-process connections share the read path but skip those).
func TCPAttach(addr string) AttachFunc {
	return func(int) (net.Conn, error) {
		return net.Dial("tcp", addr)
	}
}

// IdleFleetOptions configures DialIdleFleet.
type IdleFleetOptions struct {
	// Addr is the engine's raw-protocol TCP listener address.
	Addr string
	// Conns is the fleet size.
	Conns int
	// TopicPrefix names each connection's private topic
	// ("<prefix>-<i>"); empty skips the subscribe handshake entirely.
	TopicPrefix string
	// Workers is the dial concurrency (default 64).
	Workers int
	// Timeout bounds each connection's subscribe round trip (default 30s).
	Timeout time.Duration
}

// IdleFleet is a set of established, subscribed, then idle client
// connections — the C10M connection-scale shape: every connection is the
// sole subscriber of its own topic and carries no steady-state traffic.
// The fleet spends no goroutines per connection; after dialing completes
// the only cost is the sockets themselves.
type IdleFleet struct {
	conns []net.Conn
}

// DialIdleFleet dials opts.Conns connections to opts.Addr and subscribes
// each to its own topic, waiting for the SUBACK so every subscription is
// registered server-side before it returns.
//
// A single loopback (src,dst) address pair caps out near 28K connections
// (ephemeral source ports), far below connection-scale targets, so the
// dialers spread source addresses across 127.0.0.1, 127.0.0.2, … — the
// whole 127/8 block is local — one extra source address per 20K
// connections.
func DialIdleFleet(opts IdleFleetOptions) (*IdleFleet, error) {
	if opts.Workers <= 0 {
		opts.Workers = 64
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	sourceIPs := opts.Conns/20_000 + 1

	f := &IdleFleet{conns: make([]net.Conn, opts.Conns)}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     int
		nextMu   sync.Mutex
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	claim := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		if firstErr != nil || next >= opts.Conns {
			return -1
		}
		i := next
		next++
		return i
	}
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				i := claim()
				if i < 0 {
					return
				}
				conn, err := dialFrom(opts.Addr, byte(1+i%sourceIPs))
				if err != nil {
					fail(fmt.Errorf("dial conn %d: %w", i, err))
					return
				}
				f.conns[i] = conn
				if opts.TopicPrefix == "" {
					continue
				}
				if err := subscribeIdle(conn, fmt.Sprintf("%s-%d", opts.TopicPrefix, i), opts.Timeout, buf); err != nil {
					fail(fmt.Errorf("subscribe conn %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		f.Close()
		return nil, firstErr
	}
	return f, nil
}

// dialFrom dials addr with the given low byte of a 127.0.0.x source
// address, spreading the fleet over multiple loopback source IPs.
func dialFrom(addr string, srcLow byte) (net.Conn, error) {
	d := net.Dialer{
		Timeout:   10 * time.Second,
		LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, srcLow)},
	}
	return d.Dial("tcp", addr)
}

// subscribeIdle performs one SUBSCRIBE→SUBACK round trip and clears the
// read deadline, leaving the connection idle.
func subscribeIdle(conn net.Conn, topic string, timeout time.Duration, buf []byte) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(protocol.Encode(&protocol.Message{
		Kind:   protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: topic}},
	})); err != nil {
		return err
	}
	var dec protocol.StreamDecoder
	for {
		m, err := dec.Next()
		if err != nil {
			return err
		}
		if m != nil {
			if m.Kind == protocol.KindSubAck && m.Status == protocol.StatusOK {
				return conn.SetDeadline(time.Time{})
			}
			continue
		}
		n, err := conn.Read(buf)
		if err != nil {
			return err
		}
		dec.Feed(buf[:n])
	}
}

// Size returns the number of live connections.
func (f *IdleFleet) Size() int { return len(f.conns) }

// Close tears every connection down.
func (f *IdleFleet) Close() {
	for _, c := range f.conns {
		if c != nil {
			c.Close()
		}
	}
}
