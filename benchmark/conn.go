package main

import (
	"fmt"
	"net"
	"syscall"
	"time"

	"migratorydata/internal/bufpool"
	"migratorydata/internal/protocol"
	"migratorydata/internal/websocket"
)

// dialTimeout bounds one connect (TCP + handshake).
const dialTimeout = 5 * time.Second

// clientConn is one generator-side connection to the server, in either
// client framing: raw length-prefixed protocol frames, or the same frames
// inside masked WebSocket binary messages (websocket.ClientHandshake). It
// uses the repo's own codecs — the same ones a Go client of the server
// would — so a wire-format change cannot strand the benchmark.
//
// One goroutine reads (read) and one writes (send); they may differ.
type clientConn struct {
	nc net.Conn
	ws *websocket.Conn         // nil in raw framing
	sr *websocket.StreamReader // incremental deframer (ws only)

	dec     protocol.StreamDecoder
	rbuf    []byte // one read's worth of wire bytes (the server's chunk size)
	scratch []byte // deframed payload staging, reused: dec.Feed copies it
	feed    func([]byte)
	wbuf    []byte // encode scratch of the writing goroutine

	// recvNs is the generator-clock time the current chunk was read: the
	// receipt time of every message decoded from it.
	recvNs int64

	// Connect timeline (generator clock), for connect and resume spans.
	dialStart, dialed, handshaken int64
}

// dialClient connects to addr and, for "ws", performs the client handshake.
func dialClient(addr, framing string) (*clientConn, error) {
	return dialClientFrom(0, addr, framing)
}

// dialClientFrom is dialClient from a chosen local port (0: ephemeral). The
// engine pins a connection to an ioThread and a worker by hashing its remote
// address, so a fleet on ephemeral ports is spread differently in every run
// — 64 subscribers split 30/34 one time and 38/26 the next, which moves the
// tail. Fixed ports make the spread an input like any other.
func dialClientFrom(localPort int, addr, framing string) (*clientConn, error) {
	c := &clientConn{rbuf: make([]byte, bufpool.ClassSize), dialStart: nowNs()}
	c.dec.PoolMessages = true
	c.dec.PoolPayloads = true
	d := net.Dialer{Timeout: dialTimeout}
	if localPort != 0 {
		d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: localPort}
		d.Control = reuseAddr
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil && localPort != 0 {
		// The port is taken (another process, or the same 4-tuple still in
		// TIME_WAIT): an ephemeral one keeps the run alive.
		return dialClientFrom(0, addr, framing)
	}
	if err != nil {
		return nil, err
	}
	c.nc = nc
	c.dialed = nowNs()
	c.feed = c.dec.Feed
	if framing == "ws" {
		_ = nc.SetDeadline(time.Now().Add(dialTimeout))
		ws, err := websocket.ClientHandshake(nc, addr, "/")
		if err != nil {
			nc.Close()
			return nil, err
		}
		_ = nc.SetDeadline(time.Time{})
		c.ws = ws
		c.sr = ws.NewStreamReader(c.alloc)
		// Bytes the handshake's buffered reader drew past the HTTP response
		// never show up on the socket again.
		if err := c.sr.FeedBuffered(c.feed); err != nil {
			nc.Close()
			return nil, err
		}
	}
	c.handshaken = nowNs()
	return c, nil
}

// alloc hands the deframer one reusable staging buffer: every emitted chunk
// is copied into the decoder before the next is requested.
func (c *clientConn) alloc(n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	return c.scratch[:n]
}

// send writes one protocol message.
func (c *clientConn) send(m *protocol.Message) error {
	c.wbuf = protocol.AppendEncode(c.wbuf[:0], m)
	return c.sendFrames(c.wbuf)
}

// sendFrames writes already-encoded protocol frames in one transport write.
func (c *clientConn) sendFrames(frames []byte) error {
	if c.ws != nil {
		return c.ws.WriteMessage(websocket.OpBinary, frames)
	}
	_, err := c.nc.Write(frames)
	return err
}

// read performs one blocking socket read (the goroutine parks on the Go
// runtime poller) and calls handle for every complete message in it.
// Messages are pool-backed and recycled after handle returns.
func (c *clientConn) read(handle func(*protocol.Message)) error {
	n, err := c.nc.Read(c.rbuf)
	if n > 0 {
		c.recvNs = nowNs()
		if c.sr != nil {
			if ferr := c.sr.Feed(c.rbuf[:n], c.feed); ferr != nil {
				return ferr
			}
		} else {
			c.dec.Feed(c.rbuf[:n])
		}
		for {
			m, derr := c.dec.Next()
			if derr != nil {
				return derr
			}
			if m == nil {
				break
			}
			handle(m)
			protocol.ReleaseMessage(m)
		}
	}
	return err
}

// reuseAddr lets a fixed local port be bound again while an earlier
// connection from it lingers in TIME_WAIT.
func reuseAddr(network, address string, rc syscall.RawConn) error {
	var serr error
	err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	})
	if err != nil {
		return err
	}
	return serr
}

func (c *clientConn) close() { _ = c.nc.Close() }

func connectMessage(name string) *protocol.Message {
	return &protocol.Message{Kind: protocol.KindConnect, ClientID: name}
}

// subscribeFrames encodes CONNECT plus a SUBSCRIBE to topic resuming after
// (epoch, seq); zero position means "from now on".
func subscribeFrames(dst []byte, name, topic string, epoch uint32, seq uint64) []byte {
	dst = protocol.AppendEncode(dst, connectMessage(name))
	return protocol.AppendEncode(dst, &protocol.Message{
		Kind:   protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: topic, Epoch: epoch, Seq: seq}},
	})
}

// readUntil reads, for dialTimeout at most, until done reports true: the
// wait for the answer to a connect or subscribe.
func (c *clientConn) readUntil(handle func(*protocol.Message), done func() bool) error {
	_ = c.nc.SetReadDeadline(time.Now().Add(dialTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	for !done() {
		if err := c.read(handle); err != nil && !done() {
			return err
		}
	}
	return nil
}

// awaitConnAck reads until CONNACK arrives (publisher connect).
func (c *clientConn) awaitConnAck() error {
	got := false
	err := c.readUntil(func(m *protocol.Message) { got = got || m.Kind == protocol.KindConnAck }, func() bool { return got })
	if err != nil {
		return fmt.Errorf("await CONNACK: %w", err)
	}
	return nil
}
