package websocket

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"migratorydata/internal/netpoll"
)

// DefaultMaxMessageSize bounds reassembled message size.
const DefaultMaxMessageSize = 16 << 20

// ErrClosed is returned after the close handshake completes.
var ErrClosed = errors.New("websocket: connection closed")

// CloseError carries the peer's close frame status.
type CloseError struct {
	Code   int
	Reason string
}

// Error implements error.
func (e *CloseError) Error() string {
	return fmt.Sprintf("websocket: closed %d %s", e.Code, e.Reason)
}

// Conn is a WebSocket connection over an arbitrary net.Conn. Reads and
// writes may proceed concurrently with each other, but at most one reader
// and one writer at a time (the engine's IoThread model guarantees this).
type Conn struct {
	conn     net.Conn
	br       *bufio.Reader
	isServer bool // servers expect masked frames and send unmasked ones

	// Writing the frame is writeMu's whole job, so transport writes stay
	// allowed under it — encoding, queue handoffs and clock reads do not.
	//vet:lockscope deny=encode,push,time,block
	writeMu  sync.Mutex
	writeBuf []byte      // masked-path scratch: header + masked payload copy
	hdrBuf   []byte      // unmasked-path scratch: frame header only
	iovecArr [2][]byte   // blocking-path scratch storage: header, payload
	iovec    net.Buffers // view over iovecArr handed to WriteTo

	// Stall-aware writes (engine overload protection): when rc is set, a
	// frame write is one non-blocking writev on it; wire bytes the socket
	// did not take are copied into carry and flushed — strictly before any
	// later frame — by FlushStalled. carried mirrors len(carry) for
	// lock-free readers (the engine's workers read it to compute pressure
	// tiers). carryData records whether any carried bytes belong to data
	// frames: those are budget-charged and drained by the engine's stalled
	// retry machinery, whereas control-only carry (pong answers to a
	// non-reading pinger) is unbudgeted — it is capped (control frames are
	// dropped rather than growing it past controlCarryCap) and drained
	// opportunistically by the read loop. All carry state is guarded by
	// writeMu.
	rc        syscall.RawConn
	carry     []byte
	carryData bool
	carried   atomic.Int64

	maxMessage int

	rng   *rand.Rand
	rngMu sync.Mutex

	closeMu   sync.Mutex
	closeSent bool
}

// newConn wraps nc. Used by the handshake functions.
func newConn(nc net.Conn, br *bufio.Reader, isServer bool) *Conn {
	if br == nil {
		br = bufio.NewReaderSize(nc, 4096)
	}
	return &Conn{
		conn:       nc,
		br:         br,
		isServer:   isServer,
		maxMessage: DefaultMaxMessageSize,
		rng:        rand.New(rand.NewSource(rand.Int63())),
	}
}

// SetMaxMessageSize overrides the reassembled-message size limit.
func (c *Conn) SetMaxMessageSize(n int) {
	if n > 0 {
		c.maxMessage = n
	}
}

// NetConn returns the underlying transport connection.
func (c *Conn) NetConn() net.Conn { return c.conn }

// WriteMessage sends one unfragmented data message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("%w: WriteMessage with opcode %#x", ErrProtocol, byte(op))
	}
	return c.writeFrame(true, op, payload)
}

// WriteControl sends a control frame (ping, pong, or close).
func (c *Conn) WriteControl(op Opcode, payload []byte) error {
	if !op.IsControl() {
		return fmt.Errorf("%w: WriteControl with opcode %#x", ErrProtocol, byte(op))
	}
	if len(payload) > 125 {
		return ErrControlTooLong
	}
	return c.writeFrame(true, op, payload)
}

// writeFrame encodes and sends a single frame, masking if client-side.
//
// The server (unmasked) path is the engine's egress hot path: the header is
// built in a reused per-conn scratch and written together with the payload
// in one writev, so one frame — and therefore one WriteBatch carrying a
// whole output batch — is one syscall with no payload copy. In stall-aware
// mode that writev is a raw non-blocking one and only the exact unwritten
// suffix is copied, into the carry. Only the masked client path still
// copies every frame, because masking must not mutate the caller's
// (possibly shared) payload.
//
//vet:hotpath
func (c *Conn) writeFrame(fin bool, op Opcode, payload []byte) error {
	var mask [4]byte
	masked := !c.isServer
	if masked {
		c.rngMu.Lock()
		binary.BigEndian.PutUint32(mask[:], c.rng.Uint32())
		c.rngMu.Unlock()
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var hdr, body []byte
	if masked {
		c.writeBuf = appendFrameHeader(c.writeBuf[:0], fin, op, masked, mask, len(payload))
		start := len(c.writeBuf)
		c.writeBuf = append(c.writeBuf, payload...)
		applyMask(c.writeBuf[start:], mask, 0)
		hdr = c.writeBuf
	} else {
		c.hdrBuf = appendFrameHeader(c.hdrBuf[:0], fin, op, false, mask, len(payload))
		hdr, body = c.hdrBuf, payload
	}
	if c.rc != nil {
		// Stall-aware path: never wait; carry what did not fit. Earlier
		// carried bytes flush first so wire order is preserved.
		if len(c.carry) == 0 {
			n, again, err := netpoll.WriteConn(c.rc, hdr, body)
			if !again {
				return err
			}
			if n < len(hdr) {
				hdr = hdr[n:]
			} else {
				hdr, body = nil, body[n-len(hdr):]
			}
		} else if c.dropControlCarry(op) {
			return nil
		}
		if !op.IsControl() {
			c.carryData = true
		}
		c.carry = append(append(c.carry, hdr...), body...)
		c.carried.Store(int64(len(c.carry)))
		return nil
	}
	if len(body) == 0 {
		_, err := c.conn.Write(hdr)
		return err
	}
	// WriteTo consumes the vector (it advances entries as they drain), so
	// rebuild the view over the fixed scratch array every write, and clear
	// it afterwards so a shared fan-out payload is not pinned.
	c.iovecArr[0], c.iovecArr[1] = hdr, body
	c.iovec = net.Buffers(c.iovecArr[:])
	_, err := c.iovec.WriteTo(c.conn)
	c.iovecArr[0], c.iovecArr[1] = nil, nil
	c.iovec = nil
	return err
}

// controlCarryCap bounds how much control-frame traffic (pongs, close) may
// accumulate in the carry buffer. Control responses are generated by the
// read loop and are NOT charged to the engine's egress budget, so without
// a cap a client flooding pings while never reading would grow the carry
// at its upload bandwidth; past the cap, control frames are dropped
// instead (a peer that is not reading has no use for pongs anyway).
const controlCarryCap = 4 << 10

// dropControlCarry reports whether a control frame should be discarded
// because the carry already holds too much. Caller holds writeMu.
func (c *Conn) dropControlCarry(op Opcode) bool {
	return op.IsControl() && len(c.carry) > controlCarryCap
}

// SetWriteStall turns stall-aware writes on: every frame write becomes one
// non-blocking writev on the connection's descriptor, with no deadline;
// bytes the socket does not take are carried internally (wire-exact, order
// preserved) and flushed by FlushStalled. A transport without a descriptor
// keeps blocking writes. The engine turns this on for server connections so
// a client that stops reading cannot stall its IoThread.
func (c *Conn) SetWriteStall() {
	sc, ok := c.conn.(syscall.Conn)
	if !ok {
		return
	}
	rc, _ := sc.SyscallConn()
	c.writeMu.Lock()
	c.rc = rc
	c.writeMu.Unlock()
}

// StalledBytes reports the carried (accepted but unwritten) wire bytes.
// Safe from any goroutine.
func (c *Conn) StalledBytes() int64 { return c.carried.Load() }

// FlushStalled makes one non-blocking attempt to drain the carry buffer and
// returns the bytes actually written (exact under writeMu, even with the
// read loop concurrently appending pongs). Write failures return the error;
// a still-full peer is not an error (StalledBytes stays non-zero and the
// caller retries later).
func (c *Conn) FlushStalled() (int64, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if len(c.carry) == 0 {
		return 0, nil
	}
	n, err := c.flushCarry()
	return int64(n), err
}

// flushControlCarry opportunistically drains carry that holds ONLY control
// frames. The StreamReader calls it on every Feed: control carry is not
// budget-charged and the engine's stalled-retry machinery does not know
// about it (it only tracks clients with engine egress traffic), so the
// reader is its drain driver — a withheld pong goes out as soon as the
// peer talks to us again and the transport has room. Carry holding data
// frames is left strictly to the engine's retries, whose ledger
// reconciliation must observe every drained byte.
func (c *Conn) flushControlCarry() {
	if c.carried.Load() == 0 {
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.carryData || len(c.carry) == 0 {
		return
	}
	_, _ = c.flushCarry()
}

// flushCarry makes one non-blocking write of the carry and drops what left.
// Caller holds writeMu, and the carry is non-empty.
func (c *Conn) flushCarry() (int, error) {
	n, _, err := netpoll.WriteConn(c.rc, c.carry, nil)
	if n > 0 {
		rest := copy(c.carry, c.carry[n:])
		c.carry = c.carry[:rest]
		c.carried.Store(int64(rest))
		if rest == 0 {
			c.carryData = false
		}
	}
	return n, err
}

// writeClose sends a close frame once; later calls are no-ops.
func (c *Conn) writeClose(code int, reason string) error {
	c.closeMu.Lock()
	if c.closeSent {
		c.closeMu.Unlock()
		return nil
	}
	c.closeSent = true
	c.closeMu.Unlock()
	payload := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(payload, uint16(code))
	copy(payload[2:], reason)
	return c.WriteControl(OpClose, payload)
}

// Close performs a best-effort close handshake (close frame then transport
// close). Safe to call multiple times.
func (c *Conn) Close() error {
	c.writeClose(CloseNormal, "")
	return c.conn.Close()
}

// CloseWithCode sends a close frame with the given status before closing.
func (c *Conn) CloseWithCode(code int, reason string) error {
	c.writeClose(code, reason)
	return c.conn.Close()
}
