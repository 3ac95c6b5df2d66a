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
	"time"
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

	// Writing the frame (and stamping its deadline) is writeMu's whole
	// job, so transport writes and time.Now stay allowed under it —
	// encoding and queue handoffs do not.
	//vet:lockscope deny=encode,push,block
	writeMu  sync.Mutex
	writeBuf []byte      // masked-path scratch: header + masked payload copy
	hdrBuf   []byte      // unmasked-path scratch: frame header only
	iovecArr [2][]byte   // unmasked-path scratch storage: header, payload
	iovec    net.Buffers // view over iovecArr handed to WriteTo

	// Stall-aware writes (engine overload protection): when writeStall > 0,
	// a frame write blocks at most writeStall; wire bytes that did not fit
	// are copied into carry and flushed — strictly before any later frame —
	// by the next write or FlushStalled. carried mirrors len(carry) for
	// lock-free readers (the engine's workers read it to compute pressure
	// tiers). carryData records whether any carried bytes belong to data
	// frames: those are budget-charged and drained by the engine's stalled
	// retry machinery, whereas control-only carry (pong answers to a
	// non-reading pinger) is unbudgeted — it is capped (control frames are
	// dropped rather than growing it past controlCarryCap) and drained
	// opportunistically by the read loop. All carry state is guarded by
	// writeMu.
	writeStall time.Duration
	carry      []byte
	carryData  bool
	carried    atomic.Int64

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
// through a reused net.Buffers vector, so one frame — and therefore one
// WriteBatch carrying a whole output batch — is one writev syscall with no
// payload copy. Only the masked client path still copies, because masking
// must not mutate the caller's (possibly shared) payload.
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
	if !masked {
		c.hdrBuf = appendFrameHeader(c.hdrBuf[:0], fin, op, false, mask, len(payload))
		if c.writeStall > 0 {
			// Stall-aware path: never block longer than writeStall; carry
			// what did not fit. Earlier carried bytes flush first so wire
			// order is preserved.
			if len(c.carry) > 0 {
				if c.dropControlCarry(op) {
					return nil
				}
				c.noteCarry(op)
				c.carry = append(c.carry, c.hdrBuf...)
				c.carry = append(c.carry, payload...)
				c.carried.Store(int64(len(c.carry)))
				return nil
			}
			_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeStall))
		}
		if len(payload) == 0 {
			n, err := c.conn.Write(c.hdrBuf)
			return c.carryRemainder(err, op, c.hdrBuf[n:])
		}
		// WriteTo consumes the vector (it advances entries as they drain),
		// so rebuild the view over the fixed scratch array every write, and
		// clear it afterwards so a shared fan-out payload is not pinned.
		c.iovecArr[0], c.iovecArr[1] = c.hdrBuf, payload
		c.iovec = net.Buffers(c.iovecArr[:])
		_, err := c.iovec.WriteTo(c.conn)
		// On a partial write the consumed vector holds exactly the
		// unwritten remainder.
		err = c.carryRemainder(err, op, c.iovec...)
		c.iovecArr[0], c.iovecArr[1] = nil, nil
		c.iovec = nil
		return err
	}
	c.writeBuf = appendFrameHeader(c.writeBuf[:0], fin, op, masked, mask, len(payload))
	start := len(c.writeBuf)
	c.writeBuf = append(c.writeBuf, payload...)
	applyMask(c.writeBuf[start:], mask, 0)
	if c.writeStall > 0 {
		if len(c.carry) > 0 {
			if c.dropControlCarry(op) {
				return nil
			}
			c.noteCarry(op)
			c.carry = append(c.carry, c.writeBuf...)
			c.carried.Store(int64(len(c.carry)))
			return nil
		}
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeStall))
	}
	n, err := c.conn.Write(c.writeBuf)
	return c.carryRemainder(err, op, c.writeBuf[n:])
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

// noteCarry records the class of bytes entering the carry. Caller holds
// writeMu.
func (c *Conn) noteCarry(op Opcode) {
	if !op.IsControl() {
		c.carryData = true
	}
}

// carryRemainder absorbs a write-deadline expiry in stall-aware mode: the
// unwritten wire bytes are copied into the carry buffer and the write
// reports success (the frame is "consumed" — it will reach the wire, in
// order, via FlushStalled). Other errors pass through. Caller holds writeMu.
func (c *Conn) carryRemainder(err error, op Opcode, rest ...[]byte) error {
	if err == nil || c.writeStall <= 0 || !isTimeout(err) {
		return err
	}
	c.noteCarry(op)
	for _, b := range rest {
		c.carry = append(c.carry, b...)
	}
	c.carried.Store(int64(len(c.carry)))
	return nil
}

// isTimeout reports whether err is a write-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// SetWriteStall enables stall-aware writes: one frame write blocks at most
// d; bytes that do not fit are carried internally (wire-exact, order
// preserved) and flushed by later writes or FlushStalled. d <= 0 restores
// plain blocking writes. The engine enables this on server connections so a
// client that stops reading cannot stall its IoThread.
func (c *Conn) SetWriteStall(d time.Duration) {
	c.writeMu.Lock()
	c.writeStall = d
	c.writeMu.Unlock()
}

// StalledBytes reports the carried (accepted but unwritten) wire bytes.
// Safe from any goroutine.
func (c *Conn) StalledBytes() int64 { return c.carried.Load() }

// FlushStalled attempts to drain the carry buffer, blocking at most probe,
// and returns the bytes actually written (exact under writeMu, even with
// the read loop concurrently appending pongs). Non-timeout write failures
// return the error; a still-full peer is not an error (StalledBytes stays
// non-zero and the caller retries later).
func (c *Conn) FlushStalled(probe time.Duration) (int64, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if len(c.carry) == 0 {
		return 0, nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(probe))
	n, err := c.conn.Write(c.carry)
	if n > 0 {
		rest := copy(c.carry, c.carry[n:])
		c.carry = c.carry[:rest]
		c.carried.Store(int64(rest))
		if rest == 0 {
			c.carryData = false
		}
	}
	if err != nil && !isTimeout(err) {
		return int64(n), err
	}
	return int64(n), nil
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
	if c.writeStall <= 0 || c.carried.Load() == 0 {
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.carryData || len(c.carry) == 0 {
		return
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeStall))
	n, _ := c.conn.Write(c.carry)
	if n > 0 {
		rest := copy(c.carry, c.carry[n:])
		c.carry = c.carry[:rest]
		c.carried.Store(int64(rest))
	}
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
