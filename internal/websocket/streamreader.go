package websocket

import (
	"bytes"
	"encoding/binary"
)

// maxFrameHeader is the widest wire header: 2 base bytes, 8 extended
// length bytes, 4 mask bytes.
const maxFrameHeader = 2 + 8 + 4

// StreamReader is the connection's deframer, push-based for the engine's
// readiness read path: it never touches the transport, it is fed whatever
// bytes one wakeup (or, on a client, one blocking Read) produced and emits
// the data-frame payload bytes decoded so far. A WebSocket frame may
// arrive split across arbitrarily many wakeups — header bytes accumulate
// in a fixed scratch, payload bytes stream out as they appear (the
// engine's length-prefixed protocol decoder reassembles its own messages,
// so WebSocket message boundaries need not be preserved). Control frames
// are handled here: pings answered with pongs, pongs ignored, close
// completing the handshake and surfacing as *CloseError.
//
// Each emitted chunk is a fresh buffer from the allocator (never an
// alias of the fed bytes), already unmasked; ownership passes to emit.
// A StreamReader has a single feeding goroutine (the IoThread's poll
// loop); its pong/close replies serialize with concurrent engine writes
// through the Conn's write lock.
type StreamReader struct {
	c     *Conn
	alloc func(int) []byte

	hdr       [maxFrameHeader]byte
	hdrLen    int          // header bytes accumulated so far
	hdrNeed   int          // total header length, 0 until the first 2 bytes arrive
	hdrReader bytes.Reader // reused view for readFrameHeader

	h         frameHeader // current frame, valid while inPayload
	inPayload bool
	remaining int64 // payload bytes still expected for the current frame
	maskOff   int   // mask phase within the current frame's payload

	ctrl []byte // control-frame payload accumulation (≤ 125 bytes)

	frag     bool  // inside a fragmented data message
	msgBytes int64 // cumulative payload of the in-progress fragmented message

	err error // latched terminal error
}

// NewStreamReader returns a StreamReader decoding this connection's
// inbound byte stream. alloc provides the buffers emitted payload chunks
// are copied into (the engine installs the pool allocator); nil means
// plain make.
func (c *Conn) NewStreamReader(alloc func(int) []byte) *StreamReader {
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	return &StreamReader{c: c, alloc: alloc}
}

// FeedBuffered decodes bytes already drawn into the connection's
// handshake read buffer. Pipelined frames sent on the heels of the HTTP
// upgrade sit there invisible to the kernel poller — this must run once
// before the first readiness-driven Feed.
func (r *StreamReader) FeedBuffered(emit func(chunk []byte)) error {
	for {
		n := r.c.br.Buffered()
		if n == 0 {
			return nil
		}
		b, _ := r.c.br.Peek(n)
		err := r.Feed(b, emit)
		r.c.br.Discard(n)
		if err != nil {
			return err
		}
	}
}

// Feed decodes one read's worth of wire bytes, emitting zero or more
// unmasked data-payload chunks. data is treated as read-only and not
// retained. The first error (protocol violation, oversized message, or
// the peer's close, as *CloseError) is terminal and latched.
func (r *StreamReader) Feed(data []byte, emit func(chunk []byte)) error {
	if r.err != nil {
		return r.err
	}
	// The reader is this connection's control-carry drain driver: a
	// withheld pong goes out as soon as the peer talks to us again.
	r.c.flushControlCarry()
	for len(data) > 0 {
		if !r.inPayload {
			if r.hdrLen < 2 {
				n := copy(r.hdr[r.hdrLen:2], data)
				r.hdrLen += n
				data = data[n:]
				if r.hdrLen < 2 {
					return nil
				}
				r.hdrNeed = headerNeed(r.hdr[1])
			}
			if r.hdrLen < r.hdrNeed {
				n := copy(r.hdr[r.hdrLen:r.hdrNeed], data)
				r.hdrLen += n
				data = data[n:]
				if r.hdrLen < r.hdrNeed {
					return nil
				}
			}
			r.hdrReader.Reset(r.hdr[:r.hdrNeed])
			h, err := readFrameHeader(&r.hdrReader)
			if err != nil {
				return r.fail(err)
			}
			r.hdrLen, r.hdrNeed = 0, 0
			if err := r.beginFrame(h); err != nil {
				return r.fail(err)
			}
		}
		if r.remaining > 0 {
			take := r.remaining
			if int64(len(data)) < take {
				take = int64(len(data))
			}
			seg := data[:take]
			if r.h.opcode.IsControl() {
				start := len(r.ctrl)
				r.ctrl = append(r.ctrl, seg...)
				if r.h.masked {
					applyMask(r.ctrl[start:], r.h.mask, r.maskOff)
				}
			} else {
				chunk := r.alloc(int(take))
				copy(chunk, seg)
				if r.h.masked {
					applyMask(chunk, r.h.mask, r.maskOff)
				}
				emit(chunk)
			}
			r.maskOff += int(take)
			r.remaining -= take
			data = data[take:]
		}
		if r.remaining == 0 {
			if err := r.endFrame(); err != nil {
				return r.fail(err)
			}
		}
	}
	return nil
}

// fail latches err as the terminal state.
func (r *StreamReader) fail(err error) error {
	r.err = err
	return err
}

// headerNeed returns the full header length implied by the second wire
// byte (payload-length class and mask bit).
func headerNeed(b1 byte) int {
	need := 2
	switch b1 & 0x7F {
	case 126:
		need += 2
	case 127:
		need += 8
	}
	if b1&0x80 != 0 {
		need += 4
	}
	return need
}

// beginFrame validates a completed header and arms payload streaming.
func (r *StreamReader) beginFrame(h frameHeader) error {
	if r.c.isServer && !h.masked {
		return ErrUnmaskedClient
	}
	if !r.c.isServer && h.masked {
		return ErrMaskedServer
	}
	if !h.opcode.IsControl() {
		switch h.opcode {
		case OpContinuation:
			if !r.frag {
				return errBadContinuation
			}
		default:
			if r.frag {
				return errExpectedContinue
			}
		}
		if r.msgBytes+h.length > int64(r.c.maxMessage) {
			r.c.writeClose(CloseMessageTooBig, "message too big")
			return ErrMessageTooLarge
		}
	}
	r.h = h
	r.inPayload = true
	r.remaining = h.length
	r.maskOff = 0
	return nil
}

// endFrame completes the current frame: control frames act on their
// accumulated payload, data frames update fragmentation accounting.
func (r *StreamReader) endFrame() error {
	r.inPayload = false
	h := r.h
	if h.opcode.IsControl() {
		payload := r.ctrl
		r.ctrl = r.ctrl[:0]
		switch h.opcode {
		case OpPing:
			// RFC 6455 §5.5.3: respond with a pong carrying the same data.
			return r.c.WriteControl(OpPong, payload)
		case OpPong:
			return nil // unsolicited pongs are ignored
		case OpClose:
			code := CloseNoStatusRcvd
			reason := ""
			if len(payload) >= 2 {
				code = int(binary.BigEndian.Uint16(payload))
				reason = string(payload[2:])
			}
			r.c.writeClose(CloseNormal, "") // echo close if we haven't sent one
			return &CloseError{Code: code, Reason: reason}
		}
		return nil
	}
	if h.fin {
		r.frag = false
		r.msgBytes = 0
	} else {
		r.frag = true
		r.msgBytes += h.length
	}
	return nil
}
