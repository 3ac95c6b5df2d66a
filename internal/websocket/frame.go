// Package websocket implements the subset of RFC 6455 that MigratoryData
// clients use (paper §3: "publishers and subscribers connect to a
// MigratoryData server over WebSockets"): the HTTP/1.1 upgrade handshake,
// binary/text data frames with client-to-server masking, fragmentation
// reassembly, and the ping/pong/close control frames. Implemented from
// scratch on top of net.Conn using only the standard library.
package websocket

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a WebSocket frame type (RFC 6455 §5.2).
type Opcode byte

// Frame opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// IsControl reports whether the opcode is a control frame.
func (o Opcode) IsControl() bool { return o >= OpClose }

// Close status codes (RFC 6455 §7.4.1).
const (
	CloseNormal          = 1000
	CloseGoingAway       = 1001
	CloseMessageTooBig   = 1009
	CloseNoStatusRcvd    = 1005 // never sent on the wire
	closeCodeWireMinimum = 1000
)

// Framing errors.
var (
	ErrMessageTooLarge  = errors.New("websocket: message exceeds size limit")
	ErrProtocol         = errors.New("websocket: protocol violation")
	ErrUnmaskedClient   = errors.New("websocket: client frame not masked")
	ErrMaskedServer     = errors.New("websocket: server frame masked")
	ErrControlFragment  = errors.New("websocket: fragmented control frame")
	ErrControlTooLong   = errors.New("websocket: control frame payload exceeds 125 bytes")
	errReservedBitsSet  = errors.New("websocket: reserved bits set")
	errReservedOpcode   = errors.New("websocket: reserved opcode")
	errBadContinuation  = errors.New("websocket: unexpected continuation frame")
	errExpectedContinue = errors.New("websocket: expected continuation frame")
)

// frameHeader is the decoded fixed part of a frame.
type frameHeader struct {
	fin    bool
	opcode Opcode
	masked bool
	length int64
	mask   [4]byte
}

// readFrameHeader parses a frame header from r.
func readFrameHeader(r io.Reader) (frameHeader, error) {
	var h frameHeader
	var b [8]byte
	if _, err := io.ReadFull(r, b[:2]); err != nil {
		return h, err
	}
	h.fin = b[0]&0x80 != 0
	if b[0]&0x70 != 0 {
		return h, errReservedBitsSet
	}
	h.opcode = Opcode(b[0] & 0x0F)
	switch {
	case h.opcode <= OpBinary:
	case h.opcode >= OpClose && h.opcode <= OpPong:
	default:
		return h, fmt.Errorf("%w: %#x", errReservedOpcode, byte(h.opcode))
	}
	h.masked = b[1]&0x80 != 0
	length := int64(b[1] & 0x7F)
	switch length {
	case 126:
		if _, err := io.ReadFull(r, b[:2]); err != nil {
			return h, err
		}
		length = int64(binary.BigEndian.Uint16(b[:2]))
	case 127:
		if _, err := io.ReadFull(r, b[:8]); err != nil {
			return h, err
		}
		v := binary.BigEndian.Uint64(b[:8])
		if v > 1<<62 {
			return h, ErrMessageTooLarge
		}
		length = int64(v)
	}
	if h.opcode.IsControl() {
		if !h.fin {
			return h, ErrControlFragment
		}
		if length > 125 {
			return h, ErrControlTooLong
		}
	}
	h.length = length
	if h.masked {
		if _, err := io.ReadFull(r, h.mask[:]); err != nil {
			return h, err
		}
	}
	return h, nil
}

// appendFrameHeader appends the encoded header to dst.
func appendFrameHeader(dst []byte, fin bool, op Opcode, masked bool, mask [4]byte, length int) []byte {
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	dst = append(dst, b0)
	maskBit := byte(0)
	if masked {
		maskBit = 0x80
	}
	switch {
	case length < 126:
		dst = append(dst, maskBit|byte(length))
	case length <= 0xFFFF:
		dst = append(dst, maskBit|126, byte(length>>8), byte(length))
	default:
		dst = append(dst, maskBit|127)
		dst = binary.BigEndian.AppendUint64(dst, uint64(length))
	}
	if masked {
		dst = append(dst, mask[:]...)
	}
	return dst
}

// applyMask XORs payload in place with the masking key starting at offset.
func applyMask(payload []byte, mask [4]byte, offset int) {
	for i := range payload {
		payload[i] ^= mask[(offset+i)&3]
	}
}
