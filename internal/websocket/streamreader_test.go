package websocket

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// maskedFrame builds one client→server wire frame.
func maskedFrame(fin bool, op Opcode, payload []byte) []byte {
	mask := [4]byte{0xA1, 0xB2, 0xC3, 0xD4}
	buf := appendFrameHeader(nil, fin, op, true, mask, len(payload))
	start := len(buf)
	buf = append(buf, payload...)
	applyMask(buf[start:], mask, 0)
	return buf
}

// streamPair returns a server-side Conn plus the peer transport end the
// test writes raw bytes into / reads replies from.
func streamPair(t *testing.T) (server *Conn, peer io.ReadWriteCloser) {
	t.Helper()
	a, b := testPipe(t, 0)
	return newConn(b, nil, true), a
}

// feedByteByByte pushes wire bytes one at a time — the worst-case wakeup
// split — collecting emitted chunks.
func feedByteByByte(t *testing.T, sr *StreamReader, wire []byte) ([][]byte, error) {
	t.Helper()
	var chunks [][]byte
	for i := range wire {
		if err := sr.Feed(wire[i:i+1], func(c []byte) { chunks = append(chunks, c) }); err != nil {
			return chunks, err
		}
	}
	return chunks, nil
}

func TestStreamReaderByteByByte(t *testing.T) {
	server, _ := streamPair(t)
	sr := server.NewStreamReader(nil)
	msg1 := []byte("first payload")
	msg2 := bytes.Repeat([]byte("x"), 300) // forces the 2-byte extended length
	wire := append(maskedFrame(true, OpBinary, msg1), maskedFrame(true, OpBinary, msg2)...)
	chunks, err := feedByteByByte(t, sr, wire)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Join(chunks, nil)
	want := append(append([]byte(nil), msg1...), msg2...)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes, want %d: %q", len(got), len(want), got)
	}
}

func TestStreamReaderFragmentedMessage(t *testing.T) {
	server, _ := streamPair(t)
	sr := server.NewStreamReader(nil)
	var wire []byte
	wire = append(wire, maskedFrame(false, OpBinary, []byte("he"))...)
	wire = append(wire, maskedFrame(false, OpContinuation, []byte("ll"))...)
	wire = append(wire, maskedFrame(true, OpContinuation, []byte("o"))...)
	wire = append(wire, maskedFrame(true, OpBinary, []byte("!"))...) // fresh message after fin
	chunks, err := feedByteByByte(t, sr, wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(bytes.Join(chunks, nil)); got != "hello!" {
		t.Fatalf("streamed %q, want %q", got, "hello!")
	}
}

func TestStreamReaderPingAnswersPong(t *testing.T) {
	server, peer := streamPair(t)
	sr := server.NewStreamReader(nil)
	if _, err := feedByteByByte(t, sr, maskedFrame(true, OpPing, []byte("mid"))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(peer)
	h, err := readFrameHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, h.length)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	if h.opcode != OpPong || string(payload) != "mid" {
		t.Fatalf("reply = %v %q, want pong %q", h.opcode, payload, "mid")
	}
}

func TestStreamReaderCloseHandshake(t *testing.T) {
	server, peer := streamPair(t)
	sr := server.NewStreamReader(nil)
	payload := []byte{0x03, 0xE9, 'b', 'y', 'e'} // 1001 "bye"
	_, err := feedByteByByte(t, sr, maskedFrame(true, OpClose, payload))
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != 1001 || ce.Reason != "bye" {
		t.Fatalf("err = %v, want CloseError 1001 bye", err)
	}
	// The close must have been echoed, and the error must latch.
	br := bufio.NewReader(peer)
	if h, err := readFrameHeader(br); err != nil || h.opcode != OpClose {
		t.Fatalf("echo = %v %v, want close frame", h.opcode, err)
	}
	if err2 := sr.Feed([]byte{0x82}, func([]byte) {}); !errors.As(err2, &ce) {
		t.Fatalf("post-close Feed = %v, want latched CloseError", err2)
	}
}

func TestStreamReaderRejectsUnmaskedClient(t *testing.T) {
	server, _ := streamPair(t)
	sr := server.NewStreamReader(nil)
	var mask [4]byte
	wire := appendFrameHeader(nil, true, OpBinary, false, mask, 2)
	wire = append(wire, 'h', 'i')
	_, err := feedByteByByte(t, sr, wire)
	if !errors.Is(err, ErrUnmaskedClient) {
		t.Fatalf("err = %v, want ErrUnmaskedClient", err)
	}
}

func TestStreamReaderCumulativeSizeLimit(t *testing.T) {
	server, peer := streamPair(t)
	server.SetMaxMessageSize(8)
	sr := server.NewStreamReader(nil)
	var wire []byte
	wire = append(wire, maskedFrame(false, OpBinary, []byte("12345"))...)
	wire = append(wire, maskedFrame(true, OpContinuation, []byte("6789"))...)
	_, err := feedByteByByte(t, sr, wire)
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
	br := bufio.NewReader(peer)
	h, err := readFrameHeader(br)
	if err != nil || h.opcode != OpClose {
		t.Fatalf("expected close frame, got %v %v", h.opcode, err)
	}
	body := make([]byte, h.length)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	if code := int(body[0])<<8 | int(body[1]); code != CloseMessageTooBig {
		t.Fatalf("close code = %d, want %d", code, CloseMessageTooBig)
	}
}

func TestStreamReaderFeedBuffered(t *testing.T) {
	// Frames pipelined behind the handshake sit in the bufio.Reader; the
	// poller never sees them as socket readiness.
	_, b := testPipe(t, 0)
	wire := maskedFrame(true, OpBinary, []byte("pipelined"))
	br := bufio.NewReader(io.MultiReader(bytes.NewReader(wire), b))
	server := newConn(b, br, true)
	if _, err := br.Peek(len(wire)); err != nil { // simulate handshake over-read
		t.Fatal(err)
	}
	sr := server.NewStreamReader(nil)
	var got strings.Builder
	if err := sr.FeedBuffered(func(c []byte) { got.Write(c) }); err != nil {
		t.Fatal(err)
	}
	if got.String() != "pipelined" {
		t.Fatalf("FeedBuffered streamed %q", got.String())
	}
}
