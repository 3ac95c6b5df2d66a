package websocket

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// rawPair gives a client WS conn plus direct access to the server-side
// transport so tests can forge frames.
func rawPair(t *testing.T) (client *Conn, server *Conn) {
	t.Helper()
	a, b := testPipe(t, 0)
	var wg sync.WaitGroup
	var serr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, serr = ServerHandshake(b)
	}()
	c, cerr := ClientHandshake(a, "t", "/")
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	t.Cleanup(func() { c.Close(); server.Close() })
	return c, server
}

// writeClientFrame writes one masked frame from the client side directly.
func writeClientFrame(t *testing.T, c *Conn, fin bool, op Opcode, payload []byte) {
	t.Helper()
	if err := c.writeFrame(fin, op, payload); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentedMessageReassembly(t *testing.T) {
	client, server := rawPair(t)
	// Three-fragment binary message: BINARY(fin=0), CONT(fin=0), CONT(fin=1).
	writeClientFrame(t, client, false, OpBinary, []byte("hello "))
	writeClientFrame(t, client, false, OpContinuation, []byte("fragmented "))
	writeClientFrame(t, client, true, OpContinuation, []byte("world"))
	msg, err := newMsgReader(server).next(len("hello fragmented world"))
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "hello fragmented world" {
		t.Fatalf("reassembled = %q", msg)
	}
}

func TestControlFrameInterleavedWithFragments(t *testing.T) {
	client, server := rawPair(t)
	// RFC 6455 §5.4: control frames MAY be injected in the middle of a
	// fragmented message.
	writeClientFrame(t, client, false, OpBinary, []byte("part1-"))
	writeClientFrame(t, client, true, OpPing, []byte("mid"))
	writeClientFrame(t, client, true, OpContinuation, []byte("part2"))
	msg, err := newMsgReader(server).next(len("part1-part2"))
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "part1-part2" {
		t.Fatalf("reassembled = %q", msg)
	}
	// The server must have answered the ping with a pong carrying "mid".
	go server.WriteMessage(OpBinary, []byte("done")) // let the client return
	gotPong := false
	for i := 0; i < 2 && !gotPong; i++ {
		// A deframer would consume the pong transparently; read the next
		// frame off the wire directly instead.
		h, err := readFrameHeader(client.br)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, h.length)
		if _, err := readFull(client, payload); err != nil {
			t.Fatal(err)
		}
		if h.opcode == OpPong && string(payload) == "mid" {
			gotPong = true
		}
	}
	if !gotPong {
		t.Fatal("no pong for the interleaved ping")
	}
}

// readFull reads exactly len(p) bytes from the conn's buffered reader.
func readFull(c *Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.br.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestUnexpectedContinuationRejected(t *testing.T) {
	client, server := rawPair(t)
	writeClientFrame(t, client, true, OpContinuation, []byte("orphan"))
	if _, err := newMsgReader(server).next(1); !errors.Is(err, errBadContinuation) {
		t.Fatalf("err = %v, want errBadContinuation", err)
	}
}

func TestDataFrameDuringFragmentationRejected(t *testing.T) {
	client, server := rawPair(t)
	writeClientFrame(t, client, false, OpBinary, []byte("start"))
	writeClientFrame(t, client, true, OpBinary, []byte("interloper"))
	if _, err := newMsgReader(server).next(len("start") + 1); !errors.Is(err, errExpectedContinue) {
		t.Fatalf("err = %v, want errExpectedContinue", err)
	}
}

func TestFragmentedMessageSizeLimit(t *testing.T) {
	client, server := rawPair(t)
	server.SetMaxMessageSize(10)
	writeClientFrame(t, client, false, OpBinary, bytes.Repeat([]byte{1}, 8))
	writeClientFrame(t, client, true, OpContinuation, bytes.Repeat([]byte{2}, 8))
	if _, err := newMsgReader(server).next(16); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReservedBitsRejected(t *testing.T) {
	var buf bytes.Buffer
	// FIN + RSV1 set.
	buf.Write([]byte{0x80 | 0x40 | byte(OpBinary), 0x00})
	if _, err := readFrameHeader(&buf); !errors.Is(err, errReservedBitsSet) {
		t.Fatalf("err = %v, want errReservedBitsSet", err)
	}
}

func TestReservedOpcodeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x80 | 0x3, 0x00}) // opcode 0x3 is reserved
	if _, err := readFrameHeader(&buf); err == nil {
		t.Fatal("reserved opcode accepted")
	}
}

func TestFragmentedControlFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{byte(OpPing), 0x00}) // fin=0 control frame
	if _, err := readFrameHeader(&buf); !errors.Is(err, ErrControlFragment) {
		t.Fatalf("err = %v, want ErrControlFragment", err)
	}
}

func TestApplyMaskOffset(t *testing.T) {
	mask := [4]byte{0xAA, 0xBB, 0xCC, 0xDD}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	want := append([]byte(nil), data...)
	// Masking twice restores the original, even split at odd offsets.
	applyMask(data[:3], mask, 0)
	applyMask(data[3:], mask, 3)
	applyMask(data, mask, 0)
	if !bytes.Equal(data, want) {
		t.Fatalf("mask with offset corrupted data: %v", data)
	}
}
