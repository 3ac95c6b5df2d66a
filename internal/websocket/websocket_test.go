package websocket

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"migratorydata/internal/transport"
)

// testPipe returns both ends of an inproc connection of the given socket
// buffer size (0: the kernel's default), closed with the test.
func testPipe(t testing.TB, size int) (a, b net.Conn) {
	t.Helper()
	a, b, err := transport.NewPipeSize(
		transport.Addr{Net: "inproc", Address: "ws-client"},
		transport.Addr{Net: "inproc", Address: "ws-server"},
		size,
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// msgReader is the tests' blocking read side of a Conn, built on the one
// deframer there is: a blocking transport Read, then Feed — how
// client/session.go and benchmark/conn.go drive it. A StreamReader streams
// payload bytes and keeps no message boundaries, so a test asks for the
// bytes it expects.
type msgReader struct {
	c       *Conn
	sr      *StreamReader
	pending []byte // deframed payload not yet handed out
	err     error  // terminal error, reported once pending runs short
	buf     [4096]byte
}

func newMsgReader(c *Conn) *msgReader {
	return &msgReader{c: c, sr: c.NewStreamReader(nil)}
}

func (r *msgReader) emit(chunk []byte) { r.pending = append(r.pending, chunk...) }

// next returns the next n payload bytes, reading as long as it takes.
// Control frames are handled inside Feed (a ping is answered, a close
// surfaces as *CloseError), so next(1) on a peer that only pings blocks.
func (r *msgReader) next(n int) ([]byte, error) {
	for len(r.pending) < n {
		if r.err != nil {
			return nil, r.err
		}
		if r.err = r.sr.FeedBuffered(r.emit); r.err != nil {
			continue
		}
		k, err := r.c.conn.Read(r.buf[:])
		if k > 0 {
			if ferr := r.sr.Feed(r.buf[:k], r.emit); ferr != nil {
				err = ferr
			}
		}
		r.err = err
	}
	out := r.pending[:n:n]
	r.pending = r.pending[n:]
	return out, nil
}

// pair returns a connected client/server WebSocket pair over an inproc pipe.
func pair(t *testing.T) (client, server *Conn) {
	t.Helper()
	a, b := testPipe(t, 0)
	var wg sync.WaitGroup
	var serr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, serr = ServerHandshake(b)
	}()
	c, cerr := ClientHandshake(a, "test", "/ws")
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	t.Cleanup(func() {
		c.Close()
		server.Close()
	})
	return c, server
}

func TestHandshakeAndEcho(t *testing.T) {
	client, server := pair(t)
	msg := []byte("hello websocket")
	if err := client.WriteMessage(OpBinary, msg); err != nil {
		t.Fatal(err)
	}
	got, err := newMsgReader(server).next(len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("server read: %q %v", got, err)
	}
	if err := server.WriteMessage(OpText, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	got, err = newMsgReader(client).next(len("reply"))
	if err != nil || string(got) != "reply" {
		t.Fatalf("client read: %q %v", got, err)
	}
}

func TestLargeMessageExtendedLength(t *testing.T) {
	client, server := pair(t)
	r := newMsgReader(server)
	// >64KB forces the 8-byte extended length; >125 forces the 2-byte one.
	for _, size := range []int{126, 65535, 65536, 1 << 20} {
		msg := bytes.Repeat([]byte{byte(size)}, size)
		// Write from a goroutine: messages larger than the socket buffer
		// need the reader draining concurrently.
		writeErr := make(chan error, 1)
		go func() { writeErr <- client.WriteMessage(OpBinary, msg) }()
		got, err := r.next(size)
		if werr := <-writeErr; werr != nil {
			t.Fatal(werr)
		}
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("size %d: len(got)=%d err=%v", size, len(got), err)
		}
	}
}

func TestMaskingRoundTrip(t *testing.T) {
	// Client→server frames are masked on the wire; verify the payload is
	// still recovered exactly (the mask must not leak through).
	client, server := pair(t)
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	client.WriteMessage(OpBinary, msg)
	got, err := newMsgReader(server).next(len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("masked round trip failed: %v", err)
	}
}

func TestPingAutoPong(t *testing.T) {
	client, server := pair(t)
	if err := client.WriteControl(OpPing, []byte("alive?")); err != nil {
		t.Fatal(err)
	}
	// The server's deframer auto-pongs; give it a data message so the read
	// returns.
	go func() {
		client.WriteMessage(OpBinary, []byte("data"))
	}()
	got, err := newMsgReader(server).next(len("data"))
	if err != nil || string(got) != "data" {
		t.Fatalf("server read after ping: %q %v", got, err)
	}
	// Client should now find the pong transparently skipped too.
	go server.WriteMessage(OpBinary, []byte("data2"))
	got, err = newMsgReader(client).next(len("data2"))
	if err != nil || string(got) != "data2" {
		t.Fatalf("client read after pong: %q %v", got, err)
	}
}

func TestCloseHandshake(t *testing.T) {
	client, server := pair(t)
	go client.CloseWithCode(CloseGoingAway, "bye")
	_, err := newMsgReader(server).next(1)
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CloseError", err)
	}
	if ce.Code != CloseGoingAway || ce.Reason != "bye" {
		t.Fatalf("close = %d %q", ce.Code, ce.Reason)
	}
	if !strings.Contains(ce.Error(), "1001") {
		t.Fatalf("CloseError.Error() = %q", ce.Error())
	}
}

func TestServerRejectsUnmaskedClientFrame(t *testing.T) {
	a, b := testPipe(t, 0)
	var wg sync.WaitGroup
	var server *Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, _ = ServerHandshake(b)
	}()
	client, err := ClientHandshake(a, "test", "/")
	wg.Wait()
	if err != nil || server == nil {
		t.Fatal("handshake failed")
	}
	// Forge an unmasked frame directly on the transport.
	raw := appendFrameHeader(nil, true, OpBinary, false, [4]byte{}, 3)
	raw = append(raw, "abc"...)
	a.Write(raw)
	if _, err := newMsgReader(server).next(1); !errors.Is(err, ErrUnmaskedClient) {
		t.Fatalf("err = %v, want ErrUnmaskedClient", err)
	}
	client.Close()
	server.Close()
}

func TestControlFrameTooLong(t *testing.T) {
	client, _ := pair(t)
	if err := client.WriteControl(OpPing, make([]byte, 126)); !errors.Is(err, ErrControlTooLong) {
		t.Fatalf("err = %v, want ErrControlTooLong", err)
	}
}

func TestWriteMessageRejectsControlOpcode(t *testing.T) {
	client, _ := pair(t)
	if err := client.WriteMessage(OpPing, nil); err == nil {
		t.Fatal("WriteMessage(OpPing) should fail")
	}
	if err := client.WriteControl(OpBinary, nil); err == nil {
		t.Fatal("WriteControl(OpBinary) should fail")
	}
}

func TestMaxMessageSize(t *testing.T) {
	client, server := pair(t)
	server.SetMaxMessageSize(10)
	client.WriteMessage(OpBinary, make([]byte, 11))
	if _, err := newMsgReader(server).next(1); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// Known-answer test from RFC 6455 §1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

func TestHandshakeRejectsNonUpgrade(t *testing.T) {
	a, b := testPipe(t, 0)
	go a.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	if _, err := ServerHandshake(b); !errors.Is(err, ErrNotWebSocket) {
		t.Fatalf("err = %v, want ErrNotWebSocket", err)
	}
}

func TestHandshakeRejectsBadVersion(t *testing.T) {
	a, b := testPipe(t, 0)
	go a.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 8\r\n\r\n"))
	if _, err := ServerHandshake(b); !errors.Is(err, ErrNotWebSocket) {
		t.Fatalf("err = %v, want ErrNotWebSocket", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	client, server := pair(t)
	const writers = 4
	const perWriter = 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := client.WriteMessage(OpBinary, []byte{byte(w)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := newMsgReader(server)
		for received < writers*perWriter {
			_, err := r.next(1)
			if err != nil {
				t.Errorf("read %d: %v", received, err)
				return
			}
			received++
		}
	}()
	wg.Wait()
	<-done
	if received != writers*perWriter {
		t.Fatalf("received %d messages, want %d", received, writers*perWriter)
	}
}

func BenchmarkEcho140B(b *testing.B) {
	a, c := testPipe(b, 0)
	var server *Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, _ = ServerHandshake(c)
	}()
	client, err := ClientHandshake(a, "bench", "/")
	wg.Wait()
	if err != nil || server == nil {
		b.Fatal("handshake failed")
	}
	defer client.Close()
	defer server.Close()
	go func() {
		r := newMsgReader(server)
		for {
			msg, err := r.next(140)
			if err != nil {
				return
			}
			server.WriteMessage(OpBinary, msg)
		}
	}()
	payload := make([]byte, 140)
	r := newMsgReader(client)
	b.SetBytes(140)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteMessage(OpBinary, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := r.next(140); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerSequentialWritesScratchReuse exercises the server's vectored
// write path (scratch header + net.Buffers): back-to-back unmasked writes of
// varying sizes must not corrupt each other through the reused scratch, the
// payload must arrive unmutated, and every deframed payload byte must come
// from the installed allocator (the engine installs the pool there).
func TestServerSequentialWritesScratchReuse(t *testing.T) {
	client, server := pair(t)
	sizes := []int{0, 1, 125, 126, 4096, 65535, 65536}
	done := make(chan error, 1)
	go func() {
		for _, size := range sizes {
			msg := bytes.Repeat([]byte{byte(size % 251)}, size)
			if err := server.WriteMessage(OpBinary, msg); err != nil {
				done <- err
				return
			}
			// The caller's payload must not have been mutated (the server
			// path writes it zero-copy, no masking).
			for i := range msg {
				if msg[i] != byte(size%251) {
					done <- errors.New("server write mutated the payload")
					return
				}
			}
		}
		done <- nil
	}()
	var allocBytes, total int
	r := &msgReader{c: client, sr: client.NewStreamReader(func(n int) []byte {
		allocBytes += n
		return make([]byte, n)
	})}
	for _, size := range sizes {
		total += size
		got, err := r.next(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for i := range got {
			if got[i] != byte(size%251) {
				t.Fatalf("size %d: payload corrupted at %d", size, i)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if allocBytes != total {
		t.Fatalf("payload allocator provided %d of %d payload bytes", allocBytes, total)
	}
}
