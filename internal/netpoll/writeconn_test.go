package netpoll

import (
	"bytes"
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// unixPair returns both ends of an AF_UNIX stream socketpair: the writer
// as a RawConn (non-blocking, as the runtime keeps every socket) and the
// peer as a net.Conn the tests read only when they choose to.
func unixPair(t *testing.T) (w syscall.RawConn, peer net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn := func(fd int, name string) net.Conn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // FileConn dups the descriptor
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return rawConnOf(t, conn(fds[0], "writer")), conn(fds[1], "peer")
}

// pattern returns n bytes that vary with position and seed, so a
// misplaced or duplicated chunk does not compare equal.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i*7 + i/251 + seed) % 253)
	}
	return b
}

// drain reads everything the peer has buffered, stopping once the socket
// stays empty for 50 ms.
func drain(t *testing.T, peer net.Conn) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, 64<<10)
	for {
		_ = peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := peer.Read(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteConnReportsWhatThePeerReads fills a socket whose peer never
// reads: every call's n counts exactly the bytes that reached the peer,
// the call that ran out of room reports again, and the peer later reads
// the written prefixes back byte for byte.
func TestWriteConnReportsWhatThePeerReads(t *testing.T) {
	w, peer := unixPair(t)
	var sent []byte
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("socket never filled")
		}
		hdr, payload := pattern(10, i), pattern(1000, i+1)
		n, again, err := WriteConn(w, hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, append(hdr, payload...)[:n]...)
		if again {
			break
		}
		if n != len(hdr)+len(payload) {
			t.Fatalf("write %d: n=%d without again, want all %d bytes", i, n, len(hdr)+len(payload))
		}
	}
	if n, again, err := WriteConn(w, []byte("x"), nil); n != 0 || !again || err != nil {
		t.Fatalf("write to a full socket = (%d, %v, %v), want (0, true, nil)", n, again, err)
	}
	if got := drain(t, peer); !bytes.Equal(got, sent) {
		t.Fatalf("peer read %d bytes, differing from the %d the writes reported", len(got), len(sent))
	}
}

// TestWriteConnSplitsHeaderAndPayload makes the first writev end inside
// the header, then inside the payload; resending the exact unwritten
// suffix once the peer drains must reproduce header+payload on the wire.
func TestWriteConnSplitsHeaderAndPayload(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hdrLen, payLen int
		inHeader       bool
	}{
		{"ends_inside_header", 1 << 20, 64, true},
		{"ends_inside_payload", 14, 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, peer := unixPair(t)
			hdr, payload := pattern(tc.hdrLen, 1), pattern(tc.payLen, 2)
			want := append(append([]byte(nil), hdr...), payload...)
			n, again, err := WriteConn(w, hdr, payload)
			if err != nil || !again {
				t.Fatalf("first write = (%d, %v, %v), want a partial write", n, again, err)
			}
			if inHeader := n < len(hdr); n == 0 || inHeader != tc.inHeader {
				t.Fatalf("first write took %d bytes of a %d-byte header: not the split under test", n, len(hdr))
			}
			got := drain(t, peer)
			for len(got) < len(want) {
				if n < len(hdr) {
					hdr = hdr[n:]
				} else {
					hdr, payload = nil, payload[n-len(hdr):]
				}
				if n, _, err = WriteConn(w, hdr, payload); err != nil {
					t.Fatal(err)
				}
				got = append(got, drain(t, peer)...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("peer read %d bytes that differ from the %d-byte header+payload", len(got), len(want))
			}
		})
	}
}

// TestWriteConnClosedPeer: a peer that has gone is a write error, never a
// carryable again.
func TestWriteConnClosedPeer(t *testing.T) {
	w, peer := unixPair(t)
	peer.Close()
	n, again, err := WriteConn(w, []byte("hdr"), []byte("payload"))
	if err == nil || again || n != 0 {
		t.Fatalf("write to a closed peer = (%d, %v, %v), want an error", n, again, err)
	}
}

// TestWriteConnAllocatesNothing pins the pooled op: a write, full socket
// or not, makes no heap allocation.
func TestWriteConnAllocatesNothing(t *testing.T) {
	w, _ := unixPair(t)
	hdr, payload := pattern(8, 0), pattern(64, 1)
	if a := testing.AllocsPerRun(1000, func() {
		if _, _, err := WriteConn(w, hdr, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("WriteConn: %.1f allocs per call, want 0", a)
	}
}
