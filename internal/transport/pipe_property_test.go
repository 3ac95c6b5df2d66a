package transport

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
)

// TestPipeStreamIntegrity writes randomly-sized chunks through pipes of
// varied buffer sizes and checks the byte stream arrives intact and in
// order — the property the engine's framing depends on.
func TestPipeStreamIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bufSize := range []int{256, 1024, 4096, 64 << 10} {
		a, b, err := NewPipeSize(
			Addr{Net: "inproc", Address: "w"},
			Addr{Net: "inproc", Address: "r"},
			bufSize,
		)
		if err != nil {
			t.Fatal(err)
		}
		total := 256 * 1024
		data := make([]byte, total)
		rng.Read(data)

		go func(a net.Conn, data []byte) {
			sent := 0
			for sent < len(data) {
				chunk := rng.Intn(5000) + 1
				if sent+chunk > len(data) {
					chunk = len(data) - sent
				}
				if _, err := a.Write(data[sent : sent+chunk]); err != nil {
					return
				}
				sent += chunk
			}
			a.Close()
		}(a, data)

		got, err := io.ReadAll(b)
		if err != nil {
			t.Fatalf("buf %d: %v", bufSize, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("buf %d: stream corrupted (%d/%d bytes)", bufSize, len(got), len(data))
		}
		b.Close()
	}
}

// TestPipeSizeReachesSocket verifies the requested size is applied to the
// socket (read back smaller than the default) and that a request below the
// kernel's floor is rounded up, not refused.
func TestPipeSizeReachesSocket(t *testing.T) {
	def, peer := newTestPipe(t, "w", "r")
	defer def.Close()
	defer peer.Close()
	a, b, err := NewPipeSize(Addr{"inproc", "w"}, Addr{"inproc", "r"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if small, dflt := sendBuffer(t, a), sendBuffer(t, def); small <= 0 || small >= dflt {
		t.Fatalf("SO_SNDBUF = %d after asking for 1, default %d", small, dflt)
	}
	msg := bytes.Repeat([]byte{7}, 200)
	go a.Write(msg)
	got := make([]byte, 200)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("smallest pipe corrupted data")
	}
}

// TestPipeBidirectionalConcurrent exercises simultaneous traffic in both
// directions (the engine reads and writes concurrently on every client).
func TestPipeBidirectionalConcurrent(t *testing.T) {
	a, b := newTestPipe(t, "x", "y")
	defer a.Close()
	defer b.Close()
	const total = 1 << 20
	errc := make(chan error, 2)
	// pump streams `total` random bytes w -> r in random chunks and
	// verifies the received stream matches.
	pump := func(w, r net.Conn, seed int64) {
		data := make([]byte, total)
		rand.New(rand.NewSource(seed)).Read(data)
		go func() {
			rng := rand.New(rand.NewSource(seed + 1))
			sent := 0
			for sent < total {
				n := rng.Intn(8000) + 1
				if sent+n > total {
					n = total - sent
				}
				if _, err := w.Write(data[sent : sent+n]); err != nil {
					return
				}
				sent += n
			}
		}()
		got := make([]byte, total)
		if _, err := io.ReadFull(r, got); err != nil {
			errc <- err
			return
		}
		if !bytes.Equal(got, data) {
			errc <- io.ErrUnexpectedEOF
			return
		}
		errc <- nil
	}
	go pump(a, b, 11) // a -> b
	go pump(b, a, 22) // b -> a, concurrently
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
