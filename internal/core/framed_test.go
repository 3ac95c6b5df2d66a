package core

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestUnprotectedWriteBlocksUntilDrained: with overload protection off
// there is no carry, so a write to a full socket still blocks; once the
// reader drains, every byte arrives wire-exact and the write succeeds.
func TestUnprotectedWriteBlocksUntilDrained(t *testing.T) {
	reader, server := testPipe(t, "reader", "server", 1)
	defer reader.Close()
	f := NewRawFramed(server)
	defer f.Close()
	if _, err := f.PollConn(); err != nil {
		t.Fatal(err)
	}
	batch := make([]byte, 1<<20) // far past the smallest socket buffers
	for i := range batch {
		batch[i] = byte(i*31 + i/253)
	}
	done := make(chan error, 1)
	go func() { done <- f.WriteBatch(batch) }()
	select {
	case err := <-done:
		t.Fatalf("WriteBatch returned (err=%v) with a full socket and no reader", err)
	case <-time.After(50 * time.Millisecond):
	}
	got := make([]byte, len(batch))
	if _, err := io.ReadFull(reader, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WriteBatch after the drain: %v", err)
	}
	if !bytes.Equal(got, batch) || f.StalledBytes() != 0 {
		t.Fatalf("wire bytes differ from the batch (stalled %d)", f.StalledBytes())
	}
}
