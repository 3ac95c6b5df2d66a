package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
)

// payloadHeader is the self-describing prefix of every payload: the
// message's index within its topic (8 bytes) and the topic index (4).
const payloadHeader = 12

// refBlock is the size of the seeded byte block payload bodies are cut
// from. Larger than any payload, small enough to stay cache-resident on
// the generator.
const refBlock = 64 << 10

// refStream is the seeded reference stream: the payload of message n of
// topic t is a pure function of (seed, t, n), so the publisher generates
// it and every subscriber re-derives it independently to verify what the
// server delivered, byte for byte.
type refStream struct {
	block []byte
	salt  uint64
}

func newRefStream(seed int64) *refStream {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d696772))
	r := &refStream{block: make([]byte, refBlock), salt: rng.Uint64()}
	for i := 0; i < len(r.block); i += 8 {
		binary.LittleEndian.PutUint64(r.block[i:], rng.Uint64())
	}
	return r
}

// bodyAt returns the reference body of size bytes for message (topic, n).
func (r *refStream) bodyAt(topic uint32, n uint64, size int) []byte {
	// splitmix64 finalizer over (salt, topic, n): consecutive messages land
	// on unrelated offsets.
	x := r.salt ^ (uint64(topic)<<40 + n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	off := int(x % uint64(len(r.block)-size))
	return r.block[off : off+size]
}

// fill writes the reference payload of message (topic, n) into dst, whose
// length is the payload size (at least payloadHeader).
func (r *refStream) fill(dst []byte, topic uint32, n uint64) {
	binary.LittleEndian.PutUint64(dst, n)
	binary.LittleEndian.PutUint32(dst[8:], topic)
	copy(dst[payloadHeader:], r.bodyAt(topic, n, len(dst)-payloadHeader))
}

// verify checks a delivered payload against the reference stream and
// returns the message index it carries. ok is false for a payload that is
// truncated, names another topic, or differs from the reference in any byte.
func (r *refStream) verify(p []byte, topic uint32) (n uint64, ok bool) {
	if len(p) < payloadHeader {
		return 0, false
	}
	n = binary.LittleEndian.Uint64(p)
	if binary.LittleEndian.Uint32(p[8:]) != topic {
		return n, false
	}
	return n, bytes.Equal(p[payloadHeader:], r.bodyAt(topic, n, len(p)-payloadHeader))
}

// verdict classifies one delivery against a subscription's history.
type verdict uint8

const (
	deliveredNew verdict = iota // the next message, in order
	deliveredDup                // a message this subscription already has (allowed, §3)
)

// checker is the reference model of one subscription: per-topic strictly
// increasing (epoch, seq), and — through the message index every payload
// carries — gap-free delivery that survives drops, resumes and coordinator
// changes (where seq restarts and cannot witness a gap by itself).
// A checker belongs to its subscriber's reader goroutine.
type checker struct {
	epoch   uint32
	seq     uint64
	next    uint64 // index of the next message expected
	started bool

	gaps       int64 // messages skipped: the reliability contract broken
	order      int64 // a new message whose (epoch, seq) did not advance
	duplicates int64 // re-deliveries (resume overlap, publisher retry): allowed
}

// observe files one delivery carrying message index n at position
// (epoch, seq).
func (c *checker) observe(epoch uint32, seq uint64, n uint64) verdict {
	if c.started && n < c.next {
		// Everything below next was delivered (or already counted as a gap):
		// this is a re-delivery, whatever position it carries.
		c.duplicates++
		return deliveredDup
	}
	advanced := epoch > c.epoch || (epoch == c.epoch && seq > c.seq)
	if c.started {
		if !advanced {
			c.order++
		}
		if n > c.next {
			c.gaps += int64(n - c.next)
		}
	}
	c.started = true
	if advanced {
		c.epoch, c.seq = epoch, seq
	}
	c.next = n + 1
	return deliveredNew
}
