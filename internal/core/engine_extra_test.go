package core

import (
	"fmt"
	"testing"
	"time"

	"migratorydata/internal/cache"
	"migratorydata/internal/protocol"
)

func TestDeliverWithNoSubscribersIsCheapAndSafe(t *testing.T) {
	e := newTestEngine(t, Config{})
	for i := 0; i < 100; i++ {
		e.Deliver("nobody-listens", cache.Entry{Epoch: 1, Seq: uint64(i + 1)})
	}
	if got := e.Stats().Delivered; got != 0 {
		t.Fatalf("Delivered = %d with no subscribers", got)
	}
}

func TestSubscribeMultipleTopicsOneFrame(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe, Topics: []protocol.TopicPosition{
		{Topic: "a"}, {Topic: "b"}, {Topic: ""}, {Topic: "c"},
	}})
	sub.mustRecv(time.Second)

	pub := attachPeer(t, e)
	for _, topic := range []string{"a", "b", "c"} {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: topic, Payload: []byte(topic)})
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		m := sub.expectKind(protocol.KindNotify, time.Second)
		seen[m.Topic] = true
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestDuplicateSubscribeDeliversOnce(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	for i := 0; i < 2; i++ {
		sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "once"}}})
		sub.mustRecv(time.Second)
	}
	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "once"})
	sub.expectKind(protocol.KindNotify, time.Second)
	if m := sub.recv(150 * time.Millisecond); m != nil {
		t.Fatalf("duplicate delivery after double subscribe: %+v", m)
	}
}

func TestRetransmittedCounter(t *testing.T) {
	e := newTestEngine(t, Config{})
	pub := attachPeer(t, e)
	for i := 0; i < 3; i++ {
		pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "rt",
			Flags: protocol.FlagAckRequired})
		pub.expectKind(protocol.KindPubAck, time.Second)
	}
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "rt", Epoch: 1, Seq: 1}}})
	sub.mustRecv(time.Second)
	sub.expectKind(protocol.KindNotify, time.Second)
	sub.expectKind(protocol.KindNotify, time.Second)
	waitFor(t, time.Second, func() bool { return e.Stats().Retransmitted == 2 })
}

func TestResetMeters(t *testing.T) {
	e := newTestEngine(t, Config{})
	sub := attachPeer(t, e)
	sub.send(&protocol.Message{Kind: protocol.KindSubscribe,
		Topics: []protocol.TopicPosition{{Topic: "m"}}})
	sub.mustRecv(time.Second)
	pub := attachPeer(t, e)
	pub.send(&protocol.Message{Kind: protocol.KindPublish, Topic: "m"})
	sub.expectKind(protocol.KindNotify, time.Second)
	if e.Stats().BytesOut == 0 {
		t.Fatal("no traffic recorded")
	}
	e.ResetMeters()
	// Gbps restarts from a fresh window (bytes counter is cumulative).
	if g := e.Stats().Gbps; g > 1 {
		t.Fatalf("Gbps after reset = %v", g)
	}
}

func TestClientSendAfterCloseIsNoOp(t *testing.T) {
	e := newTestEngine(t, Config{})
	a, b := testPipe(t, "send-after-close", "server", 0)
	defer a.Close()
	c, err := e.Attach(NewRawFramed(b))
	if err != nil {
		t.Fatal(err)
	}
	c.CloseAsync()
	waitFor(t, time.Second, func() bool { return e.NumClients() == 0 })
	// Must not panic or deliver anything.
	c.Send(&protocol.Message{Kind: protocol.KindNotify, Topic: "x"})
	c.SendFrame([]byte{1, 2, 3})
}

func TestPinIndexProperties(t *testing.T) {
	// Stability: identical inputs map identically.
	for i := 0; i < 100; i++ {
		addr := fmt.Sprintf("10.1.2.%d:5000", i)
		if pinIndex(addr, uint64(i), 8) != pinIndex(addr, uint64(i), 8) {
			t.Fatal("pinIndex not deterministic")
		}
	}
	// Range: always within [0, n).
	for i := 0; i < 1000; i++ {
		idx := pinIndex(fmt.Sprintf("host-%d", i), uint64(i*7), 5)
		if idx < 0 || idx >= 5 {
			t.Fatalf("pinIndex out of range: %d", idx)
		}
	}
	// n <= 1 collapses to 0.
	if pinIndex("x", 1, 1) != 0 || pinIndex("x", 1, 0) != 0 {
		t.Fatal("degenerate n")
	}
	// Same address, different connection ids spread across threads (the
	// benchmark machines open thousands of connections from one host).
	seen := map[int]bool{}
	for id := uint64(0); id < 64; id++ {
		seen[pinIndex("203.0.113.1:40000", id, 8)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("same-host connections used only %d/8 threads", len(seen))
	}
}

func TestEngineManyClientsChurn(t *testing.T) {
	e := newTestEngine(t, Config{IoThreads: 2, Workers: 2})
	const rounds = 5
	const clientsPerRound = 40
	for r := 0; r < rounds; r++ {
		conns := make([]interface{ Close() error }, 0, clientsPerRound)
		for i := 0; i < clientsPerRound; i++ {
			a, b := testPipe(t, fmt.Sprintf("churn-%d-%d", r, i), "server", 1024)
			if _, err := e.Attach(NewRawFramed(b)); err != nil {
				t.Fatal(err)
			}
			a.Write(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
				Topics: []protocol.TopicPosition{{Topic: "churn"}}}))
			conns = append(conns, a)
		}
		waitFor(t, 2*time.Second, func() bool { return e.NumClients() == clientsPerRound })
		for _, c := range conns {
			c.Close()
		}
		waitFor(t, 2*time.Second, func() bool { return e.NumClients() == 0 })
	}
	if got := e.Stats().Connects; got != rounds*clientsPerRound {
		t.Fatalf("Connects = %d, want %d", got, rounds*clientsPerRound)
	}
}

func BenchmarkEngineFanout1000Subscribers(b *testing.B) {
	e := New(Config{ServerID: "fan", IoThreads: 2, Workers: 2})
	defer e.Close()
	// 1000 subscribers on one topic over tiny pipes with drains.
	for i := 0; i < 1000; i++ {
		a, bb := testPipe(b, fmt.Sprintf("fan-%d", i), "server", 2048)
		if _, err := e.Attach(NewRawFramed(bb)); err != nil {
			b.Fatal(err)
		}
		a.Write(protocol.Encode(&protocol.Message{Kind: protocol.KindSubscribe,
			Topics: []protocol.TopicPosition{{Topic: "fan"}}}))
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := a.Read(buf); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	payload := make([]byte, 140)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Deliver("fan", cache.Entry{Epoch: 1, Seq: uint64(i + 1), Payload: payload})
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().Delivered)/float64(b.N), "deliveries/op")
}
