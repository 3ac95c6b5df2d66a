package server_test

import (
	"net"
	"testing"
	"time"

	"migratorydata/internal/loadgen"
	"migratorydata/internal/metrics"
	"migratorydata/internal/transport"
	"migratorydata/server"
)

// TestTCPClusterWithLoadgen runs the real deployment shape end to end: a
// 3-member cluster listening on TCP loopback in raw mode, with loadgen's
// Benchpub/Benchsub fleets driving load over actual sockets.
func TestTCPClusterWithLoadgen(t *testing.T) {
	clu, err := server.NewCluster(server.ClusterSpec{
		Members: []server.Config{
			{ID: "T-A", ListenNetwork: "tcp", ListenAddr: "127.0.0.1:0", Mode: "raw", IoThreads: 1, Workers: 1, TopicGroups: 16},
			{ID: "T-B", ListenNetwork: "tcp", ListenAddr: "127.0.0.1:0", Mode: "raw", IoThreads: 1, Workers: 1, TopicGroups: 16},
			{ID: "T-C", ListenNetwork: "tcp", ListenAddr: "127.0.0.1:0", Mode: "raw", IoThreads: 1, Workers: 1, TopicGroups: 16},
		},
		SessionTTL: 300 * time.Millisecond,
		TickEvery:  5 * time.Millisecond,
	})
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer clu.Close()
	if err := clu.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(clu.Servers))
	for i, s := range clu.Servers {
		addrs[i] = s.Addr()
	}

	attach := func(i int) (net.Conn, error) {
		return transport.Dial("tcp", addrs[i%len(addrs)])
	}
	hist := &metrics.Histogram{}
	topics := []string{"tcp-a", "tcp-b", "tcp-c"}
	bs, err := loadgen.StartBenchsub(loadgen.SubConfig{
		Connections: 30,
		Topics:      topics,
		Attach:      attach,
		Histogram:   hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bs.StartRecording()

	bp, err := loadgen.StartBenchpub(loadgen.PubConfig{
		Topics:      topics,
		Interval:    50 * time.Millisecond,
		PayloadSize: 140,
		Attach:      attach,
		Reliable:    true,
		Seed:        31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()

	deadline := time.Now().Add(15 * time.Second)
	for bs.Received() < 200 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if bs.Received() < 200 {
		t.Fatalf("received only %d notifications over TCP", bs.Received())
	}
	if bs.Gaps() != 0 {
		t.Fatalf("gaps over TCP = %d", bs.Gaps())
	}
	if hist.Count() == 0 {
		t.Fatal("no latency samples over TCP")
	}
	if s := hist.Snapshot(); s.Mean > 5000 {
		t.Fatalf("implausible TCP latency: %+v", s)
	}
}
