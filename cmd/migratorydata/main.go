// Command migratorydata runs a MigratoryData server.
//
// Single node (the paper's §4 engine):
//
//	migratorydata -listen :8800
//
// In-process cluster (the paper's §5 deployment; N members in one process,
// each with its own listener on consecutive ports):
//
//	migratorydata -listen :8800 -cluster 3
//
// Clients connect over WebSocket by default (-mode raw for raw framing).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"migratorydata/internal/capture"
	"migratorydata/internal/seglog"
	"migratorydata/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":8800", "listen address (host:port); cluster members use consecutive ports")
		mode         = flag.String("mode", "ws", "client framing: ws or raw")
		clusterSize  = flag.Int("cluster", 1, "number of cluster members to run in this process (1 = single node)")
		ioThreads    = flag.Int("iothreads", 0, "I/O threads per member (0 = GOMAXPROCS)")
		workers      = flag.Int("workers", 0, "worker threads per member (0 = GOMAXPROCS)")
		groups       = flag.Int("topic-groups", 100, "topic groups (cache/coordinator sharding)")
		cacheCap     = flag.Int("cache", 1024, "history cache entries per topic")
		batchDelay   = flag.Duration("batch-delay", 0, "output batching delay (0 = off)")
		batchBytes   = flag.Int("batch-bytes", 32768, "output batching size trigger")
		conflation   = flag.Duration("conflation", 0, "per-topic conflation interval (0 = off)")
		egressBudget = flag.Int("egress-budget", 0, "per-client egress byte budget for slow-consumer protection (0 = default 1MiB; negative is rejected, protection is always on)")
		dataDir      = flag.String("data-dir", "", "durable history directory: crash-safe segment log, replayed at startup (single node only; off by default)")
		fsyncPolicy  = flag.String("fsync", "interval", "segment-log fsync policy: interval (default, 100ms), never, always, or a duration like 250ms")
		statsEvery   = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
		recordPath   = flag.String("record", "", "record all client traffic to this capture file (replay with mdreplay; off by default)")
		metricsAddr  = flag.String("metrics", "", "serve Prometheus metrics on this address at /metrics (off by default)")
		verbose      = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
		Level: map[bool]slog.Level{true: slog.LevelDebug, false: slog.LevelInfo}[*verbose],
	}))

	fsync, err := seglog.ParsePolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -fsync %q: %v\n", *fsyncPolicy, err)
		os.Exit(1)
	}
	if *dataDir != "" && *clusterSize > 1 {
		fmt.Fprintln(os.Stderr, "-data-dir is single-node only: cluster durability is replication, not a local log")
		os.Exit(1)
	}

	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -listen %q: %v\n", *listen, err)
		os.Exit(1)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad port %q: %v\n", portStr, err)
		os.Exit(1)
	}

	// Traffic recording (-record): one capture file taps every member's
	// ingest/egress spine. Nil recorder (the default) costs the hot path a
	// single nil-check branch.
	var recorder *capture.Recorder
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot create -record file: %v\n", err)
			os.Exit(1)
		}
		recorder, err = capture.NewRecorder(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot start recorder: %v\n", err)
			os.Exit(1)
		}
		logger.Info("recording traffic", "file", *recordPath)
	}

	memberCfg := func(i int) server.Config {
		return server.Config{
			ID:                 fmt.Sprintf("server-%d", i+1),
			ListenNetwork:      "tcp",
			ListenAddr:         net.JoinHostPort(host, strconv.Itoa(basePort+i)),
			Mode:               *mode,
			IoThreads:          *ioThreads,
			Workers:            *workers,
			TopicGroups:        *groups,
			CacheCapacity:      *cacheCap,
			BatchMaxBytes:      *batchBytes,
			BatchMaxDelay:      *batchDelay,
			ConflationInterval: *conflation,
			EgressBudgetBytes:  *egressBudget,
			DataDir:            *dataDir,
			Fsync:              fsync,
			Recorder:           recorder,
			Logger:             logger,
		}
	}

	var servers []*server.Server
	if *clusterSize <= 1 {
		srv, err := server.Open(memberCfg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		servers = append(servers, srv)
		logger.Info("single-node server listening", "addr", srv.Addr(), "mode", *mode)
		if *dataDir != "" {
			logger.Info("durable history enabled", "data_dir", *dataDir, "fsync", fsync.String())
		}
	} else {
		members := make([]server.Config, *clusterSize)
		for i := range members {
			members[i] = memberCfg(i)
		}
		clu, err := server.NewCluster(server.ClusterSpec{Members: members})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := clu.WaitReady(10 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		servers = clu.Servers
		for _, s := range servers {
			logger.Info("cluster member listening", "id", s.ID(), "addr", s.Addr(), "mode", *mode)
		}
	}

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for range t.C {
				for _, s := range servers {
					st := s.Stats()
					logger.Info("stats", "id", s.ID(),
						"connections", st.Connections,
						"published", st.Published,
						"delivered", st.Delivered,
						"deliver_events_routed", st.DeliverRouted,
						"deliver_events_skipped", st.DeliverSkipped,
						"fanout_events", st.FanoutEvents,
						"io_flushes", st.IOFlushes,
						"io_flush_bytes", st.IOFlushBytes,
						"cache_topics", st.CacheTopics,
						"cache_entries", st.CacheEntries,
						"cache_bytes", st.CacheBytes,
						"egress_queue_bytes", st.EgressQueueBytes,
						"slow_consumers", st.SlowConsumers,
						"pressure_drops", st.PressureDrops,
						"pressure_disconnects", st.PressureDisconnects,
						"gbps", fmt.Sprintf("%.3f", st.Gbps),
						"cpu", fmt.Sprintf("%.1f%%", st.CPUUtilized*100))
					if *dataDir != "" {
						logger.Info("seglog-stats", "id", s.ID(),
							"seglog_appends", st.SeglogAppends,
							"seglog_appended_bytes", st.SeglogAppendedBytes,
							"seglog_flushes", st.SeglogFlushes,
							"seglog_fsyncs", st.SeglogFsyncs,
							"seglog_segments", st.SeglogSegments,
							"seglog_disk_bytes", st.SeglogDiskBytes,
							"seglog_staged_bytes", st.SeglogStagedBytes,
							"seglog_failed", st.SeglogFailed)
					}
					if n := s.Node(); n != nil {
						cs := n.Stats()
						logger.Info("cluster-stats", "id", s.ID(),
							"forwarded", cs.Forwarded,
							"replicated", cs.Replicated,
							"takeovers", cs.Takeovers,
							"local_deliveries", cs.LocalDeliveries,
							"cluster_payloads_forwarded", cs.PayloadsForwarded,
							"cluster_payloads_suppressed", cs.PayloadsSuppressed)
					}
				}
			}
		}()
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", server.MetricsHandler(servers...))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("metrics endpoint failed", "addr", *metricsAddr, "err", err)
			}
		}()
		logger.Info("serving metrics", "addr", *metricsAddr, "path", "/metrics")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	for _, s := range servers {
		s.Close()
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			logger.Error("closing recorder", "err", err)
		}
	}
}
