// Package migratorydata is a from-scratch Go reproduction of "Reliable
// Messaging to Millions of Users with MigratoryData" (Rotaru, Olariu,
// Onica, Rivière — Middleware Industry '17, arXiv:1712.09876).
//
// The public API lives in the client and server subpackages:
//
//   - migratorydata/server — the notification server: the vertically
//     scalable single-node engine (IoThreads + Workers + sharded history
//     cache, paper §4) and the replicated cluster (coordinator-based total
//     ordering, replication with interest-aware payload tiering, failure
//     recovery, paper §5).
//   - migratorydata/client — the client SDK: topic subscription with
//     ordered delivery, missed-message recovery on reconnection, server
//     blacklisting with truncated exponential back-off, duplicate
//     filtering, and at-least-once publication (paper §3, §5.2.3).
//
// Everything else is internal:
//
//   - internal/core — the two-layer engine with fixed client→thread
//     pinning, the topic→worker delivery index, batching and conflation;
//   - internal/cluster — coordinators, tiered replication driven by
//     gossiped interest digests, partition fencing, cache recovery;
//   - internal/coord and internal/consensus — the ZooKeeper-equivalent
//     coordination service on a Raft-style replicated log;
//   - internal/protocol, internal/cache, internal/queue,
//     internal/websocket, internal/transport, internal/hashing,
//     internal/backoff, internal/dedup — the wire format, history cache,
//     queues, and transports under the engine;
//   - internal/loadgen and internal/metrics — the in-process test harness
//     (Benchpub/Benchsub fleets, scenarios) and the measurement machinery.
//
// The documentation set under docs/ maps the code to the paper:
// docs/ARCHITECTURE.md (layer diagram, pinning rule, package→section
// table), docs/PROTOCOL.md (byte-level wire format and the (epoch, seq)
// ordering contract), and docs/BENCHMARKS.md (how to reproduce the
// evaluation). Timings come from benchmark/; invariants_test.go holds the
// counter invariants, bench_test.go the informational paper-shape runs.
package migratorydata
