package main

import (
	"fmt"
	"time"
)

// Engine shape of the server child. Fixed, never derived from the machine:
// parent and change must always be measured under the same configuration.
// Batching and conflation stay off — the paper's evaluation configuration.
const (
	engineIoThreads     = 2
	engineWorkers       = 2
	engineTopicGroups   = 100
	engineCacheCapacity = 1024

	clusterAckCopies  = 2
	clusterSessionTTL = 300 * time.Millisecond
	clusterTickEvery  = 5 * time.Millisecond
	// clusterSeed is the child's own randomness, not a workload input. This
	// value makes the six topic groups' coordinators land 3/2/1 on members
	// 0/1/2, so the crash of member 1 takes two coordinators with it.
	clusterSeed = 6
)

// Limits shared by every workload.
const (
	// setupsPerRun is how many times a run sets up and times it; setup_s is
	// their median and the last set-up is the one measured on.
	setupsPerRun = 3

	// latencyLimit is the delivery deadline: a live delivery later than this
	// counts as a failed operation (choosing-metrics §1).
	latencyLimit = 50 * time.Millisecond
	// timingWindow is the width of the windows latency samples are filed
	// under by due time: the unit of the traced run's spans-on/spans-off
	// split and of the "typical window" figures printed beside each timing.
	timingWindow = 250 * time.Millisecond
	// maxAttempts is how often a run is tried before a validity gate that
	// keeps failing ends the benchmark; three attempts fit the three minutes
	// a caller may allow one run.
	maxAttempts = 3
	// lagGateNs is the validity gate on the generator itself: a paced phase
	// whose p99 publish lag exceeds it measured the generator, not the server.
	lagGateNs = int64(time.Millisecond)
	// quiesceTimeout bounds the wait for outstanding acks and deliveries
	// after a phase stops publishing.
	quiesceTimeout = 5 * time.Second
	// failoverDeadline is how long orphaned subscribers may take to resume
	// on a survivor after Cluster.Crash.
	failoverDeadline = 10 * time.Second
)

// workload is one row of the workload table. Every number is a constant:
// nothing is tuned at run time, so two commits always see identical load.
type workload struct {
	name string
	why  string

	framing      string // "ws" or "raw": client framing of every connection
	members      int    // 1: single server; 3: in-process cluster in the child
	topics       int
	subsPerTopic int
	pubConns     int
	payload      int // bytes
	rate         int // paced phase: publishes per second, all topics together
	window       int // closed loop: publishes in flight per topic

	// warmupPerTopic messages per topic are pushed closed-loop during
	// set-up, so rings, pools and interned topics are hot before timing.
	warmupPerTopic int

	// pacedShare of -seconds is spent in the paced phase, the rest in
	// saturate.
	pacedShare float64

	// churnPerSec subscribers per second are dropped client-side during the
	// paced phase, stay offline for churnOffline and resume with position.
	churnPerSec  int
	churnOffline time.Duration

	// crashCheck: the check step fail-stops member 1 and requires every
	// orphaned subscriber to resume on a survivor without a gap.
	crashCheck bool
}

func (w *workload) subscribers() int { return w.topics * w.subsPerTopic }
func (w *workload) topicName(i int) string {
	return fmt.Sprintf("bench/%s/%03d", w.name, i)
}

// workloads is the benchmark's permanent workload table (names never
// change; see README.md for the layer each one stresses).
var workloads = []workload{
	{
		name:    "fanout_ws",
		why:     "paper Table 1 shape: 4 topics x 64 WebSocket subscribers; egress does 64x the work of ingest (fan-out, ioThread writes, ws frames)",
		framing: "ws", members: 1, topics: 4, subsPerTopic: 64, pubConns: 1,
		payload: 140, rate: 800, window: 64, warmupPerTopic: 400, pacedShare: 2.0 / 3,
	},
	{
		name:    "unicast_raw",
		why:     "paper C10M shape scaled: 256 raw conns each sole subscriber of its own topic; one ingest per delivery and no websocket code at all",
		framing: "raw", members: 1, topics: 256, subsPerTopic: 1, pubConns: 2,
		payload: 512, rate: 5000, window: 64, warmupPerTopic: 64, pacedShare: 2.0 / 3,
	},
	{
		name:    "resume_churn",
		why:     "reliability: 4 topics x 32 ws subscribers while 8/s drop, stay offline 500 ms and resume with (epoch, seq); cache reads and connection churn",
		framing: "ws", members: 1, topics: 4, subsPerTopic: 32, pubConns: 1,
		payload: 140, rate: 400, window: 64, warmupPerTopic: 400, pacedShare: 0.8,
		churnPerSec: 8, churnOffline: 500 * time.Millisecond,
	},
	{
		name:    "cluster_fanout",
		why:     "paper Table 2 shape: 3-member cluster, AckCopies=2, 6 topics x 32 ws subscribers over all members; replication-before-ack, then a crash",
		framing: "ws", members: 3, topics: 6, subsPerTopic: 32, pubConns: 1,
		payload: 140, rate: 600, window: 64, warmupPerTopic: 300, pacedShare: 2.0 / 3,
		crashCheck: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
