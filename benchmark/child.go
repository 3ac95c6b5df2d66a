package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"migratorydata/internal/cluster"
	"migratorydata/internal/core"
	"migratorydata/server"
)

// The server child is this same binary started with -child. It is built
// only from the public server package and is driven over a line protocol:
// one command per line on stdin, one reply line on stdout.
//
//	stats      → childStats as JSON
//	settle     → collect garbage and return freed memory to the OS, then stats
//	crash <i>  → fail-stop cluster member i, reply "ok"
//	quit       → shut down and exit
//
// End of stdin also exits, so a dead parent never leaves a child behind.

// childStats is the child's reply to "stats": engine and cluster counters
// per member, plus the process's own CPU time and resident set. CPU comes
// from getrusage rather than /proc/<pid>/stat: same kernel accounting, but
// microseconds instead of 10 ms clock ticks.
type childStats struct {
	Engines []core.Stats           `json:"engines"`
	Cluster []cluster.ClusterStats `json:"cluster,omitempty"`
	// Coordinated is how many topic groups each member sequences.
	Coordinated []int `json:"coordinated,omitempty"`
	CPUus       int64 `json:"cpu_us"`
	RSSkB       int64 `json:"rss_kb"`
	// ScrapeUs is how long the Engine.Stats() calls behind this reply took:
	// the cost of one metrics scrape at this connection count and load.
	ScrapeUs   float64 `json:"scrape_us"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

func memberConfig(id, framing string) server.Config {
	return server.Config{
		ID:            id,
		ListenNetwork: "tcp",
		ListenAddr:    "127.0.0.1:0",
		Mode:          framing,
		IoThreads:     engineIoThreads,
		Workers:       engineWorkers,
		TopicGroups:   engineTopicGroups,
		CacheCapacity: engineCacheCapacity,
	}
}

// childMain runs the server child and never returns.
func childMain(framing string, members int) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		os.Exit(1)
	}
	var servers []*server.Server
	var clu *server.Cluster
	if members <= 1 {
		srv, err := server.Open(memberConfig("bench-0", framing))
		if err != nil {
			fail(err)
		}
		if err := srv.Start(); err != nil {
			fail(err)
		}
		servers = []*server.Server{srv}
	} else {
		spec := server.ClusterSpec{
			SessionTTL: clusterSessionTTL,
			TickEvery:  clusterTickEvery,
			// Survivors of the crash check may be leaderless for a while
			// (the two of them can need several election rounds); they must
			// not mistake that for a partition and fence their clients off.
			PartitionGrace: failoverDeadline,
			AckCopies:      clusterAckCopies,
			Seed:           clusterSeed,
		}
		for i := 0; i < members; i++ {
			spec.Members = append(spec.Members, memberConfig("bench-"+strconv.Itoa(i), framing))
		}
		var err error
		if clu, err = server.NewCluster(spec); err != nil {
			fail(err)
		}
		if err := clu.WaitReady(10 * time.Second); err != nil {
			fail(err)
		}
		servers = clu.Servers
	}
	live := make([]bool, len(servers))
	addrs := make([]string, len(servers))
	for i, s := range servers {
		live[i] = true
		addrs[i] = s.Addr()
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(line string) {
		if _, err := out.WriteString(line + "\n"); err != nil {
			os.Exit(1)
		}
		if err := out.Flush(); err != nil {
			os.Exit(1) // parent gone
		}
	}
	reply("READY " + strings.Join(addrs, ","))

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(strings.TrimSpace(in.Text()), " ")
		switch cmd {
		case "stats", "settle":
			if cmd == "settle" {
				debug.FreeOSMemory() // runs a full collection first
			}
			st := childStats{GoMaxProcs: runtime.GOMAXPROCS(0)}
			t0 := time.Now()
			for i, s := range servers {
				if !live[i] {
					st.Engines = append(st.Engines, core.Stats{})
					continue
				}
				st.Engines = append(st.Engines, s.Stats())
			}
			st.ScrapeUs = float64(time.Since(t0)) / 1e3
			if clu != nil {
				for i, s := range servers {
					if !live[i] {
						st.Cluster = append(st.Cluster, cluster.ClusterStats{})
						st.Coordinated = append(st.Coordinated, 0)
						continue
					}
					st.Cluster = append(st.Cluster, s.Node().Stats())
					st.Coordinated = append(st.Coordinated, len(s.Node().CoordinatedGroups()))
				}
			}
			st.CPUus = selfCPUus()
			st.RSSkB = selfRSSkB()
			b, err := json.Marshal(st)
			if err != nil {
				fail(err)
			}
			reply(string(b))
		case "crash":
			i, err := strconv.Atoi(arg)
			if err != nil || clu == nil || i < 0 || i >= len(servers) || !live[i] {
				reply("error bad crash target " + arg)
				continue
			}
			live[i] = false
			clu.Crash(i)
			reply("ok")
		case "quit":
			os.Exit(0)
		default:
			reply("error unknown command " + cmd)
		}
	}
	os.Exit(0)
}

// selfCPUus is the process's user+system CPU time so far.
func selfCPUus() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) int64 { return int64(t.Sec)*1e6 + int64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfRSSkB reads VmRSS from /proc/self/status (0 where there is no /proc).
func selfRSSkB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
