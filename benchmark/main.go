// Command benchmark is the repository's one end-to-end benchmark: a
// single-process load generator that re-execs itself as the server child
// (public server package, loopback TCP), drives four named workloads
// against it, checks every delivery against a seeded reference stream and
// prints every metric by name with its unit. See README.md.
//
//	go run ./benchmark                         all four workloads, once
//	go run ./benchmark -workload fanout_ws     one workload
//	go run ./benchmark -trace 1                traced runs: per-layer metrics + trace files
//	go run ./benchmark -repeats 5 -out A.json  five runs per workload into a result file
//	go run ./benchmark -compare A.json B.json  verdict per metric × workload
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"migratorydata/internal/netpoll"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: one of the four names, or all")
		seed         = flag.Int64("seed", 1, "fixes payload bytes, topic order and churn victims")
		seconds      = flag.Float64("seconds", 30, "measured seconds per run, split between the paced and saturate phases")
		trace        = flag.Int("trace", 0, "1: traced run — generator spans, layer replay, per-layer metrics, benchmark/out/trace-<workload>.jsonl")
		repeats      = flag.Int("repeats", 1, "runs per workload; repeat i uses seed+i")
		out          = flag.String("out", "", "result file (default benchmark/out/result.json)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		child        = flag.Bool("child", false, "internal: run as the server child")
		canaryCPUs   = flag.String("canary", "", "internal: run as the canary on these CPUs")
		childFraming = flag.String("child-framing", "ws", "internal: child client framing")
		childMembers = flag.Int("child-members", 1, "internal: child cluster size")
	)
	flag.Parse()
	if *child {
		childMain(*childFraming, *childMembers)
	}
	if *canaryCPUs != "" {
		canaryMain(*canaryCPUs)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if !netpoll.Supported() {
		fatal(errors.New("netpoll is not supported in this build: numbers must come from the production read path (epoll/kqueue), not the fallback reader"))
	}
	// The generator runs on half the cores at most and stays off the other
	// half, which belongs to the server child (see planCPUs).
	plan := planCPUs()
	runtime.GOMAXPROCS(max(1, runtime.NumCPU()/2))
	if plan.pinned() {
		if err := pinProcess(plan.generator); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: cannot pin CPUs (%v); running unpinned\n", err)
			plan = cpuPlan{}
		}
	}

	var selected []*workload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds < 5 || *repeats < 1 {
		fatal(errors.New("need -seconds ≥ 5 and -repeats ≥ 1"))
	}

	began := time.Now()
	rf := &resultFile{Provenance: newProvenance(*seed, *repeats, *seconds, plan)}
	var runErr error
series:
	for _, w := range selected {
		wbegan := time.Now()
		for i := 0; i < *repeats; i++ {
			opt := runOptions{seed: *seed + int64(i), seconds: *seconds, trace: *trace != 0, cpus: plan}
			res, err := runValid(w, opt)
			if err == nil && res.Counts["deliveries_received"] == 0 {
				err = fmt.Errorf("%s: the fleet received 0 deliveries", w.name)
			}
			if err != nil {
				runErr = err
				break series
			}
			res.print(os.Stdout)
			rf.Provenance.ChildMaxProcs = res.final.GoMaxProcs
			rf.Runs = append(rf.Runs, res)
		}
		rf.Provenance.WallPerWorkloadS[w.name] = time.Since(wbegan).Seconds()
	}
	rf.Provenance.WallTotalS = time.Since(began).Seconds()
	// A series that stops early keeps the runs it completed.
	if len(rf.Runs) > 0 {
		path := *out
		if path == "" {
			path = filepath.Join(outDir, "result.json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		if err := writeResultFile(path, rf); err != nil {
			fatal(err)
		}
		fmt.Printf("\nresult file: %s (wall %.1fs)\n", path, rf.Provenance.WallTotalS)
	}
	if runErr != nil {
		fatal(runErr)
	}
	// The machine-readable result of the last run is the last line.
	line, err := rf.Runs[len(rf.Runs)-1].driverJSON()
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

// runValid runs w. A run that fails a validity gate measured the generator
// or the host, not the server: it is discarded and repeated, never reported.
// After maxAttempts such runs in a row the machine is not quiet enough to
// measure on and the benchmark stops with the gate's name.
func runValid(w *workload, opt runOptions) (*runResult, error) {
	for attempt := 1; ; attempt++ {
		res, err := runWorkload(w, opt)
		var inv *errInvalidRun
		if errors.As(err, &inv) && attempt < maxAttempts {
			fmt.Fprintf(os.Stderr, "benchmark: %v — repeating the run\n", err)
			continue
		}
		if err != nil {
			return nil, err
		}
		if opt.trace {
			if err := finishTrace(w, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
}

// finishTrace computes the per-layer metrics of a traced run and writes its
// trace file.
func finishTrace(w *workload, res *runResult) error {
	if err := computeLayers(w, res, res.tr); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(outDir, "trace-"+w.name+".jsonl")
	res.TraceDropped = res.tr.dropped()
	return res.tr.writeJSONL(res.TraceFile)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
