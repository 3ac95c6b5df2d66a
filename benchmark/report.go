package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// outDir is where result and trace files go: inside the benchmark's own
// directory, never elsewhere in the repo.
const outDir = "benchmark/out"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate says who judges an end-to-end metric.
type gate int

const (
	// notGated: reported by name and printed by -compare without a verdict.
	// The metric does not repeat within any bound on this box (see README.md,
	// "Measured spreads"); BENCHMARK.json lists it under per_layer.
	notGated gate = iota
	// compareGated: judged by -compare only. BENCHMARK.json cannot carry it:
	// its end_to_end metrics must exist, and never be 0, on every workload.
	compareGated
	// driverGated: judged by -compare and in BENCHMARK.json's end_to_end list.
	driverGated
)

// metricDef describes a metric the benchmark reports.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	bound float64
	gate  gate
}

// endToEnd is the full list of end-to-end metrics (ISSUE 12's eleven).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, driverGated},
	{"delivery_p50_us", "us", "lower", 0.25, driverGated},
	{"delivery_p99_us", "us", "lower", 0.25, notGated},
	{"publish_ack_p50_us", "us", "lower", 0.25, driverGated},
	{"publish_ack_p99_us", "us", "lower", 0.25, notGated},
	{"peak_deliveries_per_s", "1/s", "higher", 0.25, driverGated},
	{"server_cpu_us_per_msg", "us", "lower", 0.25, driverGated},
	{"server_rss_mb", "MB", "lower", 0.10, driverGated},
	{"resume_catchup_p50_ms", "ms", "lower", 0.25, compareGated},
	{"resume_catchup_p99_ms", "ms", "lower", 0.25, notGated},
	{"failed_ops_ratio", "ratio", "lower", 0, compareGated},
}

func findMetric(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

// generatorReport says how well the generator itself behaved.
type generatorReport struct {
	LagP50us   float64 `json:"generator_lag_p50_us"`
	LagP99us   float64 `json:"generator_lag_p99_us"`
	LagMaxus   float64 `json:"generator_lag_max_us"`
	Offered    int     `json:"offered_publishes"`
	Achieved   int     `json:"achieved_publishes"`
	BacklogEnd int64   `json:"backlog_at_paced_end"`
	BacklogCap int64   `json:"backlog_gate"`
	IdleSubs   int     `json:"subscribers_without_delivery"`
	// StalledWindows of the paced phase's Windows are left out of every
	// figure: they overlap one of the HostGaps the canary reported.
	Windows        int `json:"timing_windows"`
	StalledWindows int `json:"stalled_windows"`
	HostGaps       int `json:"host_gaps"`
}

// runResult is one workload run, as written to result files.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	PacedS   float64 `json:"paced_s"`
	Traced   bool    `json:"traced"`

	Correct      bool             `json:"correct"`
	Attempted    int64            `json:"attempted"`
	Failed       int64            `json:"failed"`
	Failures     map[string]int64 `json:"failures"`
	FirstFailure string           `json:"first_failure,omitempty"`

	// Metrics holds the end-to-end metrics that apply to this workload; a
	// metric that does not apply is absent, never 0.
	Metrics map[string]metricValue `json:"metrics"`
	// Layers holds per-layer metrics (traced runs only).
	Layers map[string]metricValue `json:"layers,omitempty"`

	Timings   map[string]timing `json:"timings"`
	Generator generatorReport   `json:"generator"`
	Counts    map[string]int64  `json:"counts"`
	SetupS    []float64         `json:"setup_s_each"`
	WallS     float64           `json:"wall_s"`

	TraceFile    string `json:"trace_file,omitempty"`
	TraceDropped int64  `json:"trace_spans_dropped,omitempty"`

	tr         *tracer
	paced      pacedResult
	final      childStats
	scrapes    []childStats
	connectUs  []float64
	memberP50  []float64
	recoverMs  float64
	traceRatio float64
	satCPUus   float64 // child CPU per message over the saturate phase
}

// engineSums folds the per-member engine and cluster counters the ratios need.
type engineSums struct {
	published, delivered, retransmitted int64
	routed, fanoutEvents                int64
	flushes, flushBytes                 int64
	drops, disconnects                  int64
	replicated, payloads                int64
}

func sums(st childStats) (s engineSums) {
	for _, e := range st.Engines {
		s.published += e.Published
		s.delivered += e.Delivered
		s.retransmitted += e.Retransmitted
		s.routed += e.DeliverRouted
		s.fanoutEvents += e.FanoutEvents
		s.flushes += e.IOFlushes
		s.flushBytes += e.IOFlushBytes
		s.drops += e.PressureDrops
		s.disconnects += e.PressureDisconnects
	}
	for _, c := range st.Cluster {
		s.replicated += c.Replicated
		s.payloads += c.PayloadsForwarded
	}
	return s
}

// assemble turns what the phases measured into the run's result.
func (r *runState) assemble(setupS []float64, paced pacedResult, sat saturateResult, recoverMs float64, final childStats) *runResult {
	w := r.w
	res := &runResult{
		Workload: w.name, Seed: r.opt.seed, Seconds: r.opt.seconds, Traced: r.opt.trace,
		PacedS:  paced.duration.Seconds(),
		Metrics: map[string]metricValue{}, Timings: map[string]timing{},
		Failures: map[string]int64{}, Counts: map[string]int64{},
		SetupS: setupS, paced: paced, final: final, recoverMs: recoverMs, satCPUus: sat.cpuUs,
	}
	r.mu.Lock()
	res.scrapes = slices.Clone(r.scrapes)
	resumeUs := slices.Clone(r.resumeUs)
	res.FirstFailure = r.firstFail
	r.mu.Unlock()

	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: findMetric(name).unit}
	}
	set("setup_s", median(setupS))

	// Windows in which the machine stood still are out of every timing. In a
	// traced run only the untraced (even) seconds give the end-to-end latency;
	// the traced (odd) ones give the overhead ratio.
	valid := paced.valid
	untraced := valid
	if r.opt.trace {
		untraced = func(offset int64) bool { return valid(offset) && !spansOnAt(offset) }
	}
	del := r.delivery.Load().summarize(untraced)
	res.Timings["delivery"] = del
	set("delivery_p50_us", del.P50us)
	set("delivery_p99_us", del.Tailus)
	if r.opt.trace {
		on := r.delivery.Load().summarize(func(offset int64) bool { return valid(offset) && spansOnAt(offset) })
		if del.P50us > 0 && on.Samples > 0 {
			res.traceRatio = on.P50us / del.P50us
		}
	}
	ack := r.acks.Load().summarize(valid)
	res.Timings["publish_ack"] = ack
	set("publish_ack_p50_us", ack.P50us)
	set("publish_ack_p99_us", ack.Tailus)
	set("peak_deliveries_per_s", sat.peak)
	res.Counts["peak_samples"] = int64(sat.samples)

	b, a := sums(paced.before), sums(paced.after)
	msgs := (a.published - b.published) + (a.delivered - b.delivered)
	if msgs > 0 {
		set("server_cpu_us_per_msg", float64(paced.after.CPUus-paced.before.CPUus)/float64(msgs))
	}
	set("server_rss_mb", float64(paced.settled.RSSkB)/1024)

	if w.churnPerSec > 0 {
		ms := make([]float64, len(resumeUs))
		for i, us := range resumeUs {
			ms[i] = us / 1e3
		}
		t := summarizeSamples(ms) // fields are in ms here despite their names
		res.Timings["resume_catchup_ms"] = t
		set("resume_catchup_p50_ms", t.P50us)
		set("resume_catchup_p99_ms", t.Tailus)
	}
	for m := range r.memberDelivery {
		res.memberP50 = append(res.memberP50, r.memberDelivery[m].Load().summarize(untraced).P50us)
	}
	for _, s := range r.subs {
		res.connectUs = append(res.connectUs, float64(s.connectNs)/1e3)
	}

	// Failed operations against operations attempted.
	v := r.verdicts()
	f := sums(final)
	var sent, unacked, failedAcks, strayAcks, retried int64
	for _, p := range r.pubs {
		sent += p.sent.Load()
		unacked += p.sent.Load() - p.acked.Load()
		failedAcks += p.failedAcks.Load()
		strayAcks += p.strayAcks.Load()
		retried += p.retried
	}
	var expected int64
	for i := range r.topics {
		expected += int64(r.topics[i].published.Load()) * int64(w.subsPerTopic)
	}
	connects := int64(len(r.subs)+len(r.pubs)) + r.resumes.Load()
	res.Failures = map[string]int64{
		"reliable_gaps":        v.gaps,
		"undelivered":          v.missing,
		"order_violations":     v.order,
		"payload_mismatches":   v.mismatches,
		"unacked_publishes":    unacked,
		"failed_publishes":     failedAcks,
		"failed_connects":      r.failedConnects.Load(),
		"unexpected_closes":    r.unexpectedCloses.Load(),
		"late_deliveries":      r.delivery.Load().summarize(valid).Late,
		"pressure_disconnects": f.disconnects,
	}
	for _, n := range res.Failures {
		res.Failed += n
	}
	res.Attempted = sent + expected + connects
	res.Correct = res.Failed == 0
	set("failed_ops_ratio", float64(res.Failed)/float64(res.Attempted))

	res.Counts["published"] = sent
	res.Counts["deliveries_expected"] = expected
	res.Counts["deliveries_received"] = r.received()
	res.Counts["duplicates"] = v.duplicates
	res.Counts["resumes"] = r.resumes.Load()
	res.Counts["republished"] = retried
	res.Counts["stray_acks"] = strayAcks
	for m, groups := range paced.after.Coordinated {
		res.Counts[fmt.Sprintf("groups_coordinated_by_member_%d", m)] = int64(groups)
	}
	res.Counts["retransmitted"] = f.retransmitted

	idle := 0
	for _, s := range r.subs {
		if s.received.Load() == 0 {
			idle++
		}
	}
	window := min(paced.duration.Seconds(), 5)
	lag := r.lag.Load().summarize(valid)
	res.Generator = generatorReport{
		LagP50us: lag.P50us, LagP99us: lag.Tailus, LagMaxus: lag.Maxus,
		Offered: paced.offered, Achieved: paced.achieved,
		BacklogEnd: paced.backlogEnd,
		BacklogCap: int64(0.01 * window * float64(w.rate*w.subsPerTopic)),
		IdleSubs:   idle,
		Windows:    len(paced.stalled),
		HostGaps:   paced.gaps,
	}
	for _, stalled := range paced.stalled {
		if stalled {
			res.Generator.StalledWindows++
		}
	}
	return res
}

// invalid names the first validity gate the run failed ("" if none): such
// a run measured the generator and is repeated rather than reported.
func (res *runResult) invalid() string {
	g := res.Generator
	switch {
	case g.LagP99us > float64(lagGateNs)/1e3:
		return fmt.Sprintf("generator_lag_p99_us = %.0f > %d", g.LagP99us, lagGateNs/1000)
	case float64(g.Offered-g.Achieved) > 0.005*float64(g.Offered):
		return fmt.Sprintf("achieved %d of %d offered publishes (more than 0.5%% short)", g.Achieved, g.Offered)
	case g.BacklogEnd > g.BacklogCap:
		return fmt.Sprintf("growing backlog: %d deliveries owed at the end of the paced phase (gate %d)", g.BacklogEnd, g.BacklogCap)
	case g.IdleSubs > 0:
		return fmt.Sprintf("%d subscribers received no delivery", g.IdleSubs)
	case float64(g.StalledWindows) > maxStalledShare*float64(g.Windows):
		return fmt.Sprintf("a CPU stood still in %d of %d windows of the paced phase", g.StalledWindows, g.Windows)
	}
	return ""
}

// driverLine is the object the driver reads from the last line of stdout.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverJSON renders the contract's result line: every gated end-to-end
// metric for an untraced run, every per-layer metric for a traced one
// (0 where a layer does no work in this workload).
func (res *runResult) driverJSON() (string, error) {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if res.Traced {
		for _, d := range layerDefs {
			mv, ok := res.Layers[d.name]
			if !ok {
				mv = metricValue{Unit: d.unit}
			}
			line.Metrics[d.name] = mv
		}
	} else {
		for _, d := range endToEnd {
			if d.gate != driverGated {
				continue
			}
			mv, ok := res.Metrics[d.name]
			if !ok {
				return "", fmt.Errorf("%s: gated metric %s was not measured", res.Workload, d.name)
			}
			line.Metrics[d.name] = mv
		}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// print writes every metric by name with its unit.
func (res *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%g  traced=%v  wall=%.1fs\n", res.Workload, res.Seed, res.Seconds, res.Traced, res.WallS)
	fmt.Fprintf(w, "end-to-end (paced %.1fs, open loop; peak from the closed loop):\n", res.PacedS)
	for _, d := range endToEnd {
		mv, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		extra := ""
		switch d.name {
		case "delivery_p99_us":
			extra = tailNote(res.Timings["delivery"])
		case "publish_ack_p99_us":
			extra = tailNote(res.Timings["publish_ack"])
		case "resume_catchup_p99_ms":
			t := res.Timings["resume_catchup_ms"]
			extra = fmt.Sprintf("  (p%g of %d resumes)", t.TailPct, t.Samples)
		case "failed_ops_ratio":
			extra = fmt.Sprintf("  (%d failed of %d attempted)", res.Failed, res.Attempted)
		case "setup_s":
			extra = fmt.Sprintf("  (median of %d set-ups)", len(res.SetupS))
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-6s%s\n", d.name, mv.Value, mv.Unit, extra)
	}
	g := res.Generator
	fmt.Fprintf(w, "generator: lag p50 %.1f us, p99 %.1f us, max %.1f us; offered %d, achieved %d; backlog at paced end %d (gate %d)\n",
		g.LagP50us, g.LagP99us, g.LagMaxus, g.Offered, g.Achieved, g.BacklogEnd, g.BacklogCap)
	if g.StalledWindows > 0 {
		fmt.Fprintf(w, "host: a CPU stood still %d times during the paced phase; the %d of %d windows that overlap are left out\n",
			g.HostGaps, g.StalledWindows, g.Windows)
	}
	var fails []string
	for k, n := range res.Failures {
		if n > 0 {
			fails = append(fails, fmt.Sprintf("%s=%d", k, n))
		}
	}
	sort.Strings(fails)
	if len(fails) > 0 {
		fmt.Fprintf(w, "FAILED OPERATIONS: %s", strings.Join(fails, " "))
		if res.FirstFailure != "" {
			fmt.Fprintf(w, "  (first: %s)", res.FirstFailure)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "counts: published %d, delivered %d of %d, duplicates %d (allowed), resumes %d, retransmitted %d\n",
		res.Counts["published"], res.Counts["deliveries_received"], res.Counts["deliveries_expected"],
		res.Counts["duplicates"], res.Counts["resumes"], res.Counts["retransmitted"])
	if len(res.Layers) > 0 {
		fmt.Fprintln(w, "per-layer (traced run; layer replay + child counter deltas):")
		for _, d := range layerDefs {
			if mv, ok := res.Layers[d.name]; ok {
				fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, mv.Value, mv.Unit)
			}
		}
		if res.TraceFile != "" {
			fmt.Fprintf(w, "trace: %s (%d spans dropped)\n", res.TraceFile, res.TraceDropped)
		}
	}
}

// tailNote says which percentile a tail metric is and over how many samples,
// with the typical window's figures beside it.
func tailNote(t timing) string {
	return fmt.Sprintf("  (p%g of %d samples; typical %v window: p50 %.1f, p%g %.1f)",
		t.TailPct, t.Samples, timingWindow, t.WindowP50us, t.WindowTailPct, t.WindowTailus)
}

// provenance records where and how a result file was produced.
type provenance struct {
	Commit             string             `json:"commit"`
	Time               string             `json:"time"`
	GoVersion          string             `json:"go_version"`
	Kernel             string             `json:"kernel"`
	NProc              int                `json:"nproc"`
	GeneratorMaxProcs  int                `json:"generator_gomaxprocs"`
	ChildMaxProcs      int                `json:"child_gomaxprocs"`
	GeneratorCPUs      []int              `json:"generator_cpus"` // empty: not pinned
	ChildCPUs          []int              `json:"child_cpus"`
	EngineShape        map[string]int     `json:"engine_shape"`
	BatchingConflation string             `json:"batching_conflation"`
	CrossedLoopback    bool               `json:"traffic_crossed_loopback"`
	Seed               int64              `json:"seed"`
	Repeats            int                `json:"repeats"`
	Seconds            float64            `json:"seconds_per_run"`
	SetupsPerRun       int                `json:"setups_per_run"`
	PacedShare         map[string]float64 `json:"paced_share_of_seconds"`
	ReferenceRates     map[string]int     `json:"reference_publish_rates_per_s"`
	WallPerWorkloadS   map[string]float64 `json:"wall_s_per_workload"`
	WallTotalS         float64            `json:"wall_s_total"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

func newProvenance(seed int64, repeats int, seconds float64, plan cpuPlan) provenance {
	p := provenance{
		Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), Kernel: "unknown",
		NProc: runtime.NumCPU(), GeneratorMaxProcs: runtime.GOMAXPROCS(0),
		GeneratorCPUs: plan.generator, ChildCPUs: plan.child,
		EngineShape: map[string]int{
			"io_threads": engineIoThreads, "workers": engineWorkers,
			"topic_groups": engineTopicGroups, "cache_capacity": engineCacheCapacity,
		},
		BatchingConflation: "off",
		CrossedLoopback:    true,
		Seed:               seed, Repeats: repeats, Seconds: seconds, SetupsPerRun: setupsPerRun,
		PacedShare: map[string]float64{}, ReferenceRates: map[string]int{},
		WallPerWorkloadS: map[string]float64{},
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	for i := range workloads {
		p.PacedShare[workloads[i].name] = workloads[i].pacedShare
		p.ReferenceRates[workloads[i].name] = workloads[i].rate
	}
	return p
}

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
