package loadgen

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"migratorydata/internal/core"
	"migratorydata/internal/metrics"
)

// ScenarioThresholds are the degradation bounds a named scenario declares.
// The harness itself checks them after the run (see ScenarioReport), so
// running a scenario IS a regression test — the skudasov/loadgen
// "performance degradation check" idea applied to the engine's own
// counters.
type ScenarioThresholds struct {
	// MaxP99Ms bounds the end-to-end p99 delivery latency in milliseconds
	// over the measurement window.
	MaxP99Ms float64
	// MaxDropRate bounds pressure drops per delivered notification over
	// the window (pressure_drops delta / notifications received). Zero
	// means the scenario must not drop at all.
	MaxDropRate float64
	// MaxDisconnects bounds fenced slow-consumer disconnects
	// (pressure_disconnects delta) over the window.
	MaxDisconnects int64
	// MaxReliableGaps bounds sequence gaps on reliable-class topics —
	// zero for every scenario: the delivery guarantee admits no loss on
	// reliable feeds, whatever the traffic shape.
	MaxReliableGaps int64
	// MinDelivered asserts the window actually exercised delivery (a
	// scenario that delivers nothing passes every upper bound vacuously).
	MinDelivered int64
}

// ScenarioReport is the outcome of one named-scenario run: the standard
// Result row, the window deltas the thresholds are checked against, and
// the violations found (empty means the scenario is green).
type ScenarioReport struct {
	Name string
	Result
	// DroppableGaps counts forward skips on droppable-class topics
	// (legal under pressure; see SubConfig.Droppable).
	DroppableGaps int64
	// WindowReceived/WindowDrops/WindowDisconnects are the measurement
	// window deltas the thresholds bound.
	WindowReceived    int64
	WindowDrops       int64
	WindowDisconnects int64
	// DropRate is WindowDrops per WindowReceived.
	DropRate float64
	// Maxima are the staged-egress gauge maxima over the window (ticker
	// plus event-boundary samples).
	Maxima GaugeMaxima
	// Thresholds echoes the scenario's declared bounds.
	Thresholds ScenarioThresholds
	// Violations lists every threshold breach, human-readably.
	Violations []string
}

// Green reports whether the scenario met every declared threshold.
func (r *ScenarioReport) Green() bool { return len(r.Violations) == 0 }

// ScenarioOptions tune a named scenario run without changing its shape.
type ScenarioOptions struct {
	// Scale multiplies the scenario's client counts (CI runs the library
	// at reduced scale under the race detector). 0 means 1.
	Scale float64
	// Warmup/Measure override the scenario's windows when > 0.
	Warmup  time.Duration
	Measure time.Duration
	// Seed fixes the run's randomness.
	Seed int64
	// Transport selects how the fleet attaches: "" (default) uses
	// in-process socketpairs, "tcp" dials real loopback sockets through
	// the engine's listener. Either way every drop and re-dial churns a
	// file descriptor through poller registration.
	Transport string
}

// NamedScenario couples a workload shape with its declared degradation
// thresholds.
type NamedScenario struct {
	Name        string
	Description string
	Thresholds  ScenarioThresholds
	run         func(opts ScenarioOptions) (ScenarioReport, error)
}

// Run executes the scenario and checks its thresholds.
func (n NamedScenario) Run(opts ScenarioOptions) (ScenarioReport, error) {
	return n.run(opts)
}

// Scenarios returns the scenario library: six realistic traffic shapes,
// each self-contained (own engine or server process, own thresholds). See
// docs/BENCHMARKS.md, "The scenario library". The kill-and-resume entry
// re-execs the test binary as its server child, so any binary running the
// library must call RunServerProcessIfRequested from TestMain.
func Scenarios() []NamedScenario {
	return []NamedScenario{
		diurnalRampScenario(),
		flashCrowdScenario(),
		reconnectStormScenario(),
		churnMobileScenario(),
		mixedFeedsScenario(),
		killAndResumeScenario(),
	}
}

// RunScenarioByName runs one scenario from the library.
func RunScenarioByName(name string, opts ScenarioOptions) (ScenarioReport, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s.Run(opts)
		}
	}
	return ScenarioReport{}, fmt.Errorf("loadgen: unknown scenario %q", name)
}

// scaled applies the scale factor to a client count, flooring at min.
func scaled(n int, scale float64, min int) int {
	if scale <= 0 {
		scale = 1
	}
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// window picks the scenario default unless the options override it.
func window(def, override time.Duration) time.Duration {
	if override > 0 {
		return override
	}
	return def
}

// shapedCtx is what a scenario's event hooks operate on.
type shapedCtx struct {
	engine  *core.Engine
	subs    *Benchsub
	sampler *GaugeSampler
	stop    <-chan struct{}
}

// shapedRun is the generic named-scenario driver: engine + fleet +
// publisher, a warm-up, then a measurement window with an optional
// at-window-open event (flash subscribe, mass drop) and an optional
// concurrent driver (churn loop). Gauge maxima are sampled on a ticker
// plus at every event boundary.
type shapedRun struct {
	name       string
	transport  string // "" in-process socketpairs, "tcp" real loopback sockets
	engineCfg  core.Config
	sub        SubConfig // Attach/Histogram filled in by run
	pub        PubConfig // Attach filled in by run
	warmup     time.Duration
	measure    time.Duration
	pipeBuffer int
	thresholds ScenarioThresholds
	atStart    func(*shapedCtx)                  // runs at window open (an event boundary)
	during     func(*shapedCtx)                  // runs concurrently with the window
	check      func(*shapedCtx, *ScenarioReport) // scenario-specific extra checks
}

// run executes the shaped scenario and checks its thresholds.
func (r *shapedRun) run() (ScenarioReport, error) {
	rep := ScenarioReport{Name: r.name, Thresholds: r.thresholds}
	if r.pipeBuffer <= 0 {
		r.pipeBuffer = 2048
	}
	e := core.New(r.engineCfg)
	defer e.Close()
	attach := SingleEngineAttach(e, r.pipeBuffer)
	if r.transport == "tcp" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		defer l.Close()
		go e.Serve(l, "raw")
		attach = TCPAttach(l.Addr().String())
	}

	hist := &metrics.Histogram{}
	subCfg := r.sub
	subCfg.Attach = attach
	subCfg.Histogram = hist
	bs, err := StartBenchsub(subCfg)
	if err != nil {
		return rep, err
	}
	defer bs.Close()

	pubCfg := r.pub
	pubCfg.Attach = attach
	bp, err := StartBenchpub(pubCfg)
	if err != nil {
		return rep, err
	}
	defer bp.Close()

	time.Sleep(r.warmup)
	sampler := StartGaugeSampler(e.Stats, 20*time.Millisecond)
	e.ResetMeters()
	bs.StartRecording()
	before := e.Stats()
	receivedBefore := bs.Received()

	stop := make(chan struct{})
	ctx := &shapedCtx{engine: e, subs: bs, sampler: sampler, stop: stop}
	if r.atStart != nil {
		r.atStart(ctx)
		sampler.SampleNow() // event boundary: capture the spike the event caused
	}
	var wg sync.WaitGroup
	if r.during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.during(ctx)
		}()
	}
	time.Sleep(r.measure)
	close(stop)
	wg.Wait()
	rep.Maxima = sampler.Stop()
	bs.StopRecording()

	st := e.Stats()
	rep.WindowReceived = bs.Received() - receivedBefore
	rep.WindowDrops = st.PressureDrops - before.PressureDrops
	rep.WindowDisconnects = st.PressureDisconnects - before.PressureDisconnects
	if rep.WindowReceived > 0 {
		rep.DropRate = float64(rep.WindowDrops) / float64(rep.WindowReceived)
	} else if rep.WindowDrops > 0 {
		rep.DropRate = float64(rep.WindowDrops)
	}
	rep.DroppableGaps = bs.DroppableGaps()
	rep.Result = Result{
		Subscribers:         subCfg.Connections,
		Topics:              len(subCfg.Topics),
		Latency:             hist.Snapshot(),
		CPU:                 st.CPUUtilized,
		Gbps:                st.Gbps,
		MsgsPerSec:          float64(rep.WindowReceived) / r.measure.Seconds(),
		Received:            bs.Received(),
		Recovered:           bs.Recovered(),
		Reconnects:          bs.Reconnects(),
		Gaps:                bs.Gaps(),
		DeliverRouted:       st.DeliverRouted,
		DeliverSkipped:      st.DeliverSkipped,
		FanoutEvents:        st.FanoutEvents,
		IOFlushes:           st.IOFlushes,
		IOFlushBytes:        st.IOFlushBytes,
		CacheTopics:         st.CacheTopics,
		CacheEntries:        st.CacheEntries,
		CacheBytes:          st.CacheBytes,
		EgressQueueBytes:    st.EgressQueueBytes,
		SlowConsumers:       st.SlowConsumers,
		PressureDrops:       st.PressureDrops,
		PressureDisconnects: st.PressureDisconnects,
	}

	r.checkThresholds(&rep)
	if r.check != nil {
		r.check(ctx, &rep)
	}
	return rep, nil
}

// checkThresholds fills rep.Violations from the declared bounds.
func (r *shapedRun) checkThresholds(rep *ScenarioReport) {
	th := r.thresholds
	if th.MaxP99Ms > 0 && rep.Latency.P99 > th.MaxP99Ms {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("p99 latency %.2fms exceeds threshold %.2fms", rep.Latency.P99, th.MaxP99Ms))
	}
	if rep.DropRate > th.MaxDropRate {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("pressure-drop rate %.4f (drops %d / received %d) exceeds threshold %.4f",
				rep.DropRate, rep.WindowDrops, rep.WindowReceived, th.MaxDropRate))
	}
	if rep.WindowDisconnects > th.MaxDisconnects {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("pressure disconnects %d exceed threshold %d", rep.WindowDisconnects, th.MaxDisconnects))
	}
	if rep.Gaps > th.MaxReliableGaps {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("reliable-class gaps %d exceed threshold %d", rep.Gaps, th.MaxReliableGaps))
	}
	if rep.WindowReceived < th.MinDelivered {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("window delivered %d below minimum %d (scenario did not exercise delivery)",
				rep.WindowReceived, th.MinDelivered))
	}
}

// topicNames materializes prefix-0 .. prefix-(n-1).
func topicNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// diurnalRampScenario compresses one traffic "day" into the measurement
// window: the publish rate follows a raised-cosine curve from trough to
// peak and back. The engine must ride the swing with no drops and flat
// reliable delivery.
func diurnalRampScenario() NamedScenario {
	th := ScenarioThresholds{MaxP99Ms: 250, MaxDropRate: 0, MaxDisconnects: 0, MaxReliableGaps: 0, MinDelivered: 100}
	return NamedScenario{
		Name:        "diurnal-ramp",
		Description: "publish rate follows a compressed diurnal sine; no drops, flat reliable delivery across the swing",
		Thresholds:  th,
		run: func(opts ScenarioOptions) (ScenarioReport, error) {
			topics := topicNames("diurnal", 8)
			measure := window(4*time.Second, opts.Measure)
			r := &shapedRun{
				name:      "diurnal-ramp",
				transport: opts.Transport,
				engineCfg: core.Config{ServerID: "diurnal-ramp"},
				sub: SubConfig{
					Connections: scaled(240, opts.Scale, len(topics)),
					Topics:      topics,
					Seed:        opts.Seed,
				},
				pub: PubConfig{
					Topics:     topics,
					Interval:   40 * time.Millisecond,
					Ramp:       DiurnalRamp,
					RampPeriod: measure,
					Seed:       opts.Seed,
				},
				warmup:     window(500*time.Millisecond, opts.Warmup),
				measure:    measure,
				thresholds: th,
			}
			return r.run()
		},
	}
}

// flashCrowdScenario connects the whole fleet unsubscribed, then
// subscribes every connection to one hot topic at the same instant — the
// breaking-news shape. The subscribe burst and the ensuing fan-out must
// not drop or disconnect anyone.
func flashCrowdScenario() NamedScenario {
	th := ScenarioThresholds{MaxP99Ms: 400, MaxDropRate: 0, MaxDisconnects: 0, MaxReliableGaps: 0, MinDelivered: 100}
	return NamedScenario{
		Name:        "flash-crowd",
		Description: "all clients subscribe to one hot topic at once; the burst must not drop or fence anyone",
		Thresholds:  th,
		run: func(opts ScenarioOptions) (ScenarioReport, error) {
			topics := []string{"hot-breaking"}
			r := &shapedRun{
				name:      "flash-crowd",
				transport: opts.Transport,
				engineCfg: core.Config{ServerID: "flash-crowd"},
				sub: SubConfig{
					Connections:    scaled(240, opts.Scale, 8),
					Topics:         topics,
					DeferSubscribe: true,
					Seed:           opts.Seed,
				},
				pub: PubConfig{
					Topics:   topics,
					Interval: 5 * time.Millisecond,
					Seed:     opts.Seed,
				},
				warmup:     window(400*time.Millisecond, opts.Warmup),
				measure:    window(2500*time.Millisecond, opts.Measure),
				pipeBuffer: 8192,
				thresholds: th,
				atStart: func(ctx *shapedCtx) {
					ctx.subs.SubscribeAll()
				},
			}
			return r.run()
		},
	}
}

// reconnectStormScenario drops half the fleet at the window open; every
// dropped subscriber reconnects (with §5.2.3 jitter) and resumes from its
// position — the mass-reconnect shape after a network blip. Zero reliable
// gaps proves the resume path under the storm.
func reconnectStormScenario() NamedScenario {
	th := ScenarioThresholds{MaxP99Ms: 400, MaxDropRate: 0, MaxDisconnects: 0, MaxReliableGaps: 0, MinDelivered: 100}
	return NamedScenario{
		Name:        "reconnect-storm",
		Description: "half the fleet disconnects at once and resumes with position; zero reliable gaps through the storm",
		Thresholds:  th,
		run: func(opts ScenarioOptions) (ScenarioReport, error) {
			topics := topicNames("storm", 8)
			var dropped int
			r := &shapedRun{
				name:      "reconnect-storm",
				transport: opts.Transport,
				engineCfg: core.Config{ServerID: "reconnect-storm"},
				sub: SubConfig{
					Connections: scaled(200, opts.Scale, len(topics)),
					Topics:      topics,
					Failover:    true,
					Seed:        opts.Seed,
				},
				pub: PubConfig{
					Topics:   topics,
					Interval: 25 * time.Millisecond,
					Seed:     opts.Seed,
				},
				warmup:     window(500*time.Millisecond, opts.Warmup),
				measure:    window(3*time.Second, opts.Measure),
				thresholds: th,
				atStart: func(ctx *shapedCtx) {
					dropped = ctx.subs.DropConnections(len(ctx.subs.subs) / 2)
				},
				check: func(ctx *shapedCtx, rep *ScenarioReport) {
					if rep.Reconnects < int64(dropped) {
						rep.Violations = append(rep.Violations,
							fmt.Sprintf("only %d of %d dropped connections reconnected within the window",
								rep.Reconnects, dropped))
					}
				},
			}
			return r.run()
		},
	}
}

// churnMobileScenario rotates short-lived connections through the fleet —
// the mobile-client shape: a connection drops every few ticks and its
// subscriber resubscribes with its last position. Sustained churn must
// not open reliable gaps.
func churnMobileScenario() NamedScenario {
	th := ScenarioThresholds{MaxP99Ms: 400, MaxDropRate: 0, MaxDisconnects: 0, MaxReliableGaps: 0, MinDelivered: 100}
	return NamedScenario{
		Name:        "churn-mobile",
		Description: "continuous connection churn with resubscribe-with-position; no reliable gaps under sustained turnover",
		Thresholds:  th,
		run: func(opts ScenarioOptions) (ScenarioReport, error) {
			topics := topicNames("mobile", 8)
			r := &shapedRun{
				name:      "churn-mobile",
				transport: opts.Transport,
				engineCfg: core.Config{ServerID: "churn-mobile"},
				sub: SubConfig{
					Connections: scaled(160, opts.Scale, len(topics)),
					Topics:      topics,
					Failover:    true,
					Seed:        opts.Seed,
				},
				pub: PubConfig{
					Topics:   topics,
					Interval: 25 * time.Millisecond,
					Seed:     opts.Seed,
				},
				warmup:     window(500*time.Millisecond, opts.Warmup),
				measure:    window(3*time.Second, opts.Measure),
				thresholds: th,
				during: func(ctx *shapedCtx) {
					// One drop per tick, rotating through the fleet; each
					// drop is a scenario event, so the gauges are sampled at
					// its boundary.
					ticker := time.NewTicker(30 * time.Millisecond)
					defer ticker.Stop()
					idx := 0
					for {
						select {
						case <-ctx.stop:
							return
						case <-ticker.C:
							ctx.subs.DropConnection(idx % len(ctx.subs.subs))
							idx++
							ctx.sampler.SampleNow()
						}
					}
				},
			}
			return r.run()
		},
	}
}

// mixedFeedsScenario splits the topic space into reliable and conflatable
// feeds and stalls a handful of conflatable-topic readers under a small
// egress budget: the pressure tiers may conflate and drop on the
// droppable class (bounded), but reliable feeds stay gap-free and nobody
// is fenced.
func mixedFeedsScenario() NamedScenario {
	droppable := func(topic string) bool { return strings.HasPrefix(topic, "conf-") }
	th := ScenarioThresholds{MaxP99Ms: 400, MaxDropRate: 2.0, MaxDisconnects: 0, MaxReliableGaps: 0, MinDelivered: 100}
	return NamedScenario{
		Name:        "mixed-feeds",
		Description: "reliable and conflatable feeds share the engine; stalled conflatable readers cost bounded drops, reliable feeds stay gap-free",
		Thresholds:  th,
		run: func(opts ScenarioOptions) (ScenarioReport, error) {
			topics := append(topicNames("rel", 4), topicNames("conf", 4)...)
			subs := scaled(160, opts.Scale, 2*len(topics))
			stall := subs / 8
			if stall < 2 {
				stall = 2
			}
			r := &shapedRun{
				name:      "mixed-feeds",
				transport: opts.Transport,
				engineCfg: core.Config{
					ServerID:          "mixed-feeds",
					EgressBudgetBytes: 16 << 10,
					Classify: func(topic string) core.DeliveryClass {
						if droppable(topic) {
							return core.ClassConflatable
						}
						return core.ClassReliable
					},
				},
				sub: SubConfig{
					Connections: subs,
					Topics:      topics,
					Droppable:   droppable,
					Seed:        opts.Seed,
				},
				pub: PubConfig{
					Topics:      topics,
					Interval:    10 * time.Millisecond,
					PayloadSize: 256,
					Seed:        opts.Seed,
				},
				warmup:     window(500*time.Millisecond, opts.Warmup),
				measure:    window(3*time.Second, opts.Measure),
				thresholds: th,
				atStart: func(ctx *shapedCtx) {
					ctx.subs.StallReadersMatching(stall, droppable)
				},
			}
			return r.run()
		},
	}
}
