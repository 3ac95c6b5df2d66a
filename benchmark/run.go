package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// runOptions are the inputs of one workload run.
type runOptions struct {
	seed    int64
	seconds float64 // measured time: paced + saturate
	trace   bool
	cpus    cpuPlan
}

// errInvalidRun marks a run that failed a validity gate: the generator, not
// the server, limited it. Such a run is repeated, never reported.
type errInvalidRun struct{ reason string }

func (e *errInvalidRun) Error() string { return "invalid run: " + e.reason }

// runState is everything one set-up of one workload owns: the server child,
// the fleet, the publishers and the collectors they feed.
type runState struct {
	w    *workload
	opt  runOptions
	ref  *refStream
	proc *serverProc
	tr   *tracer // nil unless traced

	topics []topicState
	subs   []*subscriber
	pubs   []*publisher

	readers  sync.WaitGroup // subscriber readers and ack readers
	stop     chan struct{}  // closed by shutdown
	stopping atomic.Bool

	closedLoop atomic.Bool // deliveries feed the closed-loop window
	failover   atomic.Bool // a lost connection means "resume on a survivor"

	// Paced-phase collectors, installed when the phase begins.
	delivery       atomic.Pointer[windows]
	acks           atomic.Pointer[windows]
	lag            atomic.Pointer[windows]   // publish written − due: how late the generator ran
	memberDelivery []atomic.Pointer[windows] // cluster only: by the subscriber's member
	pacedStart     atomic.Int64

	resumes          atomic.Int64
	failedConnects   atomic.Int64
	unexpectedCloses atomic.Int64

	mu        sync.Mutex
	resumeUs  []float64
	scrapes   []childStats
	firstFail string
}

// fail remembers the first failure's description for the report.
func (r *runState) fail(format string, args ...any) {
	r.mu.Lock()
	if r.firstFail == "" {
		r.firstFail = fmt.Sprintf(format, args...)
	}
	r.mu.Unlock()
}

func (r *runState) recordResume(us float64) {
	r.mu.Lock()
	r.resumeUs = append(r.resumeUs, us)
	r.mu.Unlock()
}

// spansOn reports whether spans are recorded for a message due at due. A
// traced run records during odd seconds of the paced phase only, so the
// same run yields delivery_p50 with and without tracing — their ratio is
// trace_overhead_ratio, free of run-to-run noise.
func (r *runState) spansOn(due int64) bool { return spansOnAt(due - r.pacedStart.Load()) }

// spansOnAt is spansOn for an offset from the start of the paced phase.
func spansOnAt(offset int64) bool { return (offset/int64(time.Second))%2 == 1 }

// survivor picks the member an orphan of crashed member 1 resumes on.
func (r *runState) survivor(subIdx int) int { return 2 * (subIdx % 2) }

// setup starts a server child, connects and subscribes the fleet, primes
// every topic and pushes the warm-up traffic. Its wall time is setup_s.
func setup(w *workload, opt runOptions) (r *runState, took time.Duration, err error) {
	t0 := time.Now()
	r = &runState{w: w, opt: opt, ref: newRefStream(opt.seed), stop: make(chan struct{})}
	if w.members > 1 {
		r.memberDelivery = make([]atomic.Pointer[windows], w.members)
	}
	if opt.trace {
		r.tr = newTracer(1 << 18)
	}
	if r.proc, err = startServerProc(w, opt.cpus); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			r.shutdown()
		}
	}()

	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x746f706963))
	r.topics = make([]topicState, w.topics)
	for i := range r.topics {
		r.topics[i].name = w.topicName(i)
		r.topics[i].idx = uint32(i)
	}
	// Publishers connect to member 0 (a survivor of the crash check).
	for i := 0; i < w.pubConns; i++ {
		p := &publisher{
			r: r, idx: i,
			payload: make([]byte, w.payload),
			wakeCh:  make(chan struct{}, 1),
			ackCh:   make(chan ackResult, w.topics+16), // sync mode: at most one publish in flight per topic
			redoCh:  make(chan redo, 1024),             // refusals are rare; beyond this they count as failures
		}
		if p.sl, err = newSleeper(); err != nil {
			return nil, 0, err
		}
		r.pubs = append(r.pubs, p)
		if p.conn, err = dialClientFrom(fleetPortBase-1-i, r.proc.addrs[0], w.framing); err != nil {
			return nil, 0, fmt.Errorf("publisher %d connect: %w", i, err)
		}
		if err = p.conn.send(connectMessage(fmt.Sprintf("pub-%d", i))); err != nil {
			return nil, 0, err
		}
		if err = p.conn.awaitConnAck(); err != nil {
			return nil, 0, fmt.Errorf("publisher %d: %w", i, err)
		}
	}
	for i := range r.topics {
		t := &r.topics[i]
		t.pub = r.pubs[i%w.pubConns]
		t.pub.topics = append(t.pub.topics, t)
	}
	for _, p := range r.pubs {
		// -seed fixes the order topics are visited in.
		rng.Shuffle(len(p.topics), func(a, b int) { p.topics[a], p.topics[b] = p.topics[b], p.topics[a] })
	}

	// The fleet: subscriber i takes topic i/subsPerTopic, members round-robin.
	for i := 0; i < w.subscribers(); i++ {
		s := &subscriber{
			r: r, idx: i,
			name:   fmt.Sprintf("sub-%d", i),
			topic:  &r.topics[i/w.subsPerTopic],
			member: i % w.members,
		}
		if err = s.connectInitial(); err != nil {
			return nil, 0, fmt.Errorf("fleet attached %d of %d clients: subscriber %d: %w", i, w.subscribers(), i, err)
		}
		r.subs = append(r.subs, s)
	}
	if len(r.subs) == 0 {
		return nil, 0, errors.New("fleet attached 0 clients")
	}
	r.readers.Add(len(r.subs) + len(r.pubs))
	for _, s := range r.subs {
		go s.run()
	}
	for _, p := range r.pubs {
		go p.readAcks()
	}

	// Prime: one acknowledged message per topic, in index order whatever the
	// seed. In the cluster this settles every topic group's coordinator
	// before traffic flows, and on the same member in every run.
	if err = r.inSync(func(p *publisher) error {
		for i := range r.topics {
			t := &r.topics[i]
			if t.pub != p {
				continue
			}
			n := t.published.Load()
			t.published.Store(n + 1)
			if err := p.publishSync(t, n, time.Now().Add(10*time.Second)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, 0, fmt.Errorf("prime: %w", err)
	}
	if err = r.quiesce(); err != nil {
		return nil, 0, fmt.Errorf("prime: %w", err)
	}
	// Warm-up: a fixed number of messages per topic, closed loop.
	if err = r.closedPhase(0, uint64(w.warmupPerTopic), nil); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return r, time.Since(t0), nil
}

// shutdown stops every goroutine of the run and the server child, and
// waits for all of them.
func (r *runState) shutdown() {
	if r.stopping.Swap(true) {
		return
	}
	close(r.stop)
	for _, s := range r.subs {
		if c := s.conn.Load(); c != nil {
			c.close()
		}
	}
	for _, p := range r.pubs {
		if p.conn != nil {
			p.conn.close()
		}
		if p.sl != nil {
			p.sl.close()
		}
	}
	r.readers.Wait()
	if r.proc != nil {
		r.proc.stop()
	}
}

// eachPublisher runs fn once per publisher, concurrently, and waits.
func (r *runState) eachPublisher(fn func(p *publisher) error) error {
	errs := make([]error, len(r.pubs))
	var wg sync.WaitGroup
	for i, p := range r.pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// inSync runs fn on every publisher with sync mode on.
func (r *runState) inSync(fn func(p *publisher) error) error {
	for _, p := range r.pubs {
		p.sync.Store(true)
	}
	err := r.eachPublisher(fn)
	for _, p := range r.pubs {
		p.sync.Store(false)
	}
	return err
}

// backlog is how many deliveries connected subscribers are still owed.
func (r *runState) backlog() (owed int64) {
	for _, s := range r.subs {
		if s.offline.Load() {
			continue
		}
		owed += int64(s.topic.published.Load() - s.next.Load())
	}
	return owed
}

// unacked counts publishes without a final answer: not acknowledged yet, or
// refused and still waiting for their republish.
func (r *runState) unacked() (n int64) {
	for _, p := range r.pubs {
		n += p.sent.Load() - p.acked.Load() + int64(len(p.redoCh))
	}
	return n
}

func (r *runState) offlineCount() (n int) {
	for _, s := range r.subs {
		if s.offline.Load() {
			n++
		}
	}
	return n
}

// quiesce waits until every publish is acknowledged (republishing what the
// server refused), every subscriber is back online and nothing is owed to
// anyone. No publisher goroutine may be running.
func (r *runState) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		for _, p := range r.pubs {
			if err := p.republish(); err != nil {
				return err
			}
		}
		if r.unacked() == 0 && r.offlineCount() == 0 && r.backlog() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no quiescence within %v: %d publishes unacknowledged, %d subscribers offline, %d deliveries owed",
				quiesceTimeout, r.unacked(), r.offlineCount(), r.backlog())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// closedPhase runs every publisher closed-loop until generator-clock time
// until (0: none) or perTopic messages per topic (0: no quota), calling
// sample — if not nil — every 250 ms meanwhile, then quiesces.
func (r *runState) closedPhase(until int64, perTopic uint64, sample func()) error {
	for i := range r.topics {
		t := &r.topics[i]
		t.complete.Store(t.published.Load())
		for j := range t.done {
			t.done[j].Store(0)
		}
	}
	r.closedLoop.Store(true)
	done := make(chan error, 1)
	go func() { done <- r.eachPublisher(func(p *publisher) error { return p.runClosed(until, perTopic) }) }()
	var err error
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case err = <-done:
			break wait
		case <-tick.C:
			if sample != nil {
				sample()
			}
		}
	}
	r.closedLoop.Store(false)
	if err != nil {
		return err
	}
	return r.quiesce()
}

// received sums distinct deliveries over the fleet.
func (r *runState) received() (n int64) {
	for _, s := range r.subs {
		n += s.received.Load()
	}
	return n
}

// scrape fetches the child's counters, remembering them for the per-layer
// gauges (egress_queue_bytes_max, stats_scrape_us).
func (r *runState) scrape() (childStats, error) {
	st, err := r.proc.stats(false)
	if err == nil {
		r.mu.Lock()
		r.scrapes = append(r.scrapes, st)
		r.mu.Unlock()
	}
	return st, err
}

// scraper polls the child at 1 Hz, as a Prometheus server would, until the
// returned stop function is called (more than once is fine).
func (r *runState) scraper() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if _, err := r.scrape(); err != nil {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); wg.Wait() }) }
}

// churn drops w.churnPerSec subscribers per second (seeded choice among
// those online) until generator-clock time until; each stays offline for
// w.churnOffline and then resumes with its last position.
func (r *runState) churn(until int64, rng *rand.Rand) {
	every := time.Second / time.Duration(r.w.churnPerSec)
	for k := 1; ; k++ {
		at := r.pacedStart.Load() + int64(k)*int64(every)
		if at+int64(r.w.churnOffline) >= until {
			return // the victim could not be back before the phase ends
		}
		select {
		case <-time.After(time.Duration(at - nowNs())):
		case <-r.stop:
			return
		}
		for tries := 0; tries < 8; tries++ {
			s := r.subs[rng.IntN(len(r.subs))]
			if s.offline.Load() {
				continue
			}
			s.dropUntil.Store(nowNs() + int64(r.w.churnOffline))
			s.offline.Store(true)
			if c := s.conn.Load(); c != nil {
				c.close()
			}
			break
		}
	}
}

// pacedResult is what the paced phase measured.
type pacedResult struct {
	duration   time.Duration
	backlogEnd int64
	// stalled marks the timing windows in which a CPU stood still (see
	// host.go); gaps is how many times the canary said so.
	stalled []bool
	gaps    int
	// offered and achieved publishes, counted over the other windows.
	offered  int
	achieved int
	before   childStats
	after    childStats
	settled  childStats // after the child collected garbage: retained memory
}

// valid reports whether the timing window at offset from the start of the
// phase takes part in the results.
func (p *pacedResult) valid(offset int64) bool { return !p.stalled[offset/int64(timingWindow)] }

// pacedPhase runs the open loop for d.
func (r *runState) pacedPhase(d time.Duration) (pacedResult, error) {
	w := r.w
	var res pacedResult
	res.duration = d
	watch, err := startCanary(r.opt.cpus)
	if err != nil {
		return res, err
	}
	if res.before, err = r.scrape(); err != nil {
		watch.stop()
		return res, err
	}
	start := nowNs() + int64(10*time.Millisecond)
	end := start + int64(d)
	r.pacedStart.Store(start)
	perSec := w.rate * w.subsPerTopic
	width := int64(timingWindow)
	per := func(rate int) int { n := int(int64(rate) * width / int64(time.Second)); return n + n/4 + 1024 }
	r.delivery.Store(newWindows(start, end, width, per(perSec)))
	r.acks.Store(newWindows(start, end, width, per(w.rate)))
	r.lag.Store(newWindows(start, end, width, per(w.rate)))
	for m := range r.memberDelivery {
		r.memberDelivery[m].Store(newWindows(start, end, width, per(perSec)))
	}
	var churnDone sync.WaitGroup
	if w.churnPerSec > 0 {
		churnDone.Add(1)
		go func() {
			defer churnDone.Done()
			r.churn(end, rand.New(rand.NewPCG(uint64(r.opt.seed), 0x636875726e)))
		}()
	}
	err = r.eachPublisher(func(p *publisher) error {
		return p.runPaced(newSchedule(start, end, w.rate, len(r.pubs), p.idx))
	})
	res.backlogEnd = r.backlog()
	churnDone.Wait()
	if err == nil {
		err = r.quiesce() // the canary watches until the last delivery is in
	}
	gaps := watch.stop()
	if err != nil {
		return res, err
	}
	lag := r.lag.Load()
	res.stalled, res.gaps = stalledWindows(gaps, start, width, len(lag.wins)), len(gaps)
	for _, p := range r.pubs {
		s := newSchedule(start, lag.end, w.rate, len(r.pubs), p.idx)
		for k := 0; ; k++ {
			due, ok := s.due(k)
			if !ok {
				break
			}
			if !res.stalled[(due-start)/width] {
				res.offered++
			}
		}
	}
	written := lag.summarize(res.valid)
	res.achieved = written.Samples + written.Dropped
	if res.after, err = r.scrape(); err != nil {
		return res, err
	}
	res.settled, err = r.proc.stats(true)
	return res, err
}

// saturateResult is what the saturate phase measured.
type saturateResult struct {
	peak    float64 // deliveries per second
	samples int
	cpuUs   float64 // child CPU time per message (published + delivered)
}

// saturatePhase runs the closed loop for d. The peak is the median over
// 250 ms samples, the first half second dropped.
func (r *runState) saturatePhase(d time.Duration) (res saturateResult, err error) {
	before, err := r.scrape()
	if err != nil {
		return res, err
	}
	type point struct {
		at  int64
		got int64
	}
	var pts []point
	sample := func() { pts = append(pts, point{nowNs(), r.received()}) }
	sample()
	if err := r.closedPhase(nowNs()+int64(d), 0, sample); err != nil {
		return res, err
	}
	after, err := r.scrape()
	if err != nil {
		return res, err
	}
	var rates []float64
	for i := 1; i < len(pts); i++ {
		if pts[i].at-pts[0].at <= int64(500*time.Millisecond) {
			continue
		}
		rates = append(rates, float64(pts[i].got-pts[i-1].got)/(float64(pts[i].at-pts[i-1].at)/1e9))
	}
	if len(rates) == 0 {
		return res, errors.New("saturate phase too short to sample: raise -seconds")
	}
	res.peak, res.samples = median(rates), len(rates)
	b, a := sums(before), sums(after)
	if msgs := a.published - b.published + a.delivered - b.delivered; msgs > 0 {
		res.cpuUs = float64(after.CPUus-before.CPUus) / float64(msgs)
	}
	return res, nil
}

// crashCheck fail-stops member 1 under sequential reliable publishing and
// requires every orphaned subscriber to resume on a survivor and every
// topic to accept publishes again within failoverDeadline. It returns the
// time from the crash to that state.
func (r *runState) crashCheck() (recoverMs float64, err error) {
	var orphans []*subscriber
	for _, s := range r.subs {
		if s.idx%r.w.members == 1 { // connected to member 1 at set-up
			orphans = append(orphans, s)
		}
	}
	r.failover.Store(true)
	resumesBefore := r.resumes.Load()
	var crashAt atomic.Int64
	crashErr := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		crashAt.Store(nowNs())
		crashErr <- r.proc.crash(1)
	}()
	// One publish in flight per topic, 10 ms apart, republished on failure:
	// the paced rate of the workload, with the publisher's retry duty on.
	okSince := make(map[*topicState]int)
	recovered := int64(0)
	err = r.inSync(func(p *publisher) error {
		deadline := time.Now().Add(failoverDeadline + time.Second)
		for time.Now().Before(deadline) {
			for _, t := range p.topics {
				n := t.published.Load()
				t.published.Store(n + 1)
				if err := p.publishSync(t, n, deadline); err != nil {
					return err
				}
				if crashAt.Load() != 0 {
					okSince[t]++
				}
			}
			time.Sleep(10 * time.Millisecond)
			if crashAt.Load() == 0 {
				continue
			}
			settled := r.resumes.Load()-resumesBefore >= int64(len(orphans))
			for _, s := range orphans {
				settled = settled && !s.offline.Load()
			}
			for _, t := range p.topics {
				settled = settled && okSince[t] >= 3
			}
			if settled {
				recovered = nowNs()
				return nil
			}
		}
		return fmt.Errorf("no recovery within %v of the crash: %d of %d orphans back",
			failoverDeadline, r.resumes.Load()-resumesBefore, len(orphans))
	})
	if cerr := <-crashErr; cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := r.quiesce(); err != nil {
		return 0, err
	}
	return float64(recovered-crashAt.Load()) / 1e6, nil
}

// verdicts sums the reference checkers once the readers have stopped.
type verdicts struct {
	gaps, order, mismatches, duplicates, missing int64
}

func (r *runState) verdicts() (v verdicts) {
	for _, s := range r.subs {
		v.gaps += s.chk.gaps
		v.order += s.chk.order
		v.mismatches += s.mismatches
		v.duplicates += s.chk.duplicates
		v.missing += int64(s.topic.published.Load() - s.chk.next)
	}
	return v
}

// runWorkload performs one complete run of w: setupsPerRun timed set-ups (all
// but the last torn down at once), then paced → saturate → check on the
// last one.
func runWorkload(w *workload, opt runOptions) (*runResult, error) {
	wall := time.Now()
	var setupS []float64
	var r *runState
	for i := 0; i < setupsPerRun; i++ {
		if r != nil {
			r.shutdown()
		}
		var took time.Duration
		var err error
		if r, took, err = setup(w, opt); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, took.Seconds())
	}
	defer r.shutdown()
	stopScraper := r.scraper()
	defer stopScraper()

	total := time.Duration(opt.seconds * float64(time.Second))
	pacedFor := time.Duration(float64(total) * w.pacedShare)
	// A workload that churns saturates first, on the fleet as set up. The
	// engine pins a connection to its threads by remote address and connection
	// id, so after the churn the fleet's spread over them differs from seed to
	// seed, and the peak with it (125K or 165K deliveries/s).
	satFirst := w.churnPerSec > 0
	var sat saturateResult
	var err error
	if satFirst {
		if sat, err = r.saturatePhase(total - pacedFor); err != nil {
			return nil, fmt.Errorf("%s: saturate: %w", w.name, err)
		}
	}
	paced, err := r.pacedPhase(pacedFor)
	if err != nil {
		return nil, fmt.Errorf("%s: paced: %w", w.name, err)
	}
	if !satFirst {
		if sat, err = r.saturatePhase(total - pacedFor); err != nil {
			return nil, fmt.Errorf("%s: saturate: %w", w.name, err)
		}
	}
	recoverMs := 0.0
	if w.crashCheck {
		if recoverMs, err = r.crashCheck(); err != nil {
			return nil, fmt.Errorf("%s: crash check: %w", w.name, err)
		}
	}
	stopScraper()
	final, err := r.scrape()
	if err != nil {
		return nil, err
	}
	r.shutdown()

	res := r.assemble(setupS, paced, sat, recoverMs, final)
	res.WallS = time.Since(wall).Seconds()
	res.tr = r.tr
	if reason := res.invalid(); reason != "" {
		return nil, &errInvalidRun{w.name + ": " + reason}
	}
	return res, nil
}
