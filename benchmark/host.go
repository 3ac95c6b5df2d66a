package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference box is a virtual machine on a shared host, and the host
// makes it stand still: one virtual CPU taken away for a scheduling quantum
// (100 ms), the whole machine paused several times within a second, or a
// CPU shared with a neighbour a few milliseconds at a time for seconds on
// end — from never to several times a minute, depending on the neighbours.
// Everything due meanwhile arrives that much late, whatever the server does,
// and a server sized for half a core falls behind on half a CPU.
//
// The canary tells such a moment from a pause of the server. It is this same
// binary started with -canary: one thread pinned to each CPU the benchmark
// uses, asleep except for one clock reading every canaryPeriod. A thread
// that oversleeps by clockGap was not run by a CPU that had nothing else to
// refuse it for (a busy CPU makes a waking thread wait for a fraction of a
// scheduler slice: on the reference box no canary overslept by 2 ms in any
// undisturbed quarter second, with the server at 45 % of its CPU and the
// generator at 80 % of the other). It says so on its standard output, and
// the generator notes when. A server that stops for its collector, a lock
// convoy or an election keeps no other process off the CPU, so none of that
// shows here.
//
// A window of the paced phase that overlaps such a gap measured the host:
// it is left out of the timings, of the late-delivery count and of the
// generator's lag, and counted as stalled.

const (
	canaryPeriod = 2 * time.Millisecond
	// clockGap is the oversleep the canary reports.
	clockGap = 3 * time.Millisecond
	// gapSlack widens a reported gap at its start: the canary's line reaches
	// a generator that may itself only just have come back.
	gapSlack = 10 * time.Millisecond
	// maxStalledShare of the windows may be stalled before too little of the
	// phase is left to measure on and the run is invalid.
	maxStalledShare = 0.75
)

// hostGap is a time, on the generator's clock, in which a CPU stood still.
type hostGap struct{ from, to int64 }

// canary is the parent's handle on the canary process.
type canary struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	done  chan struct{}

	mu   sync.Mutex
	gaps []hostGap
}

// startCanary starts a canary on the CPUs of plan. Without pinning there is
// no telling which CPU a thread oversleeps on: no canary (nil), no gaps.
func startCanary(plan cpuPlan) (*canary, error) {
	if !plan.pinned() {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var cpus []string
	for _, cpu := range append(append([]int(nil), plan.child...), plan.generator...) {
		cpus = append(cpus, strconv.Itoa(cpu))
	}
	c := &canary{cmd: exec.Command(exe, "-canary", strings.Join(cpus, ",")), done: make(chan struct{})}
	c.cmd.Stderr = os.Stderr
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start canary: %w", err)
	}
	go func() {
		defer close(c.done)
		lines := bufio.NewScanner(stdout)
		for lines.Scan() { // one line per gap: its length in nanoseconds
			ns, err := strconv.ParseInt(lines.Text(), 10, 64)
			if err != nil {
				continue
			}
			now := nowNs()
			c.mu.Lock()
			c.gaps = append(c.gaps, hostGap{now - ns - int64(gapSlack), now})
			c.mu.Unlock()
		}
	}()
	return c, nil
}

// stop ends the canary (end of its stdin), waits for it and returns the
// gaps it reported.
func (c *canary) stop() []hostGap {
	if c == nil {
		return nil
	}
	_ = c.stdin.Close()
	<-c.done
	_ = c.cmd.Wait()
	return c.gaps
}

// stalledWindows marks which of count windows (width ns each, the first one
// starting at start) overlap a gap.
func stalledWindows(gaps []hostGap, start, width int64, count int) []bool {
	stalled := make([]bool, count)
	for _, g := range gaps {
		if g.to < start {
			continue
		}
		first := max(0, (g.from-start)/width)
		last := min(int64(count)-1, (g.to-start)/width)
		for i := first; i <= last; i++ {
			stalled[i] = true
		}
	}
	return stalled
}
