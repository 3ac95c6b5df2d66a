//go:build linux

package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// canaryMain is the canary process (see host.go): one thread per CPU of the
// comma-separated list, until standard input ends.
func canaryMain(list string) {
	cpus := strings.Split(list, ",")
	runtime.GOMAXPROCS(len(cpus) + 1) // a waking thread never waits for a P
	for _, f := range cpus {
		cpu, err := strconv.Atoi(f)
		if err != nil {
			fatal(fmt.Errorf("canary: bad CPU list %q", list))
		}
		go watchCPU(cpu)
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// watchCPU sleeps canaryPeriod at a time on cpu, in the kernel rather than
// in the Go scheduler, and prints every oversleep of clockGap or more.
func watchCPU(cpu int) {
	runtime.LockOSThread()
	if err := pinThread([]int{cpu}); err != nil {
		fatal(fmt.Errorf("canary: %w", err))
	}
	period := syscall.NsecToTimespec(int64(canaryPeriod))
	for {
		before := time.Now()
		_ = syscall.Nanosleep(&period, nil)
		if over := time.Since(before) - canaryPeriod; over >= clockGap {
			fmt.Println(int64(over))
		}
	}
}
