//go:build !linux

package main

// Without sched_setaffinity nothing is pinned: availableCPUs reports no
// CPUs, which planCPUs turns into an empty (unpinned) plan.
func availableCPUs() []int        { return nil }
func pinProcess(cpus []int) error { return nil }
func pinThread(cpus []int) error  { return nil }
