//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

type cpuMask [16]uint64 // 1024 CPUs

func maskOf(cpus []int) (m cpuMask) {
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func setAffinity(tid int, m *cpuMask) syscall.Errno {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno
}

// availableCPUs lists the CPUs this process may run on.
func availableCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pinProcess restricts every thread of this process — and, by inheritance,
// every thread it creates later — to cpus.
func pinProcess(cpus []int) error {
	m := maskOf(cpus)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if errno := setAffinity(tid, &m); errno != 0 && errno != syscall.ESRCH {
			return os.NewSyscallError("sched_setaffinity", errno)
		}
	}
	return nil
}

// pinThread restricts the calling OS thread (the caller holds it with
// runtime.LockOSThread) to cpus; a process it starts inherits them.
func pinThread(cpus []int) error {
	m := maskOf(cpus)
	if errno := setAffinity(0, &m); errno != 0 {
		return os.NewSyscallError("sched_setaffinity", errno)
	}
	return nil
}
