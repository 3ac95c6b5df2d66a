// Fixtures for the hotpath analyzer.
package hotpath

import (
	"fmt"
	"syscall"
	"unsafe"
)

// ---- positive cases ----

//vet:hotpath
func fmtOnHotPath(id int) string {
	return fmt.Sprintf("client-%d", id) // want `hot path calls fmt\.Sprintf`
}

//vet:hotpath
func concatOnHotPath(topic, suffix string) string {
	return topic + "/" + suffix // want `hot path concatenates strings`
}

//vet:hotpath
func concatAssignOnHotPath(parts []string) string {
	var s string
	for _, p := range parts {
		s += p // want `hot path concatenates strings with \+=`
	}
	return s
}

//vet:hotpath
func mapLiteralOnHotPath() map[string]int {
	return map[string]int{"pub": 1} // want `hot path allocates a map literal`
}

//vet:hotpath
func mapMakeOnHotPath(n int) map[string]int {
	return make(map[string]int, n) // want `hot path allocates a map with make`
}

//vet:hotpath
func captureOnHotPath(seq uint64) func() uint64 {
	return func() uint64 { return seq + 1 } // want `hot path closure captures "seq"`
}

//vet:hotpath
func readOnHotPath(fd int, buf []byte) (int, error) {
	return syscall.Read(fd, buf) // want `hot path calls syscall\.Read, which enters the runtime's syscall path`
}

//vet:hotpath
func syscallOnHotPath(fd uintptr, buf []byte) syscall.Errno {
	_, _, e := syscall.Syscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf))) // want `hot path calls syscall\.Syscall,`
	return e
}

//vet:hotpath
func epollWaitOnHotPath(epfd int, evs []syscall.EpollEvent) (int, error) {
	return syscall.EpollWait(epfd, evs, 0) // want `hot path calls syscall\.EpollWait,`
}

// ---- negative cases ----

//vet:hotpath
func rawSyscallOnHotPath(fd uintptr, buf []byte) (int, error) {
	r, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)))
	if e != 0 {
		return 0, e // returning the Errno calls nothing in syscall
	}
	return int(r), nil
}

//vet:hotpath
func rawSyscall6OnHotPath(epfd uintptr, evs []syscall.EpollEvent) (int, string) {
	r, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_PWAIT, epfd, uintptr(unsafe.Pointer(&evs[0])), uintptr(len(evs)), 0, 0, 0)
	if e != 0 {
		return 0, e.Error() // a method of syscall.Errno makes no syscall
	}
	return int(r), ""
}

// coldRead has no annotation: a blocking-capable syscall is fine here.
func coldRead(fd int, buf []byte) (int, error) {
	return syscall.Read(fd, buf)
}

//vet:hotpath
func appendOnly(dst []byte, b byte) []byte {
	const prefix = "v" + "1" // constant-folded: free at runtime
	_ = prefix
	return append(dst, b)
}

//vet:hotpath
func captureFreeClosure(vals []int) int {
	add := func(a, b int) int { return a + b }
	total := 0
	for _, v := range vals {
		total = add(total, v)
	}
	return total
}

// coldPath has no annotation: the same constructs are fine here.
func coldPath(id int) string {
	return fmt.Sprintf("client-%d", id)
}

// ---- suppressed case ----

//vet:hotpath
func suppressedFmt(id int) error {
	if id < 0 {
		return fmt.Errorf("bad id %d", id) //vet:ignore hotpath -- fixture: error construction leaves the hot path
	}
	return nil
}
