package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serverProc is the parent's handle on one server child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addrs []string // one listener per member

	mu      sync.Mutex // serializes the line protocol
	replies *bufio.Reader
}

// cpuPlan splits the machine between the two processes: the server child
// gets the lower half of the available CPUs, the generator the upper half
// (one each on the 2-core box). Unpinned, the kernel moves the child's
// threads on and off the generator's core from run to run, and the child's
// CPU per message at the paced rate — mostly wake-up cost at 30–50 % load —
// came out bimodal (8 µs or 15 µs, same commit, same seed). An empty plan
// means "do not pin" (one CPU, or no sched_setaffinity).
type cpuPlan struct {
	generator, child []int
}

func (p cpuPlan) pinned() bool { return len(p.generator) > 0 }

func planCPUs() cpuPlan {
	cpus := availableCPUs()
	if len(cpus) < 2 {
		return cpuPlan{}
	}
	split := len(cpus) - len(cpus)/2
	return cpuPlan{child: cpus[:split], generator: cpus[split:]}
}

// startServerProc re-execs this binary as the server child for w, on the
// child's CPUs of plan, and waits for its READY line. The child's Go runtime
// sizes GOMAXPROCS from the CPUs it finds itself on.
func startServerProc(w *workload, plan cpuPlan) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, "-child", "-child-framing", w.framing, "-child-members", strconv.Itoa(w.members))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, plan); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	p := &serverProc{cmd: cmd, stdin: stdin, replies: bufio.NewReader(stdout)}
	ready := make(chan error, 1)
	go func() {
		line, err := p.replies.ReadString('\n')
		if err != nil {
			ready <- fmt.Errorf("server child exited before READY: %w", err)
			return
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
		if !ok {
			ready <- fmt.Errorf("server child said %q, want READY", line)
			return
		}
		p.addrs = strings.Split(rest, ",")
		ready <- nil
	}()
	select {
	case err := <-ready:
		if err != nil {
			p.stop()
			return nil, err
		}
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, errors.New("server child not ready within 20s")
	}
	if len(p.addrs) != w.members {
		p.stop()
		return nil, fmt.Errorf("server child listens on %d addresses, want %d", len(p.addrs), w.members)
	}
	return p, nil
}

// startOn starts cmd with the child's CPU affinity: a new process inherits
// the affinity of the thread that forks it.
func startOn(cmd *exec.Cmd, plan cpuPlan) error {
	if !plan.pinned() {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := pinThread(plan.child); err != nil {
		return err
	}
	err := cmd.Start()
	if perr := pinThread(plan.generator); err == nil {
		err = perr
	}
	return err
}

// command sends one line and returns the reply line.
func (p *serverProc) command(line string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := io.WriteString(p.stdin, line+"\n"); err != nil {
		return "", fmt.Errorf("server child %q: %w", line, err)
	}
	reply, err := p.replies.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("server child %q: %w", line, err)
	}
	reply = strings.TrimSpace(reply)
	if msg, isErr := strings.CutPrefix(reply, "error "); isErr {
		return "", fmt.Errorf("server child %q: %s", line, msg)
	}
	return reply, nil
}

// stats scrapes the child. With settle the child first collects garbage and
// returns freed memory to the OS, so RSS is what the server retains rather
// than wherever the collector's cycle happened to be.
func (p *serverProc) stats(settle bool) (childStats, error) {
	var st childStats
	cmd := "stats"
	if settle {
		cmd = "settle"
	}
	reply, err := p.command(cmd)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal([]byte(reply), &st); err != nil {
		return st, fmt.Errorf("server child stats: %w", err)
	}
	return st, nil
}

// crash fail-stops cluster member i.
func (p *serverProc) crash(i int) error {
	_, err := p.command("crash " + strconv.Itoa(i))
	return err
}

// stop ends the child and waits for it: a polite quit first, a kill if it
// does not leave within two seconds.
func (p *serverProc) stop() {
	p.mu.Lock()
	_, _ = io.WriteString(p.stdin, "quit\n")
	_ = p.stdin.Close()
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}
