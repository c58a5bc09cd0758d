package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// crhdProc is one crhd subprocess, booted fresh for every set-up.
type crhdProc struct {
	cmd  *exec.Cmd
	addr string
	// ready is when crhd reported its listener bound: set-up time is
	// measured from here, so it excludes process start.
	ready time.Time
	// logDone closes once crhd's stderr has been drained to EOF; tail
	// then holds its last lines for error reports.
	logDone chan struct{}
	tail    []string
}

// bootTimeout bounds how long crhd may take to report its listener.
const bootTimeout = 30 * time.Second

// startCrhd boots crhd with args (plus a loopback listener on an
// ephemeral port) and waits until it is accepting connections.
func startCrhd(ctx context.Context, bin string, args []string) (*crhdProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should this process be killed before it can stop crhd, the kernel
	// kills crhd too rather than leave it holding a gigabyte.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("crhd stderr: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start crhd: %w", err)
	}
	p := &crhdProc{cmd: cmd, logDone: make(chan struct{})}
	// Sized 1 so the drain goroutine never blocks on a reader that gave
	// up waiting.
	addrc := make(chan string, 1)
	go p.drain(stderr, addrc)

	timer := time.NewTimer(bootTimeout)
	defer timer.Stop()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("crhd exited before listening: %s", strings.Join(p.tail, " | "))
		}
		p.addr, p.ready = addr, time.Now()
		return p, nil
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("crhd did not listen within %v", bootTimeout)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// drain reads crhd's stderr to EOF (crhd logs every request there and
// would block on a full pipe), reporting the listen address on addrc and
// keeping the last lines. addrc is closed if crhd never reports one.
func (p *crhdProc) drain(r io.Reader, addrc chan<- string) {
	defer close(p.logDone)
	const keep = 8
	sent := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "crhd: listening on "); ok && !sent {
			addrc <- strings.TrimSpace(addr)
			sent = true
		}
		p.tail = append(p.tail, line)
		if len(p.tail) > keep {
			p.tail = p.tail[1:]
		}
	}
	if !sent {
		close(addrc)
	}
}

// stop shuts crhd down (SIGTERM, then SIGKILL after a grace period) and
// waits until it has exited and its stderr is drained.
func (p *crhdProc) stop() {
	const grace = 10 * time.Second
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		fmt.Fprintf(os.Stderr, "perfbench: signal crhd: %v\n", err)
	}
	done := make(chan struct{})
	go func() {
		<-p.logDone
		// crhd exits non-zero when killed; the exit status says nothing
		// the benchmark acts on.
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			fmt.Fprintf(os.Stderr, "perfbench: kill crhd: %v\n", err)
		}
		<-done
	}
}

// cpuSeconds reads the CPU time crhd has used so far: the sum over its
// threads of the scheduler's run time, in nanoseconds. The kernel leaves
// out the time the hypervisor stole for another guest, so on a shared
// machine this counts the work crhd did, not the time it waited for a
// CPU.
func (p *crhdProc) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		v, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// parseSchedstat returns the first field of a schedstat line: the
// thread's time on a CPU, in nanoseconds.
func parseSchedstat(line string) (uint64, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty schedstat line")
	}
	v, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse schedstat: %w", err)
	}
	return v, nil
}

// peakRSSMiB reads crhd's peak resident set size (VmHWM) in MiB.
func (p *crhdProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
