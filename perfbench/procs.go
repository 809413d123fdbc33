package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
)

// children is every process the benchmark has started and not yet
// reaped, so that a signal or a failure never leaves one behind.
var children = struct {
	sync.Mutex
	set map[*os.Process]struct{}
}{set: map[*os.Process]struct{}{}}

// startChild starts cmd so that it dies with the benchmark (Pdeathsig)
// and is killed by killChildren.
func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	children.set[cmd.Process] = struct{}{}
	return nil
}

// usage is what the kernel accounted to one reaped child.
type usage struct {
	cpuS   float64 // user + system CPU seconds
	rssMB  float64 // peak resident set
	exited bool    // exited with status 0
}

// waitChild reaps cmd and returns its resource usage. A non-zero exit is
// reported in usage.exited, not as an error; the error is for a failed
// wait.
func waitChild(cmd *exec.Cmd) (usage, error) {
	err := cmd.Wait()
	children.Lock()
	delete(children.set, cmd.Process)
	children.Unlock()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return usage{}, err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("no rusage for pid %d", cmd.Process.Pid)
	}
	return usage{
		cpuS:   tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		exited: cmd.ProcessState.Success(),
	}, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// killChildren kills every live child; their waiters reap them.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for p := range children.set {
		_ = p.Kill() // already exiting is fine
	}
}
