// Command pbench is vmgrid's benchmark. It measures the program from
// outside only: the simulator workloads call the public
// internal/experiments runners as cmd/gridbench does, and the daemon
// workload drives a real vmgridd process over loopback TCP with
// wire.Client.
//
// Workloads:
//
//	paper       Figure 1, Table 1 and Table 2 at the paper's sample counts
//	resilience  Ablations G-J (recovery, partition, balance, delta), one
//	            sample per cell
//	daemon      vmgridd -demo -chunked: a closed-loop writer running
//	            session lifecycles beside an open-loop top/status/ping
//	            reader
//
// BENCHMARK.json gates paper and resilience only. The daemon workload's
// times are set by how fast the host reschedules two processes that take
// turns on a socket, and they move with the host's CPU steal several
// times as much as the simulators' compute does, so daemon is run by hand
// and its layers are measured in every traced run.
//
// Usage (perfbench/run.py builds the binaries and runs this):
//
//	pbench -workload paper|resilience|daemon -seed N -seconds S -trace 0|1
//
// With -trace 0 each run repeats fresh passes of its workload for S
// seconds (at least three) and prints every end-to-end metric, and the
// daemon workload its request latencies as well. With
// -trace 1 it sweeps every layer once, whatever the workload, and prints
// every per-layer metric. Every run checks its outputs: simulator tables
// against perfbench/expected.json, daemon sessions and final state
// against the lifecycle they ran. The last line of standard output is
// the JSON result; the exit status is 1 if any check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// minPasses is the fewest passes an end-to-end run makes, so that every
// reported median has at least three samples behind it.
const minPasses = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	root     string // repository checkout
	self     string // this executable, for simulator workers
	vmgridd  string // built beside this executable
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()
	if err := run(); err != nil {
		killChildren()
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "paper, resilience or daemon")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds of passes to measure")
	trace := flag.Int("trace", 0, "1 sweeps the layers and prints the per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	worker := flag.Bool("worker", false, "run one simulator pass as a worker process")
	rec := flag.Bool("record", false, "regenerate "+expectedPath+" from the current tables")
	flag.Parse()

	self, err := os.Executable()
	if err != nil {
		return err
	}
	o := options{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		root: *root, self: self, vmgridd: filepath.Join(filepath.Dir(self), "vmgridd"),
	}
	switch {
	case *rec:
		return record(o.root, simWorkers)
	case *worker:
		return simWorker(os.Stdout, o.root, o.workload, o.seed)
	}

	var res *result
	specs := endToEnd
	switch {
	case *trace == 1:
		specs = perLayer
		res, err = traceRun(os.Stdout, o)
	case o.workload == "paper" || o.workload == "resilience":
		res, err = runSimWorkload(os.Stdout, o)
	case o.workload == "daemon":
		specs = append(endToEnd[:len(endToEnd):len(endToEnd)], daemonEndToEnd...)
		res, err = runDaemonWorkload(os.Stdout, o)
	default:
		return fmt.Errorf("unknown workload %q (want paper, resilience or daemon)", o.workload)
	}
	if err != nil {
		return err
	}
	if err := res.emit(os.Stdout, specs); err != nil {
		return err
	}
	if res.failed > 0 {
		os.Exit(1)
	}
	return nil
}
