package guest

import (
	"errors"
	"fmt"
	"math"

	"vmgrid/internal/sim"

	"vmgrid/internal/storage"
)

// Workload describes a program the guest runs: user CPU work plus the
// privileged-operation and I/O behaviour that determines how much a
// virtual machine monitor slows it down. The rates are calibrated so the
// physical-machine baseline reproduces the paper's measured user/system
// splits (see DESIGN.md §5).
type Workload struct {
	// Name labels the workload in results.
	Name string
	// CPUSeconds is the user work in reference CPU-seconds.
	CPUSeconds float64
	// PrivPerSec is the rate of privileged events (system calls, traps)
	// per CPU-second. These cost NativeCost natively and NativeCost plus
	// the VMM's trap overhead in a VM.
	PrivPerSec float64
	// MemVirtPerSec is the rate of memory-system events (page-table
	// updates, TLB activity) per CPU-second. These are nearly free
	// natively (handled in hardware) but trap into the VMM's shadow
	// page tables — the dominant cost for memory-intensive codes like
	// SPECclimate.
	MemVirtPerSec float64
	// Reads is the number of data-file read operations issued, spread
	// evenly through the CPU work.
	Reads int
	// ReadBytes is the total bytes read across all operations.
	ReadBytes int64
	// Mount names the file system the data reads go to (default "root").
	Mount string
	// RootOps is the number of scratch/root-disk operations (temporary
	// files, library loads) spread through the work. They always target
	// the "root" mount — the VM-state path, which in the paper's PVFS
	// scenario crosses the wide-area network.
	RootOps int
	// RootBytes is the total bytes moved by root operations.
	RootBytes int64
	// Writes is the number of output operations (results written to the
	// data mount — or the root disk's COW diff when no data mount is
	// named), spread through the work like the reads.
	Writes int
	// WriteBytes is the total bytes written.
	WriteBytes int64
}

// Validate reports whether the workload is runnable.
func (w Workload) Validate() error {
	if w.CPUSeconds <= 0 {
		return fmt.Errorf("guest: workload %q: cpu seconds %v", w.Name, w.CPUSeconds)
	}
	if w.Reads < 0 || w.ReadBytes < 0 || w.RootOps < 0 || w.RootBytes < 0 ||
		w.Writes < 0 || w.WriteBytes < 0 {
		return fmt.Errorf("guest: workload %q: negative I/O", w.Name)
	}
	if w.PrivPerSec < 0 || w.MemVirtPerSec < 0 {
		return fmt.Errorf("guest: workload %q: negative event rate", w.Name)
	}
	return nil
}

// SPECseis96 returns a workload shaped like the paper's SPECseis run:
// 16395 s of user work, enough system-call traffic to account for the
// measured 19 s of native system time, light memory-system activity, and
// a seismic dataset streamed from the data mount.
func SPECseis96() Workload {
	return Workload{
		Name:          "SPECseis",
		CPUSeconds:    16395,
		PrivPerSec:    1160, // × NativeCost ≈ 19 s native system time
		MemVirtPerSec: 500,
		Reads:         62000,
		ReadBytes:     480 << 20,
		Mount:         "data",
		RootOps:       3000, // seismic scratch files on the VM root disk
		RootBytes:     96 << 20,
	}
}

// SPECclimate returns a workload shaped like the paper's SPECclimate
// run: 9304 s of user work, almost no system calls (3 s native system
// time), but intense memory-system activity — which is why its VM
// overhead (4%) is higher than SPECseis's (1.2%).
func SPECclimate() Workload {
	return Workload{
		Name:          "SPECclimate",
		CPUSeconds:    9304,
		PrivPerSec:    320, // × NativeCost ≈ 3 s native system time
		MemVirtPerSec: 6600,
		Reads:         10500,
		ReadBytes:     84 << 20,
		Mount:         "data",
		RootOps:       500,
		RootBytes:     16 << 20,
	}
}

// MicroTask returns the synthetic CPU-bound test task of the Figure 1
// microbenchmark: a short spin of pure computation with the incidental
// syscall traffic of a timing loop.
func MicroTask(seconds float64) Workload {
	return Workload{
		Name:          "micro",
		CPUSeconds:    seconds,
		PrivPerSec:    300,
		MemVirtPerSec: 200,
	}
}

// TaskResult reports a finished task.
type TaskResult struct {
	Workload Workload
	// Start and End bound the task's execution in virtual time.
	Start, End sim.Time
	// UserSeconds is the reference CPU work retired (equals the
	// workload's CPUSeconds on success).
	UserSeconds float64
	// IOWait is the total time spent blocked on file I/O.
	IOWait sim.Duration
	// Reads counts completed read operations.
	Reads int
	// Writes counts completed write operations.
	Writes int
	// Err is non-nil if the task failed (e.g. missing mount).
	Err error
}

// ErrCanceled is the error of a task ended by Cancel.
var ErrCanceled = errors.New("guest: task canceled")

// Elapsed returns the wall-clock (virtual) run time.
func (r TaskResult) Elapsed() sim.Duration { return r.End.Sub(r.Start) }

// SysSeconds returns everything that was not user work: privileged
// handling, I/O waiting, and virtualization overhead. The paper's
// "system time" maps onto this (plus scheduler noise) when the machine
// is otherwise idle.
func (r TaskResult) SysSeconds() float64 {
	s := r.Elapsed().Seconds() - r.UserSeconds
	if s < 0 {
		return 0
	}
	return s
}

type taskState int

const (
	taskRunning taskState = iota + 1
	taskBlocked
	taskDone
)

// ioOp is one planned I/O operation: when the task's retired work crosses
// threshold, it blocks to transfer bytes at offset on mount.
type ioOp struct {
	threshold float64
	mount     string
	offset    int64
	bytes     int64
	write     bool
}

// ioPlan streams a workload's I/O schedule one op at a time: a
// three-way merge of its data-read, root and data-write streams, each
// spread evenly through the work. Each stream's thresholds strictly
// increase, so the merge state (the next index and threshold of each
// stream) yields the work-ordered plan without materializing it. The
// threshold formulas are kept bitwise-identical to the historical
// sort-based builder so existing experiment outputs do not move.
type ioPlan struct {
	w                          *Workload
	dataMount                  string
	perRead, perRoot, perWrite int64
	ri, oi, wi                 int     // ops taken from each stream
	rt, ot, wt                 float64 // each stream's next threshold; +Inf when spent

	op   ioOp // the current op, valid while more is set
	more bool
}

// start points the plan at w's first op.
func (p *ioPlan) start(w *Workload) {
	*p = ioPlan{w: w, dataMount: w.Mount}
	if p.dataMount == "" {
		p.dataMount = "root"
	}
	if w.Reads > 0 {
		p.perRead = w.ReadBytes / int64(w.Reads)
	}
	if w.RootOps > 0 {
		p.perRoot = w.RootBytes / int64(w.RootOps)
	}
	if w.Writes > 0 {
		p.perWrite = w.WriteBytes / int64(w.Writes)
	}
	inf := math.Inf(1)
	p.rt, p.ot, p.wt = inf, inf, inf
	if w.Reads > 0 {
		p.rt = w.CPUSeconds * float64(1) / float64(w.Reads+1)
	}
	if w.RootOps > 0 {
		p.ot = w.CPUSeconds * (float64(1)/float64(w.RootOps+1) + 1e-9)
	}
	if w.Writes > 0 {
		p.wt = w.CPUSeconds * (float64(1)/float64(w.Writes+1) + 2e-9)
	}
	p.advance()
}

// advance replaces the current op with the next one in work order, or
// clears more once every stream is spent.
func (p *ioPlan) advance() {
	w := p.w
	if p.ri+p.oi+p.wi == w.Reads+w.RootOps+w.Writes {
		p.op, p.more = ioOp{}, false
		return
	}
	p.more = true
	inf := math.Inf(1)
	switch {
	case p.rt <= p.ot && p.rt <= p.wt:
		p.op = ioOp{
			threshold: p.rt, mount: p.dataMount,
			offset: p.perRead * int64(p.ri), bytes: p.perRead,
		}
		p.ri++
		p.rt = inf
		if p.ri < w.Reads {
			p.rt = w.CPUSeconds * float64(p.ri+1) / float64(w.Reads+1)
		}
	case p.ot <= p.wt:
		p.op = ioOp{
			threshold: p.ot, mount: "root",
			offset: p.perRoot * int64(p.oi), bytes: p.perRoot,
		}
		p.oi++
		p.ot = inf
		if p.oi < w.RootOps {
			p.ot = w.CPUSeconds * (float64(p.oi+1)/float64(w.RootOps+1) + 1e-9)
		}
	default:
		p.op = ioOp{
			threshold: p.wt, mount: p.dataMount,
			offset: p.perWrite * int64(p.wi), bytes: p.perWrite,
			write: true,
		}
		p.wi++
		p.wt = inf
		if p.wi < w.Writes {
			p.wt = w.CPUSeconds * (float64(p.wi+1)/float64(w.Writes+1) + 2e-9)
		}
	}
}

// Task is a workload executing in the guest.
type Task struct {
	os       *OS
	workload Workload
	state    taskState
	tracker  *sim.WorkTracker
	done     func(TaskResult)

	start      sim.Time
	ioStart    sim.Time
	ioWait     sim.Duration
	readsDone  int
	writesDone int
	plan       ioPlan // positioned at the next (or in-flight) I/O
	parked     bool   // no poll armed: the CPU is off, or the crossing is past the clock's end

	// Pre-bound callbacks, created once per task. The I/O loop runs tens
	// of thousands of times per workload; minting fresh closures for each
	// poll, issue, and completion was a dominant allocation source. Only
	// one planned I/O is ever outstanding, so sharing them is safe.
	pollFn     func()
	issueFn    func()
	completeFn func()
	ioMount    storage.Backend // mount resolved when the current op blocked
}

// Run starts a workload in the guest and invokes done with the result
// when it finishes. It returns an error immediately for invalid
// workloads or missing mounts.
func (o *OS) Run(w Workload, done func(TaskResult)) (*Task, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	t := &Task{os: o, workload: w, done: done, start: o.Kernel().Now()}
	t.pollFn = t.pollNext
	t.issueFn = t.issueIO
	t.completeFn = t.completeIO
	t.plan.start(&t.workload)
	// Every mount the plan touches must be attached. The first op's
	// mount goes first, so the error names the mount the plan meets
	// first.
	if t.plan.more {
		if err := o.needMount(w.Name, t.plan.op.mount); err != nil {
			return nil, err
		}
	}
	if w.Reads+w.Writes > 0 {
		if err := o.needMount(w.Name, t.plan.dataMount); err != nil {
			return nil, err
		}
	}
	if w.RootOps > 0 {
		if err := o.needMount(w.Name, "root"); err != nil {
			return nil, err
		}
	}
	t.state = taskRunning
	t.tracker = sim.NewWorkTracker(o.Kernel(), w.CPUSeconds, t.cpuDone)
	o.tasks = append(o.tasks, t)
	o.updateActivity()
	t.scheduleNextIO()
	return t, nil
}

// State helpers for tests and monitoring.

// Running reports whether the task currently wants CPU.
func (t *Task) Running() bool { return t.state == taskRunning }

// Done reports whether the task finished.
func (t *Task) Done() bool { return t.state == taskDone }

// Cancel ends an unfinished task: it stops taking CPU, and done runs
// once, with ErrCanceled. An I/O it has in flight still completes at
// its mount, but the task ignores the completion, as it does a pending
// poll. Cancel on a finished task does nothing.
func (t *Task) Cancel() {
	if t.state != taskDone {
		t.fail(ErrCanceled)
	}
}

// Progress returns the fraction of user work completed.
func (t *Task) Progress() float64 {
	if t.tracker == nil {
		return 0
	}
	return t.tracker.Consumed() / t.workload.CPUSeconds
}

// scheduleNextIO arranges for the task to block for a read when it
// crosses the next planned I/O point.
func (t *Task) scheduleNextIO() {
	if !t.plan.more {
		return
	}
	t.pollNext()
}

// pollNext watches for the work tracker crossing the next planned op's
// threshold. Rather than polling on a timer, it predicts the crossing
// from the current rate and re-predicts whenever it fires early. The
// threshold is read from the plan at fire time: the plan only advances
// when an op completes, which in turn ends the poll chain, so the value
// is the same one the chain started with.
func (t *Task) pollNext() {
	if t.state != taskRunning || t.tracker == nil || t.tracker.Finished() {
		return
	}
	if !t.plan.more {
		return
	}
	threshold := t.plan.op.threshold
	k := t.os.Kernel()
	consumed := t.tracker.Consumed()
	if consumed >= threshold {
		t.blockForIO()
		return
	}
	var wait sim.Duration
	switch rate := t.tracker.Rate(); {
	case rate > 0:
		// sim.DurationOf, with the range checked before the conversion:
		// a crossing later than the clock can hold never comes at this
		// rate, so the task parks until the next rate re-arms the poll.
		us := math.Round((threshold - consumed) / rate * float64(sim.Second))
		if !(us < float64(math.MaxInt64-int64(k.Now()))) {
			t.parked = true
			return
		}
		wait = max(sim.Duration(us), sim.Microsecond)
	case t.os.cpu.Off():
		// Powered off (shut down or crashed; a migrated guest asks the VM
		// that adopted it): nothing changes until the CPU starts again,
		// and the rate it then delivers re-arms the poll.
		t.parked = true
		return
	default:
		// Stalled (VM suspended or preempted): check again in a while.
		wait = 100 * sim.Millisecond
	}
	k.After(wait, t.pollFn)
}

// blockForIO parks the task and issues the next planned read.
func (t *Task) blockForIO() {
	op := &t.plan.op
	mount, ok := t.os.mounts[op.mount]
	if !ok {
		t.fail(fmt.Errorf("guest: mount %q detached mid-run", op.mount))
		return
	}
	t.state = taskBlocked
	t.ioStart = t.os.Kernel().Now()
	t.tracker.SetRate(0)
	t.os.updateActivity()

	// The mount is resolved now (fail-fast when detached) but used after
	// the provider's I/O penalty elapses, as before.
	t.ioMount = mount
	t.os.Kernel().After(t.os.cpu.IOPenalty(), t.issueFn)
}

// issueIO hands the current planned op to its mount once the per-op
// penalty has been charged.
func (t *Task) issueIO() {
	if t.state != taskBlocked {
		return // canceled during the penalty
	}
	op := &t.plan.op
	if op.write {
		t.ioMount.Write(op.offset, op.bytes, t.completeFn)
		return
	}
	t.ioMount.Read(op.offset, op.bytes, t.completeFn)
}

// completeIO is the completion callback of the in-flight planned op.
func (t *Task) completeIO() {
	if t.plan.op.write {
		t.writesDone++
	} else {
		t.readsDone++
	}
	t.plan.advance()
	t.ioWait += t.os.Kernel().Now().Sub(t.ioStart)
	if t.state != taskBlocked {
		return // canceled while blocked
	}
	t.state = taskRunning
	t.os.updateActivity()
	t.scheduleNextIO()
}

// cpuDone fires when all user work has been retired.
func (t *Task) cpuDone() {
	t.state = taskDone
	t.os.userSeconds += t.workload.CPUSeconds
	res := TaskResult{
		Workload:    t.workload,
		Start:       t.start,
		End:         t.os.Kernel().Now(),
		UserSeconds: t.workload.CPUSeconds,
		IOWait:      t.ioWait,
		Reads:       t.readsDone,
		Writes:      t.writesDone,
	}
	t.os.remove(t)
	if t.done != nil {
		t.done(res)
	}
}

func (t *Task) fail(err error) {
	t.state = taskDone
	if t.tracker != nil {
		t.tracker.Abort()
	}
	res := TaskResult{
		Workload: t.workload,
		Start:    t.start,
		End:      t.os.Kernel().Now(),
		Err:      err,
	}
	t.os.remove(t)
	if t.done != nil {
		t.done(res)
	}
}
