package hw

import (
	"vmgrid/internal/sim"
)

// Disk is a simulated disk device: a FIFO request queue in front of a
// head that charges seek time plus size/bandwidth per request. Requests
// issued while the device is busy wait their turn, so concurrent I/O
// streams slow each other down, as they do on real hardware.
type Disk struct {
	k     *sim.Kernel
	spec  DiskSpec
	queue []diskReq // waiting requests are queue[head:]
	head  int
	busy  bool

	// inService is the completion of the request being serviced;
	// completeFn is d.complete, bound once so a request schedules no
	// new closure.
	inService  func()
	completeFn func()

	requests  uint64
	bytesRead uint64
}

type diskReq struct {
	size       int64
	sequential bool
	done       func()
}

// NewDisk creates a disk device on the kernel.
func NewDisk(k *sim.Kernel, spec DiskSpec) *Disk {
	d := &Disk{k: k, spec: spec}
	d.completeFn = d.complete
	return d
}

// Spec returns the device's static description.
func (d *Disk) Spec() DiskSpec { return d.spec }

// Requests returns the number of requests completed or in flight.
func (d *Disk) Requests() uint64 { return d.requests }

// BytesTransferred returns total bytes moved through the device.
func (d *Disk) BytesTransferred() uint64 { return d.bytesRead }

// QueueLen returns the number of requests waiting (not counting the one
// in service).
func (d *Disk) QueueLen() int { return len(d.queue) - d.head }

// Submit enqueues a transfer of size bytes and invokes done when it
// completes. Each Submit pays the device's seek time.
func (d *Disk) Submit(size int64, done func()) {
	d.submit(diskReq{size: max64(size, 0), done: done})
}

// SubmitSequential enqueues a transfer that skips the seek charge — used
// for streaming access patterns like whole-image copies where the head
// does not reposition between requests.
func (d *Disk) SubmitSequential(size int64, done func()) {
	d.submit(diskReq{size: max64(size, 0), sequential: true, done: done})
}

func (d *Disk) submit(req diskReq) {
	d.requests++
	if d.busy {
		if len(d.queue) == cap(d.queue) && d.head > 0 {
			// Reuse the popped prefix instead of growing the array.
			n := copy(d.queue, d.queue[d.head:])
			clear(d.queue[n:])
			d.queue, d.head = d.queue[:n], 0
		}
		d.queue = append(d.queue, req)
		return
	}
	d.start(req)
}

func (d *Disk) serviceTime(size int64, sequential bool) sim.Duration {
	t := sim.DurationOf(float64(size) / d.spec.BandwidthBps)
	if !sequential {
		t += d.spec.SeekTime
	}
	return t
}

func (d *Disk) start(req diskReq) {
	d.busy = true
	d.bytesRead += uint64(req.size)
	d.inService = req.done
	d.k.After(d.serviceTime(req.size, req.sequential), d.completeFn)
}

func (d *Disk) complete() {
	done := d.inService
	d.inService = nil
	d.busy = false
	// Start the next queued request before running the completion
	// callback: a stream that resubmits from its callback must go to
	// the back of the line, not cut in front of waiting requests.
	d.next()
	if done != nil {
		done()
	}
}

func (d *Disk) next() {
	if d.busy || d.head == len(d.queue) {
		return
	}
	req := d.queue[d.head]
	d.queue[d.head] = diskReq{}
	d.head++
	if d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
	}
	d.start(req)
}

// ReadTime returns the unloaded service time for a non-sequential
// transfer of size bytes — useful for analytic assertions in tests.
func (d *Disk) ReadTime(size int64) sim.Duration {
	return d.serviceTime(size, false)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
