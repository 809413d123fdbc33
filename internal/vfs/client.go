package vfs

import (
	"fmt"

	"vmgrid/internal/lru"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// Config tunes a client proxy.
type Config struct {
	// Rsize is the maximum bytes per read RPC.
	Rsize int64
	// Prefetch is the window fetched on a miss (≥ Rsize enables the
	// proxy prefetching engine of Figure 2; == Rsize disables it).
	Prefetch int64
	// CacheBytes is the proxy's block cache capacity (0 disables
	// caching).
	CacheBytes int64
	// PerOpCost is the client-side cost charged on every read
	// operation, hit or miss: the in-guest NFS client plus the
	// user-level proxy crossing. The paper's Table 1 shows this as the
	// PVFS rows' inflated system time. Loopback transports already
	// charge a stack latency, so their preset leaves this zero.
	PerOpCost sim.Duration
	// Trace, when non-nil, records a span per RPC and the client's
	// counters into the shared observability layer.
	Trace *obs.Tracer
	// Ctx, when valid, parents the RPC spans under the owning session's
	// causal tree, so block waits show up on its critical path.
	Ctx obs.SpanContext
	// Fence, when non-nil, is evaluated before every write RPC is
	// issued; a non-nil error fails the RPC without touching the
	// transport. Sessions thread fencing tokens through it so a
	// superseded incarnation's writes are rejected instead of
	// overwriting state owned by its successor.
	Fence func() error
}

// Presets matching the paper's three deployment points.

// LoopbackNFSConfig models a kernel NFS client over the loopback:
// 16 KB transfers with standard client readahead (4 pages) and a small
// page-cache window. No user-level proxy sits on this path, so there is
// no per-operation proxy cost — the stack latency lives in the
// transport.
func LoopbackNFSConfig() Config {
	return Config{Rsize: 16 << 10, Prefetch: 64 << 10, CacheBytes: 4 << 20}
}

// LANConfig models a PVFS proxy to a data server on the same LAN.
func LANConfig() Config {
	return Config{
		Rsize: 32 << 10, Prefetch: 128 << 10, CacheBytes: 64 << 20,
		PerOpCost: 1200 * sim.Microsecond,
	}
}

// WANConfig models a PVFS proxy to a server across the wide area, where
// aggressive prefetching amortizes the round trip.
func WANConfig() Config {
	return Config{
		Rsize: 32 << 10, Prefetch: 192 << 10, CacheBytes: 128 << 20,
		PerOpCost: 1200 * sim.Microsecond,
	}
}

func (c Config) validate() error {
	if c.Rsize <= 0 {
		return fmt.Errorf("vfs: rsize %d", c.Rsize)
	}
	if c.Prefetch < c.Rsize {
		return fmt.Errorf("vfs: prefetch %d < rsize %d", c.Prefetch, c.Rsize)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("vfs: cache %d", c.CacheBytes)
	}
	return nil
}

// Client is a per-session proxy: it caches and prefetches blocks from
// one server over one transport. RPCs are issued one at a time (FIFO),
// like a synchronous NFS client, and each RPC has exactly one attempt:
// a failed one completes its read or write anyway and is counted in
// TransportErrors (a soft mount).
//
// The data plane is allocation-free at steady state: RPCs and
// multi-span reads run through freelisted call/readOp structs whose
// callbacks are bound once at allocation, the block cache is an
// lru.Blocks keyed by the file id interned at Open, and the miss walk
// reuses client-owned scratch buffers. A fully cached read costs two
// pooled kernel events and nothing else.
type Client struct {
	k   *sim.Kernel
	t   Transport
	cfg Config

	blocks *lru.Blocks // the block cache: CacheBytes/Rsize blocks

	queue  []*call
	qhead  int
	inCall bool

	hits, misses  uint64
	bytesFetched  uint64
	transportErrs uint64

	// Cached counter; the nil counter of a nil Trace makes every
	// recording a single pointer test.
	mRPCs *obs.Counter

	// freelists and scratch buffers for the zero-alloc read path
	freeCalls      *call
	freeReads      *readOp
	scratchMissing []int64
	scratchSpans   [][2]int64
}

// NewClient creates a proxy over transport t.
func NewClient(k *sim.Kernel, t Transport, cfg Config) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Client{
		k:      k,
		t:      t,
		cfg:    cfg,
		blocks: lru.NewBlocks(int(cfg.CacheBytes / cfg.Rsize)),
		mRPCs:  cfg.Trace.Metrics().Counter("vfs.rpcs"),
	}, nil
}

// Hits returns blocks served from the proxy cache.
func (c *Client) Hits() uint64 { return c.hits }

// Misses returns blocks that required a fetch.
func (c *Client) Misses() uint64 { return c.misses }

// BytesFetched returns the total bytes pulled from the server.
func (c *Client) BytesFetched() uint64 { return c.bytesFetched }

// TransportErrors returns how many RPCs failed (server unreachable or
// unknown file). Reads still complete — like a soft-mounted NFS client
// returning EIO — so callers must check this to detect data loss.
func (c *Client) TransportErrors() uint64 { return c.transportErrs }

// call is one queued RPC, pooled on the client freelist. Its callbacks
// are bound once when the struct is first allocated, so a steady-state
// RPC issues with zero allocations. A read span completes its owning
// read (owner != nil); a write fires wdone after the server's ack.
type call struct {
	c          *Client
	op         string
	file       string
	off, bytes int64

	owner *readOp // read span: countdown on the owning read
	wdone func()  // write ack

	sp obs.Span

	replyFn  func(error) // bound to reply: the transport's completion
	startFn  func()      // bound to start; what the queue runs
	nextFree *call
}

func (c *Client) getCall() *call {
	l := c.freeCalls
	if l == nil {
		l = &call{c: c}
		l.replyFn = l.reply
		l.startFn = l.start
		return l
	}
	c.freeCalls = l.nextFree
	l.nextFree = nil
	return l
}

func (c *Client) putCall(l *call) {
	l.op, l.file = "", ""
	l.off, l.bytes = 0, 0
	l.owner = nil
	l.wdone = nil
	l.sp = obs.Span{}
	l.nextFree = c.freeCalls
	c.freeCalls = l
}

// start runs when the call reaches the head of the RPC queue: it issues
// the RPC under its own span, unless the fence refuses a write.
func (l *call) start() {
	c := l.c
	if l.op != "read" && c.cfg.Fence != nil {
		if err := c.cfg.Fence(); err != nil {
			l.settle(err)
			return
		}
	}
	c.mRPCs.Inc()
	l.sp = c.cfg.Trace.BeginChild(c.cfg.Ctx, "vfs", "rpc", l.op)
	if l.op == "read" {
		c.bytesFetched += uint64(l.bytes)
		c.t.Read(l.file, l.off, l.bytes, l.replyFn)
		return
	}
	c.t.Write(l.file, l.off, l.bytes, l.replyFn)
}

// reply ends the RPC with the server's answer.
func (l *call) reply(err error) {
	l.sp.EndErr(err)
	l.settle(err)
}

// settle finishes the RPC once: on its reply, or when the fence refuses
// it.
func (l *call) settle(err error) {
	c := l.c
	c.noteErr(err)
	if o := l.owner; o != nil {
		c.callDone()
		c.putCall(l)
		o.outstanding--
		if o.outstanding == 0 {
			done := o.done
			c.putRead(o)
			if done != nil {
				done()
			}
		}
		return
	}
	done := l.wdone
	c.callDone()
	c.putCall(l)
	if done != nil {
		done()
	}
}

// readOp coordinates one Backend read across its missing spans, pooled
// like call. afterCostFn is the PerOpCost continuation, bound once.
type readOp struct {
	c           *Client
	f           *RemoteFile
	off, size   int64
	done        func()
	outstanding int
	afterCostFn func()
	nextFree    *readOp
}

func (c *Client) getRead() *readOp {
	o := c.freeReads
	if o == nil {
		o = &readOp{c: c}
		o.afterCostFn = o.afterCost
		return o
	}
	c.freeReads = o.nextFree
	o.nextFree = nil
	return o
}

func (c *Client) putRead(o *readOp) {
	o.f = nil
	o.off, o.size = 0, 0
	o.done = nil
	o.outstanding = 0
	o.nextFree = c.freeReads
	c.freeReads = o
}

func (o *readOp) afterCost() { o.c.readAfterClientCost(o) }

func (c *Client) noteErr(err error) {
	if err != nil {
		c.transportErrs++
	}
}

// Open returns a Backend for the named remote file of the given size.
// Handles opened on one name share its cached blocks.
func (c *Client) Open(file string, size int64) *RemoteFile {
	return &RemoteFile{client: c, file: file, id: c.blocks.Intern(file), size: size}
}

// enqueue serializes RPC issue.
func (c *Client) enqueue(l *call) {
	if c.inCall {
		c.queue = append(c.queue, l)
		return
	}
	c.inCall = true
	l.start()
}

func (c *Client) callDone() {
	if c.qhead >= len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
		c.inCall = false
		return
	}
	next := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	next.start()
}

// RemoteFile is a storage.Backend served by the proxy. Offsets must be
// non-negative.
type RemoteFile struct {
	client *Client
	file   string
	id     int32 // interned name, the block cache's file index
	size   int64
}

var _ storage.Backend = (*RemoteFile)(nil)

// Name implements storage.Backend.
func (f *RemoteFile) Name() string { return "vfs:" + f.file }

// Size implements storage.Backend.
func (f *RemoteFile) Size() int64 { return f.size }

// Read implements storage.Backend: walk the covered blocks, fetch the
// missing ones (prefetch-window at a time), and complete when every
// block is resident.
func (f *RemoteFile) Read(off, size int64, done func()) {
	f.client.read(f, off, size, done)
}

// ReadSequential implements storage.Backend (the prefetcher already
// exploits sequentiality).
func (f *RemoteFile) ReadSequential(off, size int64, done func()) {
	f.client.read(f, off, size, done)
}

// Write implements storage.Backend as one write-through RPC: done fires
// on the server's acknowledgement. Written blocks become resident in the
// proxy cache.
func (f *RemoteFile) Write(off, size int64, done func()) {
	c := f.client
	if size <= 0 {
		size = 1
	}
	rsize := c.cfg.Rsize
	c.blocks.InsertRange(f.id, off/rsize, (off+size-1)/rsize)
	if end := off + size; end > f.size {
		f.size = end
	}

	l := c.getCall()
	l.op = "write"
	l.file = f.file
	l.off, l.bytes = off, size
	l.wdone = done
	c.enqueue(l)
}

// read satisfies [off, off+size) through the cache.
func (c *Client) read(f *RemoteFile, off, size int64, done func()) {
	o := c.getRead()
	o.f, o.off, o.size, o.done = f, off, size, done
	if c.cfg.PerOpCost > 0 {
		c.k.After(c.cfg.PerOpCost, o.afterCostFn)
		return
	}
	c.readAfterClientCost(o)
}

// readAfterClientCost is the post-PerOpCost body of a read: one pass
// over the covered blocks collects the missing runs into client scratch,
// a second pass batches them into prefetch-window-aligned spans, and
// each span becomes one pooled RPC. Both scratch buffers are fully
// consumed before this returns (the kernel is single-threaded), so they
// are safe to share across every read on the client.
func (c *Client) readAfterClientCost(o *readOp) {
	f, off, size := o.f, o.off, o.size
	if size <= 0 {
		size = 1
	}
	rsize := c.cfg.Rsize
	first := off / rsize
	last := (off + size - 1) / rsize

	// Collect the missing block runs.
	missing := c.blocks.TouchRange(f.id, first, last, c.scratchMissing[:0])
	c.scratchMissing = missing
	c.hits += uint64(last - first + 1 - int64(len(missing)))
	c.misses += uint64(len(missing))
	if len(missing) == 0 {
		done := o.done
		c.putRead(o)
		if done != nil {
			c.k.After(hitCost, done)
		}
		return
	}

	// Fetch prefetch-window-aligned spans covering the missing blocks.
	window := c.cfg.Prefetch / rsize
	if window < 1 {
		window = 1
	}
	spans := c.scratchSpans[:0]
	i := 0
	for i < len(missing) {
		start := (missing[i] / window) * window
		end := start + window
		spans = append(spans, [2]int64{start, window})
		for i < len(missing) && missing[i] < end {
			i++
		}
	}
	c.scratchSpans = spans

	o.outstanding = len(spans)
	for _, span := range spans {
		startBlock, count := span[0], span[1]
		c.blocks.InsertRange(f.id, startBlock, startBlock+count-1)
		l := c.getCall()
		l.op = "read"
		l.file = f.file
		l.off = startBlock * rsize
		l.bytes = count * rsize
		l.owner = o
		c.enqueue(l)
	}
}

// hitCost is the proxy's in-memory service time for a fully cached read.
const hitCost = 30 * sim.Microsecond
