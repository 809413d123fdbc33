package vfs

import (
	"errors"
	"fmt"

	"vmgrid/internal/lru"
	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// Sentinel errors callers match with errors.Is.
var (
	// ErrUnavailable wraps the last transport error once the retry policy
	// is exhausted: the server is treated as down, not merely slow.
	ErrUnavailable = errors.New("vfs: server unavailable")
	// ErrTimeout marks an RPC attempt abandoned by the per-op timeout
	// (the reply may still be in flight; it is ignored if it arrives).
	ErrTimeout = errors.New("vfs: rpc timeout")
)

// A retry.Policy adds fault tolerance to a client: each RPC attempt
// gets a per-op timeout (Policy.Timeout — it must exceed the worst-case
// RPC service time, queueing included, or healthy-but-slow servers will
// look dead), and failed or timed-out attempts are reissued with capped
// exponential backoff (base 10 ms when unset) before the client gives
// up and reports ErrUnavailable. The zero value keeps the historical
// behavior: one attempt, no timeout (a lost RPC then hangs forever, so
// any lossy transport needs a Timeout).

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
	// WriteBack enables the proxy's write buffer (Figure 2): writes are
	// acknowledged once buffered and drain to the server asynchronously,
	// up to MaxDirty outstanding bytes. Zero MaxDirty with WriteBack set
	// uses a 4 MB default.
	WriteBack bool
	// MaxDirty bounds buffered-but-unacknowledged write data; writers
	// stall beyond it (the throttle real page caches apply).
	MaxDirty int64
	// Retry is the transport fault-tolerance policy (zero = one attempt,
	// no timeout — the presets' historical behavior).
	Retry retry.Policy
	// Trace, when non-nil, records a span per RPC attempt and the
	// client's counters into the shared observability layer.
	Trace *obs.Tracer
	// Ctx, when valid, parents the RPC spans under the owning session's
	// causal tree, so block waits show up on its critical path.
	Ctx obs.SpanContext
	// Fence, when non-nil, is evaluated before every write RPC is issued
	// (write-through and write-back drains alike); a non-nil error fails
	// the RPC without touching the transport. Sessions thread fencing
	// tokens through it so a superseded incarnation's dirty blocks are
	// rejected instead of overwriting state owned by its successor.
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
		WriteBack: true, MaxDirty: 4 << 20,
	}
}

// WANConfig models a PVFS proxy to a server across the wide area, where
// aggressive prefetching amortizes the round trip.
func WANConfig() Config {
	return Config{
		Rsize: 32 << 10, Prefetch: 192 << 10, CacheBytes: 128 << 20,
		PerOpCost: 1200 * sim.Microsecond,
		WriteBack: true, MaxDirty: 8 << 20,
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
	if c.MaxDirty < 0 {
		return fmt.Errorf("vfs: max dirty %d", c.MaxDirty)
	}
	if c.Retry.MaxAttempts < 0 || c.Retry.Timeout < 0 ||
		c.Retry.Backoff < 0 || c.Retry.MaxBackoff < 0 {
		return fmt.Errorf("vfs: negative retry policy %+v", c.Retry)
	}
	return nil
}

// Client is a per-session proxy: it caches and prefetches blocks from
// one server over one transport. RPCs are issued one at a time (FIFO),
// like a synchronous NFS client.
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

	hits, misses, remoteOps uint64
	bytesFetched            uint64
	transportErrs           uint64
	retries                 uint64
	lastErr                 error

	// Cached instruments; the nil instruments of a nil Trace make every
	// recording below a single pointer test.
	mRPCs    *obs.Counter
	mRetries *obs.Counter
	mErrs    *obs.Counter
	hRPC     *obs.Histogram

	// write-back state
	dirty        int64
	stalled      []stalledWrite
	flushWaiters []func()

	// freelists and scratch buffers for the zero-alloc read path
	freeCalls      *call
	freeReads      *readOp
	scratchMissing []int64
	scratchSpans   [][2]int64
}

type stalledWrite struct {
	size int64
	ack  func() // the writer's done callback (may be nil)
}

// NewClient creates a proxy over transport t.
func NewClient(k *sim.Kernel, t Transport, cfg Config) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.WriteBack && cfg.MaxDirty == 0 {
		cfg.MaxDirty = 4 << 20
	}
	reg := cfg.Trace.Metrics()
	return &Client{
		k:        k,
		t:        t,
		cfg:      cfg,
		blocks:   lru.NewBlocks(int(cfg.CacheBytes / cfg.Rsize)),
		mRPCs:    reg.Counter("vfs.rpcs"),
		mRetries: reg.Counter("vfs.retries"),
		mErrs:    reg.Counter("vfs.transport-errors"),
		hRPC:     reg.Histogram("vfs.rpc-latency"),
	}, nil
}

// Hits returns blocks served from the proxy cache.
func (c *Client) Hits() uint64 { return c.hits }

// Misses returns blocks that required a fetch.
func (c *Client) Misses() uint64 { return c.misses }

// RemoteOps returns the number of RPCs issued.
func (c *Client) RemoteOps() uint64 { return c.remoteOps }

// BytesFetched returns the total bytes pulled from the server.
func (c *Client) BytesFetched() uint64 { return c.bytesFetched }

// TransportErrors returns how many RPCs failed (server unreachable or
// unknown file). Reads still complete — like a soft-mounted NFS client
// returning EIO — so callers must check this to detect data loss.
func (c *Client) TransportErrors() uint64 { return c.transportErrs }

// LastError returns the most recent transport error (nil if none).
func (c *Client) LastError() error { return c.lastErr }

// Retries returns how many RPC attempts were reissued by the retry
// policy (0 without a policy).
func (c *Client) Retries() uint64 { return c.retries }

// vfsBaseBackoff is the historical base backoff applied when the
// policy leaves Backoff zero.
const vfsBaseBackoff = 10 * sim.Millisecond

// call is one queued RPC, pooled on the client freelist. Its callbacks
// are bound once when the struct is first allocated, so a steady-state
// RPC issues with zero allocations. Exactly one of the three completion
// shapes applies: owner != nil (read span), wb (write-back drain), or
// neither (write-through, wdone fires after the ack).
//
// Every attempt of the RPC runs through attempt and ends in reply; the
// retry policy decides there whether to reissue. Without a timeout an
// attempt ends only when its reply arrives, so the bound replyFn is its
// completion. With one, a reply can arrive after its attempt timed out
// — even after the call settled and went back to the freelist — so each
// timed attempt completes through its own token instead.
type call struct {
	c          *Client
	op         string
	file       string
	off, bytes int64

	owner  *readOp // read span: countdown on the owning read
	wb     bool    // write-back drain: release dirty bytes on settle
	wbSize int64
	wdone  func() // write-through ack

	// the current attempt
	n     int // 1-based
	sp    obs.Span
	began sim.Time

	replyFn   func(error) // bound to reply: an untimed attempt's completion
	attemptFn func()      // bound to attempt: a reissue after backoff
	startFn   func()      // bound to start; what the queue runs
	nextFree  *call
}

func (c *Client) getCall() *call {
	l := c.freeCalls
	if l == nil {
		l = &call{c: c}
		l.replyFn = l.reply
		l.attemptFn = l.attempt
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
	l.wb, l.wbSize = false, 0
	l.wdone = nil
	l.n = 0
	l.sp = obs.Span{}
	l.began = 0
	l.nextFree = c.freeCalls
	c.freeCalls = l
}

// start runs when the call reaches the head of the RPC queue.
func (l *call) start() {
	c := l.c
	if l.op != "read" && c.cfg.Fence != nil {
		if err := c.cfg.Fence(); err != nil {
			l.settle(err)
			return
		}
	}
	c.remoteOps++
	c.mRPCs.Inc()
	if l.op == "read" {
		c.bytesFetched += uint64(l.bytes)
	}
	l.attempt()
}

// attempt issues the RPC's next attempt under its own span.
func (l *call) attempt() {
	c := l.c
	l.n++
	l.sp = c.cfg.Trace.BeginChild(c.cfg.Ctx, "vfs", "rpc", l.op)
	l.began = c.k.Now()
	done := l.replyFn
	if d := c.cfg.Retry.Timeout; d > 0 {
		tok := &token{l: l}
		tok.timer = c.k.After(d, tok.timeout)
		done = tok.reply
	}
	if l.op == "read" {
		c.t.Read(l.file, l.off, l.bytes, done)
		return
	}
	c.t.Write(l.file, l.off, l.bytes, done)
}

// reply ends the current attempt with err and settles the call, unless
// the retry policy reissues it. A server NAK is a definitive reply, not
// a lost message: retrying cannot change the answer. Once no attempts
// remain, the last error is wrapped in ErrUnavailable.
func (l *call) reply(err error) {
	c := l.c
	l.sp.EndErr(err)
	c.hRPC.Observe(c.k.Now().Sub(l.began))
	if err != nil && !errors.Is(err, ErrUnknownFile) {
		p := c.cfg.Retry
		attempts := p.Attempts()
		if l.n < attempts {
			c.retries++
			c.mRetries.Inc()
			c.k.After(p.Delay(l.n, vfsBaseBackoff), l.attemptFn)
			return
		}
		if attempts > 1 {
			err = fmt.Errorf("%w: %w (after %d attempts)", ErrUnavailable, err, l.n)
		}
	}
	l.settle(err)
}

// token is one timed attempt: the first of its reply and its timeout
// ends the attempt, and whichever comes second is ignored.
type token struct {
	l     *call
	timer sim.EventID
	ended bool
}

func (t *token) reply(err error) {
	if t.ended {
		return // a late reply after the timeout
	}
	t.ended = true
	t.l.c.k.Cancel(t.timer)
	t.l.reply(err)
}

func (t *token) timeout() {
	if t.ended {
		return
	}
	t.ended = true
	t.l.reply(fmt.Errorf("%w after %v", ErrTimeout, t.l.c.cfg.Retry.Timeout))
}

// settle finishes the RPC once: after its last attempt, or when the
// fence refuses it before the first.
func (l *call) settle(err error) {
	c := l.c
	c.noteErr(err)
	switch {
	case l.owner != nil:
		o := l.owner
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
	case l.wb:
		size := l.wbSize
		c.putCall(l)
		c.dirty -= size
		c.releaseStalled()
		c.callDone()
	default:
		done := l.wdone
		c.callDone()
		c.putCall(l)
		if done != nil {
			done()
		}
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
		c.mErrs.Inc()
		c.lastErr = err
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

// noopAck stands in for a nil writer callback so the ack event can be
// scheduled without minting a closure.
func noopAck() {}

// Write implements storage.Backend. Without WriteBack it is a
// write-through RPC: done fires on the server's acknowledgement. With
// WriteBack (Figure 2's "write buffers"), done fires once the data is
// buffered — immediately, unless the dirty bound forces a stall — and
// the RPC drains in the background; use Client.Flush for durability.
// Written blocks become resident in the proxy cache either way.
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

	if !c.cfg.WriteBack {
		l.wdone = done
		c.enqueue(l)
		return
	}

	ack := done
	if ack == nil {
		ack = noopAck
	}
	if c.dirty+size > c.cfg.MaxDirty && c.dirty > 0 {
		// Throttle: the ack waits until enough dirty data drains.
		c.stalled = append(c.stalled, stalledWrite{size: size, ack: ack})
	} else {
		c.k.After(hitCost, ack)
	}
	c.dirty += size
	l.wb = true
	l.wbSize = size
	c.enqueue(l)
}

// releaseStalled acknowledges throttled writers whose data now fits and
// wakes flush waiters when the buffer is clean.
func (c *Client) releaseStalled() {
	for len(c.stalled) > 0 {
		head := c.stalled[0]
		// The head's bytes are already counted in dirty; release it once
		// the rest of the buffer leaves room for it.
		if c.dirty-head.size+head.size > c.cfg.MaxDirty && c.dirty > head.size {
			break
		}
		c.stalled = c.stalled[1:]
		c.k.After(hitCost, head.ack)
	}
	if c.dirty == 0 && len(c.flushWaiters) > 0 {
		waiters := c.flushWaiters
		c.flushWaiters = nil
		for _, w := range waiters {
			c.k.After(0, w)
		}
	}
}

// DirtyBytes returns buffered write data not yet on the server.
func (c *Client) DirtyBytes() int64 { return c.dirty }

// Flush invokes done once every buffered write has reached the server
// (immediately if the buffer is clean).
func (c *Client) Flush(done func()) {
	if done == nil {
		return
	}
	if c.dirty == 0 {
		c.k.After(0, done)
		return
	}
	c.flushWaiters = append(c.flushWaiters, done)
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
		if done == nil {
			done = noopAck
		}
		c.k.After(hitCost, done)
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
