// Package gram is the resource-management layer of the grid middleware
// (after Globus GRAM): per-site gatekeepers that authenticate and
// dispatch jobs, a globusrun-style client that submits over the network
// and waits, and explicit file staging (GASS/GridFTP-style) as the
// alternative to the virtual file system's on-demand transfers.
//
// The paper's Table 2 measures VM startup "using globusrun within a
// LAN"; the control-path costs here (authentication, job-manager
// startup, round trips) are what sits between the raw device times and
// the measured wall clock.
package gram

import (
	"errors"
	"fmt"

	"vmgrid/internal/chunk"
	"vmgrid/internal/hostos"
	"vmgrid/internal/netsim"
	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// Control-path calibration (Globus 2.0 era, GSI authentication).
const (
	// AuthWork is the gatekeeper's CPU work to authenticate a request
	// and fork a job manager (reference seconds).
	AuthWork = 0.9
	// ClientSetupWork is the client-side proxy/handshake work.
	ClientSetupWork = 0.4
	// ControlMsgBytes sizes the control-channel messages.
	ControlMsgBytes = 4 << 10
)

// Errors callers match with errors.Is.
var (
	ErrNoGatekeeper = errors.New("gram: no gatekeeper at node")
	// ErrUnavailable wraps failures that occurred before the job was
	// dispatched (the gatekeeper could not be reached), so the job never
	// ran and resubmitting is safe. Failures after dispatch — a lost
	// completion notification — are NOT wrapped: the job may have run.
	ErrUnavailable = errors.New("gram: gatekeeper unavailable")
	// ErrCancelled is what a stage whose Transfer was cancelled reports.
	ErrCancelled = errors.New("gram: stage cancelled")
)

// Job is the unit of dispatch: middleware-visible work that eventually
// calls done exactly once.
type Job struct {
	// Name labels the job (e.g. "start-vm:rh72").
	Name string
	// Run performs the work; it must invoke done(err) exactly once. ctx
	// is the gatekeeper's handler-span context, so work done on the far
	// side of the submit parents under the server-side span of the RPC.
	Run func(ctx obs.SpanContext, done func(err error))
	// Ctx is the submitter's span context. The client's submit span
	// parents under it, and the gatekeeper's handler span re-parents
	// under the submit span — the trace crosses the wire with the job.
	// Zero keeps every span flat, as before causality existed.
	Ctx obs.SpanContext
	// Fence, when non-nil, is evaluated at the gatekeeper after
	// authentication and immediately before Run; a non-nil error rejects
	// the job without running it. Supervisors thread fencing tokens
	// through it so a restore dispatched before a newer failover cannot
	// execute against a superseded epoch.
	Fence func() error
}

// Gatekeeper accepts jobs at one host, the way a Globus gatekeeper plus
// job manager would.
type Gatekeeper struct {
	host  *hostos.Host
	trace *obs.Tracer
}

// NewGatekeeper starts a gatekeeper on host.
func NewGatekeeper(host *hostos.Host) *Gatekeeper {
	return &Gatekeeper{host: host}
}

// Host returns the gatekeeper's machine.
func (g *Gatekeeper) Host() *hostos.Host { return g.host }

// SetTracer records a server-side handler span per accepted job into
// tr, re-parented under the submitting side's context when the job
// carries one. A nil tracer (the default) disables tracing.
func (g *Gatekeeper) SetTracer(tr *obs.Tracer) { g.trace = tr }

// Submit runs a job locally: authenticate (CPU work on the host — a
// loaded machine authenticates slowly, part of Table 2's variance), then
// execute. done receives the job's error.
func (g *Gatekeeper) Submit(job Job, done func(error)) error {
	if job.Run == nil {
		return fmt.Errorf("gram: job %q with no body", job.Name)
	}
	// The handler span re-parents under the submitter's context: the
	// client RPC span on one node, the server-side dispatch on another,
	// one causal tree across the wire.
	hsp := g.trace.BeginChild(job.Ctx, "gram", "server", "gatekeeper:"+job.Name)
	proc := g.host.Spawn("gatekeeper:" + job.Name)
	proc.RunWork(AuthWork, func() {
		proc.Exit()
		if job.Fence != nil {
			if err := job.Fence(); err != nil {
				hsp.EndErr(err)
				if done != nil {
					done(err)
				}
				return
			}
		}
		job.Run(hsp.Context(), func(err error) {
			hsp.EndErr(err)
			if done != nil {
				done(err)
			}
		})
	})
	return nil
}

// Registry maps network nodes to gatekeepers (the service lookup a real
// deployment does via well-known ports).
type Registry struct {
	gatekeepers map[string]*Gatekeeper
}

// NewRegistry creates an empty gatekeeper registry.
func NewRegistry() *Registry {
	return &Registry{gatekeepers: make(map[string]*Gatekeeper)}
}

// Add registers a gatekeeper at a network node name.
func (r *Registry) Add(node string, g *Gatekeeper) { r.gatekeepers[node] = g }

// At returns the gatekeeper at node, or nil.
func (r *Registry) At(node string) *Gatekeeper { return r.gatekeepers[node] }

// Client submits jobs across the network — the globusrun command line.
type Client struct {
	net      *netsim.Network
	registry *Registry
	node     string
	host     *hostos.Host
	trace    *obs.Tracer
}

// SetTracer records a span per submission (the full globusrun
// envelope) into tr. A nil tracer (the default) disables tracing.
func (c *Client) SetTracer(tr *obs.Tracer) { c.trace = tr }

// NewClient creates a submitting client at clientNode, running its
// local work on clientHost.
func NewClient(net *netsim.Network, registry *Registry, clientNode string, clientHost *hostos.Host) (*Client, error) {
	if net.Node(clientNode) == nil {
		return nil, fmt.Errorf("gram: client node %q not attached", clientNode)
	}
	return &Client{net: net, registry: registry, node: clientNode, host: clientHost}, nil
}

// Submit sends a job to the gatekeeper at serverNode and invokes done
// with the job's result once the completion notification returns — the
// full globusrun wall-clock envelope.
func (c *Client) Submit(serverNode string, job Job, done func(error)) error {
	gk := c.registry.At(serverNode)
	if gk == nil {
		return fmt.Errorf("%w: %s", ErrNoGatekeeper, serverNode)
	}
	sp := c.trace.BeginChild(job.Ctx, "gram", "rpc", "submit:"+job.Name)
	if ctx := sp.Context(); ctx.Valid() {
		// Inject: the far side's handler span parents under this RPC span.
		job.Ctx = ctx
	}
	c.trace.Metrics().Counter("gram.submissions").Inc()
	fail := func(err error) {
		sp.EndErr(err)
		if done != nil {
			done(err)
		}
	}
	// Client-side setup (proxy init), then the request round trip. Each
	// submission is its own globusrun process, as on a real front end.
	proc := c.host.Spawn("globusrun:" + job.Name)
	proc.RunWork(ClientSetupWork, func() {
		proc.Exit()
		sendErr := c.net.Send(c.node, serverNode, ControlMsgBytes, nil, func(any) {
			if err := gk.Submit(job, func(jobErr error) {
				// Completion notification travels back.
				if sendErr := c.net.Send(serverNode, c.node, ControlMsgBytes, nil, func(any) {
					fail(jobErr)
				}); sendErr != nil {
					fail(sendErr)
				}
			}); err != nil {
				// Denied: the refusal still crosses the network.
				if sendErr := c.net.Send(serverNode, c.node, ControlMsgBytes, nil, func(any) {
					fail(err)
				}); sendErr != nil {
					fail(sendErr)
				}
			}
		})
		if sendErr != nil {
			// The request never left: the job did not run, so this is the
			// retry-safe failure class.
			fail(fmt.Errorf("%w: %v", ErrUnavailable, sendErr))
		}
	})
	return nil
}

// gramBaseBackoff is the historical base backoff applied when the
// policy leaves Backoff zero.
const gramBaseBackoff = 500 * sim.Millisecond

// SubmitRetry submits like Submit but reissues transient failures —
// ErrUnavailable, meaning the request never reached the gatekeeper and
// the job did not run — with capped exponential backoff. Job errors and
// fatal control-path errors pass through unchanged after the first
// attempt. The final error keeps its ErrUnavailable wrapping so callers
// can distinguish "gave up retrying" from "the job failed".
func (c *Client) SubmitRetry(serverNode string, job Job, p retry.Policy, done func(error)) error {
	attempts := p.Attempts()
	k := c.host.Kernel()
	var attempt func(n int) error
	attempt = func(n int) error {
		return c.Submit(serverNode, job, func(err error) {
			if err != nil && errors.Is(err, ErrUnavailable) && n < attempts {
				c.trace.Metrics().Counter("gram.retries").Inc()
				k.After(p.Delay(n, gramBaseBackoff), func() {
					if retryErr := attempt(n + 1); retryErr != nil && done != nil {
						done(retryErr)
					}
				})
				return
			}
			if done != nil {
				done(err)
			}
		})
	}
	return attempt(1)
}

// stageChunk is the transfer unit of explicit staging.
const stageChunk int64 = 1 << 20

// stageWindow is how many chunks a chunked stage keeps in flight:
// double-buffered, so the source disk reads chunk i+1 while chunk i is
// on the wire or landing on the destination disk.
const stageWindow = 2

// Stage copies file as Transfer.Stage does, under a Transfer of its own
// that nothing cancels.
func Stage(net *netsim.Network, srcNode string, src *storage.Store, file string,
	dstNode string, dst *storage.Store, asName string, done func(error)) error {
	return new(Transfer).Stage(net, srcNode, src, file, dstNode, dst, asName, done)
}

// Transfer is the handle on the stages one operation runs: Cancel
// reaches whichever of them is in flight. The zero value is ready.
type Transfer struct{ cancelled bool }

// Cancel stops every stage of t, running or still to come. A cancelled
// stage sends nothing more: it deletes its destination file and reports
// ErrCancelled to its done. What is already on the wire still lands
// (and is dropped).
func (t *Transfer) Cancel() { t.cancelled = true }

// halted reports whether t was cancelled and, if so, ends a stage into
// dstFile: the file goes and done hears ErrCancelled.
func (t *Transfer) halted(dstFile *storage.LocalFile, done func(error)) bool {
	if !t.cancelled {
		return false
	}
	dstFile.Delete()
	if done != nil {
		done(ErrCancelled)
	}
	return true
}

// Stage copies a whole file between stores across the network — the
// GASS/GridFTP file-staging model the paper contrasts with on-demand
// virtual file systems: the entire file moves before work starts,
// whether or not it is all used.
//
// When both stores share a content-addressed chunk plane, the copy is
// chunked and deduplicated: the source ships the file's key manifest,
// the destination answers with the chunks its cache lacks, and only
// those cross the wire (pipelined, double-buffered). Chunks the
// destination already holds materialize by copy-on-write reference,
// free of I/O. The staged file's manifest is adopted from the source,
// so identity propagates with the content. Without a shared plane the
// pre-chunking whole-file path runs unchanged. Either path checks t
// before it sends: the whole-file loop before each 1 MiB step and its
// send, the chunked one before each message and each chunk.
func (t *Transfer) Stage(net *netsim.Network, srcNode string, src *storage.Store, file string,
	dstNode string, dst *storage.Store, asName string, done func(error)) error {
	if t.cancelled {
		return fmt.Errorf("gram: stage %q: %w", file, ErrCancelled)
	}
	size, err := src.Size(file)
	if err != nil {
		return fmt.Errorf("gram: stage %q: %w", file, err)
	}
	if dst.Has(asName) {
		return fmt.Errorf("gram: stage: %w: %s", storage.ErrExists, asName)
	}
	from, to := net.Node(srcNode), net.Node(dstNode)
	if from == nil || to == nil {
		return fmt.Errorf("gram: stage %q: %s->%s: unknown node", file, srcNode, dstNode)
	}
	if plane := src.ChunkPlane(); plane != nil && plane == dst.ChunkPlane() {
		return t.stageChunked(net.Kernel(), from, src, file, to, dst, asName, size, done)
	}
	if err := dst.Create(asName, 0); err != nil {
		return err
	}
	srcFile, err := src.Open(file)
	if err != nil {
		return err
	}
	dstFile, err := dst.Open(asName)
	if err != nil {
		return err
	}
	// One step is in flight at a time, so its continuations share the
	// window and are bound once per stage rather than once per step.
	var off, n int64
	var step, read, wrote func()
	step = func() {
		if t.halted(dstFile, done) {
			return
		}
		if off >= size {
			if done != nil {
				done(nil)
			}
			return
		}
		n = min(stageChunk, size-off)
		srcFile.ReadSequential(off, n, read)
	}
	deliver := func(any) { dstFile.Write(off, n, wrote) }
	read = func() {
		if t.halted(dstFile, done) {
			return
		}
		if err := from.Send(to, n, nil, deliver); err != nil && done != nil {
			done(err)
		}
	}
	wrote = func() {
		off += n
		step()
	}
	step()
	return nil
}

// stageChunked is the content-addressed staging path: manifest
// negotiation, dedup against the destination's chunk cache, then a
// double-buffered pipeline over the missing chunks.
func (t *Transfer) stageChunked(k *sim.Kernel, from *netsim.Node, src *storage.Store, file string,
	to *netsim.Node, dst *storage.Store, asName string, size int64, done func(error)) error {
	plane := src.ChunkPlane()
	// The manifest snapshot is taken now, synchronously: a stage
	// launched in the same event as a suspend captures the frozen
	// image's identity even if the guest resumes and keeps dirtying the
	// file while chunks move (a COW-protected checkpoint image).
	keys := src.ChunkKeys(file)
	if err := dst.Create(asName, 0); err != nil {
		return err
	}
	srcFile, err := src.Open(file)
	if err != nil {
		return err
	}
	dstFile, err := dst.Open(asName)
	if err != nil {
		return err
	}
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	if len(keys) == 0 {
		k.After(0, func() {
			if !t.halted(dstFile, finish) {
				finish(nil)
			}
		})
		return nil
	}
	cache := plane.CacheFor(dst.Host().Name())
	// Round trip 1: the source ships the chunk manifest (8 bytes per
	// key plus the control envelope).
	manifestBytes := int64(len(keys))*8 + ControlMsgBytes
	sendErr := from.Send(to, manifestBytes, nil, func(any) {
		if t.halted(dstFile, finish) {
			return
		}
		// At the destination: chunks already in the cache materialize by
		// reference; the rest are requested back as a needed-chunk
		// bitmap.
		var missing []int
		for i, k := range keys {
			off, n := plane.Span(size, i)
			if cache.Lookup(k, n) {
				dst.AdoptChunk(asName, i, k, off, n)
			} else {
				missing = append(missing, i)
			}
		}
		replyBytes := int64(len(keys)+7)/8 + ControlMsgBytes
		sendErr := to.Send(from, replyBytes, nil, func(any) {
			if t.halted(dstFile, finish) {
				return
			}
			t.stagePipeline(from, to, srcFile, dstFile, plane, size, keys, missing, finish)
		})
		if sendErr != nil {
			finish(sendErr)
		}
	})
	if sendErr != nil {
		// The manifest never left; undo the creation so a retry can run.
		_ = dst.Delete(asName)
		return sendErr
	}
	return nil
}

// stagePipeline moves the missing chunks with stageWindow of them in
// flight at once: read chunk i+1 from the source disk while chunk i is
// on the wire or being written — the copy stays busy end to end instead
// of serializing read, send, write.
func (t *Transfer) stagePipeline(from, to *netsim.Node,
	srcFile, dstFile *storage.LocalFile, plane *chunk.Plane, size int64,
	keys []chunk.Key, missing []int, finish func(error)) {
	p := &pipeline{t: t, from: from, to: to,
		srcFile: srcFile, dstFile: dstFile, plane: plane, size: size,
		keys: keys, missing: missing, finish: finish,
		free: make([]*stageSlot, 0, stageWindow)}
	for j := range p.slots {
		sl := &p.slots[j]
		sl.read = func() {
			if p.halted() {
				return
			}
			if err := p.from.Send(p.to, sl.n, nil, sl.deliver); err != nil {
				p.fail(err)
			}
		}
		sl.deliver = func(any) { p.dstFile.WriteChunkAs(sl.i, sl.key, sl.off, sl.n, sl.landed) }
		sl.landed = func() {
			p.free = append(p.free, sl)
			p.pump()
		}
		p.free = append(p.free, sl)
	}
	p.pump()
}

// pipeline is one chunked stage's transfer state. Each window position
// is a slot carrying its chunk through read, send and write; the slots'
// continuations are bound once per stage, so moving a chunk allocates
// nothing.
type pipeline struct {
	t                *Transfer
	from, to         *netsim.Node
	srcFile, dstFile *storage.LocalFile
	plane            *chunk.Plane
	size             int64
	keys             []chunk.Key
	missing          []int
	finish           func(error)

	next   int // index into missing of the next chunk to launch
	failed bool
	slots  [stageWindow]stageSlot
	free   []*stageSlot // slots with no chunk in flight
}

// stageSlot is one in-flight chunk: chunk i, its key and its extent.
type stageSlot struct {
	i      int
	key    chunk.Key
	off, n int64

	read    func()    // source read done: put the chunk on the wire
	deliver func(any) // chunk delivered: write it at the destination
	landed  func()    // chunk durable: free the slot, launch the next
}

func (p *pipeline) fail(err error) {
	if !p.failed {
		p.failed = true
		p.finish(err)
	}
}

// halted reports whether the stage is over: failed, or cancelled, which
// ends it through fail with its destination file deleted.
func (p *pipeline) halted() bool {
	if !p.failed && p.t.cancelled {
		p.dstFile.Delete()
		p.fail(ErrCancelled)
	}
	return p.failed
}

func (p *pipeline) pump() {
	if p.halted() {
		return
	}
	if p.next >= len(p.missing) && len(p.free) == stageWindow {
		p.finish(nil)
		return
	}
	for len(p.free) > 0 && p.next < len(p.missing) {
		sl := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		sl.i = p.missing[p.next]
		p.next++
		sl.off, sl.n = p.plane.Span(p.size, sl.i)
		sl.key = p.keys[sl.i]
		p.srcFile.ReadSequential(sl.off, sl.n, sl.read)
	}
}
