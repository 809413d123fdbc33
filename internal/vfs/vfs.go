// Package vfs implements the grid virtual file system of the paper's
// data-management layer (the PUNCH virtual file system, PVFS): an
// NFS-style block protocol between per-session client proxies and file
// servers, with client-side caching and prefetching. It is what lets a
// VM's state live on an image server in one administrative domain while
// the VM runs in another — on-demand block transfer instead of
// whole-file staging.
//
// Three transports cover the paper's configurations:
//
//   - NetTransport over a LAN (data sessions between VMs, Figure 2)
//   - NetTransport over a WAN (image sessions across universities, Table 1)
//   - LoopbackTransport (Table 2's "LoopbackNFS" rows: an NFS mount of
//     the local host, exercising the RPC stack without a wire)
package vfs

import (
	"errors"
	"fmt"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// ErrUnknownFile is returned (asynchronously) for reads of files the
// server does not export.
var ErrUnknownFile = errors.New("vfs: unknown file")

// rpcHeaderBytes approximates the on-wire size of request/response
// framing (RPC + NFS + TCP headers).
const rpcHeaderBytes = 160

// Server exports a store's files to clients. Request dispatch is pooled:
// each RPC runs through a freelisted srvOp whose stage callbacks are
// bound once, and file handles are cached per name, so serving a
// steady-state read performs no allocations.
type Server struct {
	store *storage.Store
	// procCost is the server-side CPU cost of fielding one RPC.
	procCost sim.Duration
	ops      uint64

	handles map[string]*storage.LocalFile
	freeOps *srvOp
}

// NewServer exports all files of store.
func NewServer(store *storage.Store) *Server {
	return &Server{
		store:    store,
		procCost: 150 * sim.Microsecond,
		handles:  make(map[string]*storage.LocalFile),
	}
}

// Store returns the exported store.
func (s *Server) Store() *storage.Store { return s.store }

// Ops returns the number of RPCs served.
func (s *Server) Ops() uint64 { return s.ops }

// openCached returns a (possibly cached) handle for an exported file.
// The existence check runs on every call, so a cached handle never
// outlives a Delete; a handle cached before a Delete/re-Create pair is
// still valid because LocalFile resolves its size through the store.
func (s *Server) openCached(file string) (*storage.LocalFile, error) {
	if f, ok := s.handles[file]; ok && s.store.Has(file) {
		return f, nil
	}
	f, err := s.store.Open(file)
	if err != nil {
		return nil, err
	}
	s.handles[file] = f
	return f, nil
}

// srvOp is one in-flight RPC on the server, pooled on a freelist with
// its stage callbacks bound at allocation.
type srvOp struct {
	s         *Server
	f         *storage.LocalFile
	off, size int64
	write     bool
	respond   func(error)
	err       error

	procFn   func() // after procCost: issue the storage op
	ioDoneFn func() // storage op complete: respond(nil)
	failFn   func() // after procCost on a lookup error: respond(err)
	nextFree *srvOp
}

func (s *Server) getOp() *srvOp {
	op := s.freeOps
	if op == nil {
		op = &srvOp{s: s}
		op.procFn = op.proc
		op.ioDoneFn = op.ioDone
		op.failFn = op.fail
		return op
	}
	s.freeOps = op.nextFree
	op.nextFree = nil
	return op
}

func (s *Server) putOp(op *srvOp) {
	op.f = nil
	op.off, op.size = 0, 0
	op.write = false
	op.respond = nil
	op.err = nil
	op.nextFree = s.freeOps
	s.freeOps = op
}

func (op *srvOp) proc() {
	if op.write {
		op.f.Write(op.off, op.size, op.ioDoneFn)
		return
	}
	op.f.Read(op.off, op.size, op.ioDoneFn)
}

func (op *srvOp) ioDone() {
	respond := op.respond
	op.s.putOp(op)
	respond(nil)
}

func (op *srvOp) fail() {
	respond, err := op.respond, op.err
	op.s.putOp(op)
	respond(err)
}

// handleRead services one read RPC: check the export, fetch the range
// from the server's disk (sequential, as the kernel readahead would),
// and respond.
func (s *Server) handleRead(file string, off, size int64, respond func(err error)) {
	s.ops++
	k := s.store.Host().Kernel()
	op := s.getOp()
	op.off, op.size, op.respond = off, size, respond
	f, err := s.openCached(file)
	if err != nil {
		op.err = fmt.Errorf("%w: %s", ErrUnknownFile, file)
		k.After(s.procCost, op.failFn)
		return
	}
	op.f = f
	k.After(s.procCost, op.procFn)
}

// handleWrite services one write RPC.
func (s *Server) handleWrite(file string, off, size int64, respond func(err error)) {
	s.ops++
	k := s.store.Host().Kernel()
	op := s.getOp()
	op.off, op.size, op.respond = off, size, respond
	op.write = true
	f, err := s.openOrCreateCached(file)
	if err != nil {
		op.err = err
		k.After(s.procCost, op.failFn)
		return
	}
	op.f = f
	k.After(s.procCost, op.procFn)
}

// openOrCreateCached is openCached for the write path, creating the
// file on first reference as OpenOrCreate did.
func (s *Server) openOrCreateCached(file string) (*storage.LocalFile, error) {
	if f, ok := s.handles[file]; ok && s.store.Has(file) {
		return f, nil
	}
	f, err := s.store.OpenOrCreate(file)
	if err != nil {
		return nil, err
	}
	s.handles[file] = f
	return f, nil
}

// Transport carries RPCs from a client proxy to a server.
type Transport interface {
	// Read requests [off, off+size) of file; done receives the server's
	// error (nil on success) once the data has arrived back.
	Read(file string, off, size int64, done func(error))
	// Write sends [off, off+size) of file; done receives the ack.
	Write(file string, off, size int64, done func(error))
}

// NetTransport carries RPCs across a simulated network. In-flight RPCs
// are pooled netCall structs: request delivery, server dispatch, and
// reply delivery all run through callbacks bound once per pooled call.
type NetTransport struct {
	client *netsim.Node
	server *netsim.Node
	srv    *Server

	freeCalls *netCall
}

var _ Transport = (*NetTransport)(nil)

// NewNetTransport connects a client node to a server node. Both names
// must exist in the network, and srv's store should live on the machine
// the server node represents.
func NewNetTransport(net *netsim.Network, clientNode, serverNode string, srv *Server) (*NetTransport, error) {
	client, server := net.Node(clientNode), net.Node(serverNode)
	if client == nil || server == nil {
		return nil, fmt.Errorf("vfs: transport %s->%s: unknown node", clientNode, serverNode)
	}
	return &NetTransport{client: client, server: server, srv: srv}, nil
}

// netCall is one RPC in flight across the network.
type netCall struct {
	t         *NetTransport
	read      bool
	file      string
	off, size int64
	done      func(error)
	srvErr    error

	arriveFn  func(any)   // request delivered: dispatch to the server
	respondFn func(error) // server responded: send the reply
	replyFn   func(any)   // reply delivered: complete the RPC
	nextFree  *netCall
}

func (t *NetTransport) getCall() *netCall {
	c := t.freeCalls
	if c == nil {
		c = &netCall{t: t}
		c.arriveFn = c.arrive
		c.respondFn = c.respond
		c.replyFn = c.reply
		return c
	}
	t.freeCalls = c.nextFree
	c.nextFree = nil
	return c
}

func (t *NetTransport) putCall(c *netCall) {
	c.read = false
	c.file = ""
	c.off, c.size = 0, 0
	c.done = nil
	c.srvErr = nil
	c.nextFree = t.freeCalls
	t.freeCalls = c
}

func (c *netCall) arrive(any) {
	if c.read {
		c.t.srv.handleRead(c.file, c.off, c.size, c.respondFn)
		return
	}
	c.t.srv.handleWrite(c.file, c.off, c.size, c.respondFn)
}

func (c *netCall) respond(srvErr error) {
	c.srvErr = srvErr
	t := c.t
	replyBytes := int64(rpcHeaderBytes)
	if c.read {
		replyBytes += c.size
	}
	if sendErr := t.server.Send(t.client, replyBytes, nil, c.replyFn); sendErr != nil {
		done := c.done
		t.putCall(c)
		done(sendErr)
	}
}

func (c *netCall) reply(any) {
	done, err := c.done, c.srvErr
	c.t.putCall(c)
	done(err)
}

// Read implements Transport.
func (t *NetTransport) Read(file string, off, size int64, done func(error)) {
	c := t.getCall()
	c.read = true
	c.file, c.off, c.size, c.done = file, off, size, done
	if err := t.client.Send(t.server, rpcHeaderBytes, nil, c.arriveFn); err != nil {
		t.putCall(c)
		done(err)
	}
}

// Write implements Transport.
func (t *NetTransport) Write(file string, off, size int64, done func(error)) {
	c := t.getCall()
	c.file, c.off, c.size, c.done = file, off, size, done
	if err := t.client.Send(t.server, size+rpcHeaderBytes, nil, c.arriveFn); err != nil {
		t.putCall(c)
		done(err)
	}
}

// LoopbackTransport is an NFS mount of the local machine: RPCs traverse
// the network stack (client and server side CPU) but no wire. This is
// Table 2's "LoopbackNFS" configuration, which the paper uses to isolate
// the NFS/RPC stack cost from network cost.
type LoopbackTransport struct {
	k   *sim.Kernel
	srv *Server
	// StackLatency is the one-way stack traversal cost.
	StackLatency sim.Duration

	freeCalls *loopCall
}

var _ Transport = (*LoopbackTransport)(nil)

// NewLoopbackTransport wraps srv behind a local RPC stack.
func NewLoopbackTransport(k *sim.Kernel, srv *Server) *LoopbackTransport {
	return &LoopbackTransport{k: k, srv: srv, StackLatency: sim.Millisecond}
}

// loopCall is one RPC crossing the loopback stack, pooled like netCall.
type loopCall struct {
	t         *LoopbackTransport
	read      bool
	file      string
	off, size int64
	done      func(error)
	srvErr    error

	sendFn    func()      // after the client-side stack: dispatch
	respondFn func(error) // server responded: cross back
	replyFn   func()      // after the server-side stack: complete
	nextFree  *loopCall
}

func (t *LoopbackTransport) getCall() *loopCall {
	c := t.freeCalls
	if c == nil {
		c = &loopCall{t: t}
		c.sendFn = c.send
		c.respondFn = c.respond
		c.replyFn = c.reply
		return c
	}
	t.freeCalls = c.nextFree
	c.nextFree = nil
	return c
}

func (t *LoopbackTransport) putCall(c *loopCall) {
	c.read = false
	c.file = ""
	c.off, c.size = 0, 0
	c.done = nil
	c.srvErr = nil
	c.nextFree = t.freeCalls
	t.freeCalls = c
}

func (c *loopCall) send() {
	if c.read {
		c.t.srv.handleRead(c.file, c.off, c.size, c.respondFn)
		return
	}
	c.t.srv.handleWrite(c.file, c.off, c.size, c.respondFn)
}

func (c *loopCall) respond(err error) {
	c.srvErr = err
	c.t.k.After(c.t.StackLatency, c.replyFn)
}

func (c *loopCall) reply() {
	done, err := c.done, c.srvErr
	c.t.putCall(c)
	done(err)
}

// Read implements Transport.
func (t *LoopbackTransport) Read(file string, off, size int64, done func(error)) {
	c := t.getCall()
	c.read = true
	c.file, c.off, c.size, c.done = file, off, size, done
	t.k.After(t.StackLatency, c.sendFn)
}

// Write implements Transport.
func (t *LoopbackTransport) Write(file string, off, size int64, done func(error)) {
	c := t.getCall()
	c.file, c.off, c.size, c.done = file, off, size, done
	t.k.After(t.StackLatency, c.sendFn)
}
