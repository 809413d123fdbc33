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

const (
	// rpcHeaderBytes approximates the on-wire size of request/response
	// framing (RPC + NFS + TCP headers).
	rpcHeaderBytes = 160
	// serverCPU is the server-side CPU cost of fielding one RPC.
	serverCPU = 150 * sim.Microsecond
	// loopbackStack is the one-way traversal of the local RPC stack.
	loopbackStack = sim.Millisecond
)

// Server exports a store's files to clients. Every RPC, from either
// transport, runs through one pooled rpc record whose stage callbacks
// are bound once, and file handles are cached per name, so serving a
// steady-state RPC performs no allocations.
type Server struct {
	store *storage.Store
	k     *sim.Kernel
	ops   uint64

	handles map[string]*storage.LocalFile
	free    *rpc
}

// NewServer exports all files of store.
func NewServer(store *storage.Store) *Server {
	return &Server{
		store:   store,
		k:       store.Host().Kernel(),
		handles: make(map[string]*storage.LocalFile),
	}
}

// Store returns the exported store.
func (s *Server) Store() *storage.Store { return s.store }

// Ops returns the number of RPCs served.
func (s *Server) Ops() uint64 { return s.ops }

// open returns a (possibly cached) handle for an exported file; create
// (the write path) creates the file on first reference. The existence
// check runs on every call, so a cached handle never outlives a Delete;
// a handle cached before a Delete/re-Create pair is still valid because
// LocalFile resolves its size through the store.
func (s *Server) open(file string, create bool) (*storage.LocalFile, error) {
	if f, ok := s.handles[file]; ok && s.store.Has(file) {
		return f, nil
	}
	var f *storage.LocalFile
	var err error
	if create {
		f, err = s.store.OpenOrCreate(file)
	} else if f, err = s.store.Open(file); err != nil {
		err = fmt.Errorf("%w: %s", ErrUnknownFile, file)
	}
	if err != nil {
		return nil, err
	}
	s.handles[file] = f
	return f, nil
}

// rpc is one RPC in flight from a transport through the server and
// back, pooled on the server's freelist.
type rpc struct {
	s         *Server
	net       *NetTransport // the request's network path; nil on the loopback
	write     bool
	file      string
	off, size int64
	done      func(error)

	f   *storage.LocalFile
	err error // the server's answer, or the reply hop's send error

	arriveFn  func(any) // request delivered over the network: serve
	serveFn   func()    // request through the loopback stack: serve
	procFn    func()    // CPU cost charged: the storage op
	replyFn   func()    // storage op complete: the reply hop
	deliverFn func(any) // reply delivered over the network: complete
	finishFn  func()    // reply through the loopback stack: complete
	nextFree  *rpc
}

// get takes an rpc record off the freelist (binding a new one's stage
// callbacks) and loads it with the request.
func (s *Server) get(write bool, file string, off, size int64, done func(error)) *rpc {
	r := s.free
	if r == nil {
		r = &rpc{s: s}
		r.arriveFn = func(any) { r.serve() }
		r.serveFn = r.serve
		r.procFn = r.proc
		r.replyFn = r.reply
		r.deliverFn = func(any) { r.finish() }
		r.finishFn = r.finish
	} else {
		s.free = r.nextFree
		r.nextFree = nil
	}
	r.write, r.file, r.off, r.size, r.done = write, file, off, size, done
	return r
}

func (s *Server) put(r *rpc) {
	r.net = nil
	r.file = ""
	r.done = nil
	r.f, r.err = nil, nil
	r.nextFree = s.free
	s.free = r
}

// serve fields the request at the server: check the export, then
// charge the server's CPU cost.
func (r *rpc) serve() {
	s := r.s
	s.ops++
	r.f, r.err = s.open(r.file, r.write)
	s.k.After(serverCPU, r.procFn)
}

// proc runs the storage op on the server's disk, or replies with the
// lookup error.
func (r *rpc) proc() {
	switch {
	case r.err != nil:
		r.reply()
	case r.write:
		r.f.Write(r.off, r.size, r.replyFn)
	default:
		r.f.Read(r.off, r.size, r.replyFn)
	}
}

// reply carries the answer back: a read's data crosses the wire with
// its header, a write's ack is the header alone.
func (r *rpc) reply() {
	t := r.net
	if t == nil {
		r.s.k.After(loopbackStack, r.finishFn)
		return
	}
	bytes := int64(rpcHeaderBytes)
	if !r.write {
		bytes += r.size
	}
	if err := t.server.Send(t.client, bytes, nil, r.deliverFn); err != nil {
		r.err = err
		r.finish()
	}
}

// finish completes the RPC at the client.
func (r *rpc) finish() {
	done, err := r.done, r.err
	r.s.put(r)
	done(err)
}

// Transport carries RPCs from a client proxy to a server.
type Transport interface {
	// Read requests [off, off+size) of file; done receives the server's
	// error (nil on success) once the data has arrived back.
	Read(file string, off, size int64, done func(error))
	// Write sends [off, off+size) of file; done receives the ack.
	Write(file string, off, size int64, done func(error))
}

// NetTransport carries RPCs across a simulated network: the request and
// the reply each cross it as one message.
type NetTransport struct {
	client *netsim.Node
	server *netsim.Node
	srv    *Server
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

// Read implements Transport.
func (t *NetTransport) Read(file string, off, size int64, done func(error)) {
	t.send(t.srv.get(false, file, off, size, done), rpcHeaderBytes)
}

// Write implements Transport.
func (t *NetTransport) Write(file string, off, size int64, done func(error)) {
	t.send(t.srv.get(true, file, off, size, done), size+rpcHeaderBytes)
}

// send puts r's request of the given size on the wire.
func (t *NetTransport) send(r *rpc, bytes int64) {
	r.net = t
	if err := t.client.Send(t.server, bytes, nil, r.arriveFn); err != nil {
		r.err = err
		r.finish()
	}
}

// LoopbackTransport is an NFS mount of the local machine: RPCs traverse
// the network stack (client and server side CPU) but no wire. This is
// Table 2's "LoopbackNFS" configuration, which the paper uses to isolate
// the NFS/RPC stack cost from network cost.
type LoopbackTransport struct {
	k   *sim.Kernel
	srv *Server
}

var _ Transport = (*LoopbackTransport)(nil)

// NewLoopbackTransport wraps srv behind a local RPC stack.
func NewLoopbackTransport(k *sim.Kernel, srv *Server) *LoopbackTransport {
	return &LoopbackTransport{k: k, srv: srv}
}

// Read implements Transport.
func (t *LoopbackTransport) Read(file string, off, size int64, done func(error)) {
	t.k.After(loopbackStack, t.srv.get(false, file, off, size, done).serveFn)
}

// Write implements Transport.
func (t *LoopbackTransport) Write(file string, off, size int64, done func(error)) {
	t.k.After(loopbackStack, t.srv.get(true, file, off, size, done).serveFn)
}
