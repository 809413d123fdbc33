// Package storage models the files that make a virtual machine portable:
// base disk images, copy-on-write difference files, memory (suspend)
// snapshots, and the per-host stores that hold them. The paper's central
// abstraction — "a VM is a process plus files" — lives here: everything a
// VM is can be copied, transferred, cached, and instantiated elsewhere.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"vmgrid/internal/chunk"
	"vmgrid/internal/hostos"
)

// Sentinel errors callers match with errors.Is.
var (
	ErrNotFound = errors.New("storage: file not found")
	ErrExists   = errors.New("storage: file already exists")
)

// CopyChunk is the unit of Store.Copy: each chunk pays one read request
// (with seek) and one streaming write, which reproduces the effective
// single-digit-MB/s throughput of a same-disk file copy — the mechanism
// behind Table 2's persistent-disk startup times.
const CopyChunk int64 = 128 * 1024

// Backend is random-access block storage for one file, with completion
// callbacks in virtual time. Local files and remote (grid virtual file
// system) files both implement it, so a virtual disk does not care where
// its image lives — the property the paper calls site independence.
type Backend interface {
	// Name identifies the file for diagnostics.
	Name() string
	// Size returns the file length in bytes.
	Size() int64
	// Read fetches [off, off+size) and calls done when available.
	Read(off, size int64, done func())
	// ReadSequential is Read for streaming patterns (readahead applies).
	ReadSequential(off, size int64, done func())
	// Write stores [off, off+size) and calls done when durable.
	Write(off, size int64, done func())
}

// Store is a host-local file namespace backed by the host's disk through
// its buffer cache.
type Store struct {
	host  *hostos.Host
	files map[string]*file

	// plane, when attached, gives every file a content-key manifest so
	// staging paths can dedup against the node's chunk cache. nil (the
	// default) keeps the pre-chunking behavior exactly. cache is this
	// node's chunk cache, bound once when the plane is attached.
	plane *chunk.Plane
	cache *chunk.Cache
}

// file is one incarnation of a stored file: its length, its
// host-qualified name with that name's buffer-cache id, and, with a
// chunk plane attached, its content-key manifest. It is held by pointer
// so the per-chunk paths update it in place with one map lookup, and so
// a handle can tell whether its incarnation still holds the name.
type file struct {
	size    int64
	keys    []chunk.Key
	qname   string // host-qualified name, the buffer-cache key
	id      int32  // qname's buffer-cache id, interned at creation
	deleted bool   // Delete removed it, releasing id
}

// newFile makes an incarnation of name and interns its qualified name
// in the host's buffer cache, once, so its reads and writes carry the id
// instead of looking the name up per operation.
func (s *Store) newFile(name string, size int64) *file {
	q := s.qualify(name)
	return &file{size: size, qname: q, id: s.host.Cache().Intern(q)}
}

// read charges a read of [off, off+n) of f. A deleted incarnation
// released its buffer-cache id with its pages, so a read through a
// stale handle bypasses the cache: the device is charged for the whole
// range and no page is cached under a name no file holds.
func (s *Store) read(f *file, off, n int64, sequential bool, done func()) {
	switch {
	case f.deleted && sequential:
		s.host.Disk().SubmitSequential(n, done)
	case f.deleted:
		s.host.Disk().Submit(n, done)
	case sequential:
		s.host.Cache().ReadSequential(s.host.Kernel(), f.id, off, n, done)
	default:
		s.host.Cache().Read(s.host.Kernel(), f.id, off, n, done)
	}
}

// NewStore creates an empty store on h.
func NewStore(h *hostos.Host) *Store {
	return &Store{host: h, files: make(map[string]*file)}
}

// Host returns the owning host.
func (s *Store) Host() *hostos.Host { return s.host }

// SetChunkPlane attaches the content-addressed chunk plane: existing
// files get fresh manifests (their content predates the plane, so the
// keys are newly minted) and every chunk is recorded in the node's
// cache. Files are processed in sorted-name order so key assignment is
// deterministic regardless of map layout.
func (s *Store) SetChunkPlane(p *chunk.Plane) {
	s.plane = p
	s.cache = p.CacheFor(s.host.Name())
	for _, name := range s.Files() {
		s.mintManifest(s.files[name])
	}
}

// ChunkPlane returns the attached plane, or nil.
func (s *Store) ChunkPlane() *chunk.Plane { return s.plane }

// ChunkKeys returns a snapshot of the file's chunk manifest (nil when
// no plane is attached or the file is unknown).
func (s *Store) ChunkKeys(name string) []chunk.Key {
	f := s.files[name]
	if f == nil {
		return nil
	}
	return append([]chunk.Key(nil), f.keys...)
}

// mintManifest issues fresh keys for every chunk of the file and
// records them as held by this node.
func (s *Store) mintManifest(f *file) {
	f.keys = make([]chunk.Key, s.plane.Count(f.size))
	for i := range f.keys {
		_, n := s.plane.Span(f.size, i)
		f.keys[i] = s.plane.Mint()
		s.cache.Add(f.keys[i], n)
	}
}

// touchChunks re-mints the keys of every chunk overlapping a guest
// write to [off, off+n): the content changed, so its old identity is
// gone. Chunks added by growth but outside the written range keep the
// reserved zero key (file holes are all-zero and legitimately dedup
// against each other).
func (s *Store) touchChunks(f *file, off, n int64) {
	if s.plane == nil || n <= 0 {
		return
	}
	total := s.plane.Count(f.size)
	for len(f.keys) < total {
		f.keys = append(f.keys, 0)
	}
	cb := s.plane.ChunkBytes()
	last := int((off + n - 1) / cb)
	for i := int(off / cb); i <= last && i < total; i++ {
		_, cn := s.plane.Span(f.size, i)
		f.keys[i] = s.plane.Mint()
		s.cache.Add(f.keys[i], cn)
	}
}

// adoptChunk records that chunk i of f holds key: content copied from
// elsewhere keeps its identity instead of minting a new one. The file
// grows to cover the chunk. Used by the staging paths both for
// transferred chunks and for dedup hits materialized by reference.
// Within the capacity CreateChunked reserved, the manifest grows in
// place.
func (s *Store) adoptChunk(f *file, i int, key chunk.Key, off, n int64) {
	f.size = max(f.size, off+n)
	for len(f.keys) <= i {
		f.keys = append(f.keys, 0)
	}
	f.keys[i] = key
	s.cache.Add(key, n)
}

// AdoptChunk is adoptChunk for dedup hits: no bytes move and no I/O is
// charged — the node already holds the content, and materializing it
// into the file is a copy-on-write reference. [off, off+n) is the
// chunk's extent in the destination file. A chunk adopted after the
// file was deleted (a stage abandoned while a chunk was on the wire)
// records nothing: the name stays gone.
func (s *Store) AdoptChunk(name string, i int, key chunk.Key, off, n int64) {
	if f := s.files[name]; f != nil {
		s.adoptChunk(f, i, key, off, n)
	}
}

// CreateWithChunks creates a file carrying an existing manifest
// (content whose identity is known, landing from elsewhere), seeding
// the node cache with every key.
func (s *Store) CreateWithChunks(name string, size int64, keys []chunk.Key) error {
	if err := s.Create(name, 0); err != nil {
		return err
	}
	f := s.files[name]
	f.size = size
	if s.plane == nil {
		return nil
	}
	f.keys = append([]chunk.Key(nil), keys...)
	for i, k := range f.keys {
		_, n := s.plane.Span(size, i)
		s.cache.Add(k, n)
	}
	return nil
}

// CreateChunked creates an empty file, as Create(name, 0) does, whose
// manifest has room for chunks keys: a stage landing a known number of
// chunks sizes it once instead of regrowing it as they arrive. The
// manifest's length still follows the chunks adopted.
func (s *Store) CreateChunked(name string, chunks int) error {
	if err := s.Create(name, 0); err != nil {
		return err
	}
	if s.plane != nil {
		s.files[name].keys = make([]chunk.Key, 0, chunks)
	}
	return nil
}

// Create adds an empty-to-size file without charging I/O (the bytes are
// assumed pre-existing, e.g. an archived image).
func (s *Store) Create(name string, size int64) error {
	if name == "" {
		return fmt.Errorf("storage: create with empty name")
	}
	if size < 0 {
		return fmt.Errorf("storage: create %q with negative size", name)
	}
	if _, ok := s.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := s.newFile(name, size)
	s.files[name] = f
	if s.plane != nil {
		s.mintManifest(f)
	}
	return nil
}

// Has reports whether the file exists.
func (s *Store) Has(name string) bool {
	_, ok := s.files[name]
	return ok
}

// Size returns the file's length.
func (s *Store) Size(name string) (int64, error) {
	f := s.files[name]
	if f == nil {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// Delete removes the file and drops its cached pages. The node's chunk
// cache keeps the file's keys: the content blocks outlive the name in
// the content store, which is what makes cross-session dedup work.
func (s *Store) Delete(name string) error {
	f := s.files[name]
	if f == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.files, name)
	f.deleted = true
	s.host.Cache().Invalidate(f.qname)
	return nil
}

// Files lists stored file names in sorted order.
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for name := range s.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// qualify namespaces cache keys per host so two stores on different
// hosts never share pages.
func (s *Store) qualify(name string) string {
	return s.host.Name() + ":" + name
}

// Open returns a Backend for an existing file. The handle is bound to
// this incarnation of the name: once the file is deleted, writes through
// it are dropped even if the name is created again.
func (s *Store) Open(name string) (*LocalFile, error) {
	f := s.files[name]
	if f == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &LocalFile{store: s, name: name, file: f}, nil
}

// OpenOrCreate returns a Backend, creating a zero-length file if needed.
func (s *Store) OpenOrCreate(name string) (*LocalFile, error) {
	if !s.Has(name) {
		if err := s.Create(name, 0); err != nil {
			return nil, err
		}
	}
	return s.Open(name)
}

// Copy duplicates src into dst on the same store, chunk by chunk through
// the buffer cache, invoking done when the last chunk is durable. The
// destination must not exist. This is the explicit whole-state transfer
// of Table 2's "Persistent" rows.
func (s *Store) Copy(src, dst string, done func()) error {
	from := s.files[src]
	if from == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	if _, ok := s.files[dst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	size := from.size
	to := s.newFile(dst, size)
	s.files[dst] = to
	if s.plane != nil {
		// Same-node duplication: the copy's content is the source's, so
		// the manifest carries over (every key is already in this node's
		// cache).
		to.keys = append([]chunk.Key(nil), from.keys...)
	}
	k := s.host.Kernel()
	cache := s.host.Cache()
	// One chunk is in flight at a time, so the continuations share its
	// window and are bound once per copy rather than once per chunk. A
	// destination deleted mid-copy, like a deleted source, bypasses the
	// cache (see read).
	var off, n int64
	var step, read, wrote func()
	step = func() {
		if off >= size {
			if done != nil {
				done()
			}
			return
		}
		n = min(CopyChunk, size-off)
		s.read(from, off, n, false, read)
	}
	read = func() {
		if to.deleted {
			s.host.Disk().SubmitSequential(n, wrote)
			return
		}
		cache.WriteSequential(k, to.id, off, n, wrote)
	}
	wrote = func() {
		off += n
		step()
	}
	step()
	return nil
}

// LocalFile is a Backend over a Store file, charged to the host disk
// through the buffer cache.
type LocalFile struct {
	store *Store
	name  string
	file  *file // the incarnation opened; writes land only while it is live
}

var _ Backend = (*LocalFile)(nil)

// Name returns the file name qualified by its host, the file's
// buffer-cache key.
func (f *LocalFile) Name() string { return f.file.qname }

// Size returns the current file length (0 once the file is deleted).
func (f *LocalFile) Size() int64 {
	if sf := f.store.files[f.name]; sf != nil {
		return sf.size
	}
	return 0
}

// Read implements Backend.
func (f *LocalFile) Read(off, size int64, done func()) {
	f.store.read(f.file, off, size, false, done)
}

// ReadSequential implements Backend.
func (f *LocalFile) ReadSequential(off, size int64, done func()) {
	f.store.read(f.file, off, size, true, done)
}

// Write implements Backend, growing the file as needed. With a chunk
// plane attached, the touched chunks' keys are re-minted: the content
// changed, so its old identity no longer names it. A write through a
// handle whose file was deleted is dropped: it completes without
// recreating the file, or touching a file created since under the same
// name.
func (f *LocalFile) Write(off, size int64, done func()) {
	if !f.live() {
		f.dropped(done)
		return
	}
	f.file.size = max(f.file.size, off+size)
	f.store.touchChunks(f.file, off, size)
	f.store.host.Cache().Write(f.store.host.Kernel(), f.file.id, off, size, done)
}

// WriteChunkAs writes chunk i's bytes [off, off+n) and records key for
// it: a transfer landing content copied from elsewhere, which keeps its
// identity instead of minting a new one the way a guest Write would.
// Like Write, it is dropped when the file was deleted: a late chunk of
// an abandoned stage never lands in a re-created file's manifest.
func (f *LocalFile) WriteChunkAs(i int, key chunk.Key, off, n int64, done func()) {
	if !f.live() {
		f.dropped(done)
		return
	}
	f.store.adoptChunk(f.file, i, key, off, n)
	f.store.host.Cache().WriteSequential(f.store.host.Kernel(), f.file.id, off, n, done)
}

// Delete deletes the file this handle opened, unless it is already gone
// or its name now holds a file created since.
func (f *LocalFile) Delete() {
	if f.live() {
		_ = f.store.Delete(f.name)
	}
}

// live reports whether the incarnation this handle opened still holds
// its name.
func (f *LocalFile) live() bool { return !f.file.deleted }

// dropped completes a write to a deleted file at the current instant,
// charging no I/O.
func (f *LocalFile) dropped(done func()) {
	if done != nil {
		f.store.host.Kernel().After(0, done)
	}
}
