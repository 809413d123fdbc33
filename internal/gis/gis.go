// Package gis is the grid information service (in the mold of Globus MDS
// and the URGIS relational approach the paper extends): a registry of
// typed, attribute-carrying, soft-state records that applications query
// — including the paper's key addition, *VM futures*: advertisements by
// hosts of what kinds and how many virtual machines they are willing to
// instantiate.
package gis

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"vmgrid/internal/sim"
)

// Kind classifies registry entries.
type Kind string

// The record kinds of the VM-grid architecture (Figure 3).
const (
	KindHost        Kind = "host"      // physical machines
	KindVMFuture    Kind = "vm-future" // capability to instantiate VMs
	KindVM          Kind = "vm"        // live VM instances
	KindImageServer Kind = "image-server"
	KindDataServer  Kind = "data-server"
	// KindLease carries session heartbeat leases: the supervisor
	// re-registers them with a TTL, so a crashed host's sessions fall out
	// of the registry once the lease expires — soft state as the failure
	// detector.
	KindLease Kind = "lease"
	// KindAlert mirrors telemetry alert firings into the soft-state
	// registry, so middleware can discover SLO violations the same way
	// it discovers hosts and VMs. Alert entries are registered without a
	// TTL and deregistered when the alert resolves.
	KindAlert Kind = "alert"
	// KindEpoch carries per-session fencing epochs: a monotonic counter
	// the supervisor bumps through a quorum write before every failover,
	// so effects of the pre-failover incarnation can be recognized and
	// rejected (no TTL — epochs must outlive any partition).
	KindEpoch Kind = "epoch"
)

// Entry is one registered record. Attrs values are strings, int64s, or
// float64s. An Entry read from a standalone registry shares its Attrs
// map with the record, which a later same-key refresh overwrites in
// place (see Service.apply): read what you need before the next
// Register of that record.
type Entry struct {
	Kind    Kind
	Name    string
	Attrs   map[string]any
	Expires sim.Time // zero means no expiry
}

// Int returns an integer attribute (0 if absent or mistyped).
func (e Entry) Int(key string) int64 {
	switch v := e.Attrs[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}

// Float returns a float attribute (also accepting ints).
func (e Entry) Float(key string) float64 {
	switch v := e.Attrs[key].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	default:
		return 0
	}
}

// Str returns a string attribute ("" if absent).
func (e Entry) Str(key string) string {
	s, _ := e.Attrs[key].(string)
	return s
}

// ErrNotFound is returned by Lookup for missing or expired entries.
var ErrNotFound = errors.New("gis: not found")

// ErrNoQuorum is returned by writes against a replicated registry when
// the originating node cannot reach a majority of replicas: the write
// fails closed rather than diverging on the minority side.
var ErrNoQuorum = errors.New("gis: no quorum")

// ErrFencedEpoch is returned by epoch guards when an operation carries
// a fencing token older than the session's current epoch — the caller
// is a pre-failover zombie whose effects must be rejected.
var ErrFencedEpoch = errors.New("gis: fenced epoch")

// Service is the registry. Entries are soft state: registrations carry a
// TTL and vanish unless refreshed, so crashed providers age out.
//
// A Service may optionally be one replica of a Cluster (see replica.go),
// in which case writes route through quorum and reads stay local — the
// replica keeps serving possibly-stale reads during a partition. A
// standalone Service (nil cluster) behaves exactly as before.
type Service struct {
	k       *sim.Kernel
	records map[string]*Entry // owned by this Service; reads hand out copies

	cluster *Cluster // nil = unreplicated
	home    string   // netsim node this replica is pinned to
	keyBuf  []byte   // apply's scratch for looking a record up by key
}

// New creates an empty information service.
func New(k *sim.Kernel) *Service {
	return &Service{k: k, records: make(map[string]*Entry)}
}

func key(kind Kind, name string) string { return string(kind) + "/" + name }

// Register adds or refreshes a record. ttl ≤ 0 means no expiry. The
// registry never keeps the caller's attribute map. On a replicated
// registry this is a quorum write originating at the replica's own
// node and can fail with ErrNoQuorum.
func (s *Service) Register(kind Kind, name string, attrs map[string]any, ttl sim.Duration) error {
	return s.RegisterFrom(s.home, kind, name, attrs, ttl)
}

// RegisterFrom is Register with an explicit originating node: on a
// replicated registry, quorum reachability is judged from origin, so a
// partitioned host's refreshes fail closed even when the replica
// co-located with the caller is healthy. On a standalone Service the
// origin is ignored.
func (s *Service) RegisterFrom(origin string, kind Kind, name string, attrs map[string]any, ttl sim.Duration) error {
	if name == "" {
		return fmt.Errorf("gis: register %v with empty name", kind)
	}
	if s.cluster != nil {
		return s.cluster.write(origin, kind, name, attrs, ttl, false)
	}
	s.apply(kind, name, attrs, ttl)
	return nil
}

// apply installs a record locally, bypassing replication. It runs only
// on a Service without a cluster, so the record's Attrs map belongs to
// this registry alone: re-registering a record with the same attribute
// key set — every host's VM future and every lease, once per tick —
// overwrites the values in that map and resets Expires, allocating
// nothing. A new record, or a changed key set, gets a fresh copy. (A
// replicated record's map is shared by every replica and by gossip
// payloads in flight, so Cluster.write copies on every write instead.)
func (s *Service) apply(kind Kind, name string, attrs map[string]any, ttl sim.Duration) {
	var expires sim.Time
	if ttl > 0 {
		expires = s.k.Now().Add(ttl)
	}
	s.keyBuf = append(append(append(s.keyBuf[:0], kind...), '/'), name...)
	if e := s.records[string(s.keyBuf)]; e != nil && sameKeys(e.Attrs, attrs) {
		for k, v := range attrs {
			e.Attrs[k] = v
		}
		e.Expires = expires
		return
	}
	cp := make(map[string]any, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	s.records[key(kind, name)] = &Entry{Kind: kind, Name: name, Attrs: cp, Expires: expires}
}

// sameKeys reports whether a and b hold the same key set.
func sameKeys(a, b map[string]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return false
		}
	}
	return true
}

// Deregister removes a record (idempotent). On a replicated registry a
// minority-side deregister is silently dropped (the signature predates
// replication); callers that must know use DeregisterFrom.
func (s *Service) Deregister(kind Kind, name string) {
	_ = s.DeregisterFrom(s.home, kind, name)
}

// DeregisterFrom removes a record through a quorum write originating at
// the given node, failing with ErrNoQuorum on the minority side of a
// partition.
func (s *Service) DeregisterFrom(origin string, kind Kind, name string) error {
	if s.cluster != nil {
		return s.cluster.write(origin, kind, name, nil, 0, true)
	}
	delete(s.records, key(kind, name))
	return nil
}

func (s *Service) live(e *Entry) bool {
	return e.Expires == 0 || e.Expires >= s.k.Now()
}

// Lookup fetches one record.
func (s *Service) Lookup(kind Kind, name string) (Entry, error) {
	e := s.records[key(kind, name)]
	if e == nil || !s.live(e) {
		return Entry{}, fmt.Errorf("%w: %v %q", ErrNotFound, kind, name)
	}
	return *e, nil
}

// Select returns the live records of a kind matching pred (nil matches
// all), sorted by name for determinism.
func (s *Service) Select(kind Kind, pred func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range s.records {
		if e.Kind != kind || !s.live(e) {
			continue
		}
		if pred == nil || pred(*e) {
			out = append(out, *e)
		}
	}
	// Names are unique within a kind, so an unstable sort is exact.
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Join returns pairs (a, b) of live records with a of kindA, b of kindB,
// and on(a, b) true — the relational query with joins the paper argues
// resource discovery needs (e.g. "VM futures on hosts whose image server
// is in the same site").
func (s *Service) Join(kindA, kindB Kind, on func(a, b Entry) bool) [][2]Entry {
	as := s.Select(kindA, nil)
	bs := s.Select(kindB, nil)
	var out [][2]Entry
	for _, a := range as {
		for _, b := range bs {
			if on == nil || on(a, b) {
				out = append(out, [2]Entry{a, b})
			}
		}
	}
	return out
}

// Len returns the number of live records.
func (s *Service) Len() int {
	n := 0
	for _, e := range s.records {
		if s.live(e) {
			n++
		}
	}
	return n
}

// VM-future helpers: the attribute vocabulary used by vmgrid hosts.
const (
	// AttrMemBytes is the largest guest memory a future offers.
	AttrMemBytes = "mem_bytes"
	// AttrDiskBytes is the largest virtual disk a future offers.
	AttrDiskBytes = "disk_bytes"
	// AttrSlots is how many more VMs the host will instantiate.
	AttrSlots = "slots"
	// AttrSpeed is the host's CPU speed relative to the reference.
	AttrSpeed = "speed"
	// AttrSite is the administrative domain.
	AttrSite = "site"
	// AttrOS is an image's installed guest OS.
	AttrOS = "os"
	// AttrImage names an image catalogued on an image server.
	AttrImage = "image"
	// AttrWarm marks an image carrying a post-boot memory snapshot.
	AttrWarm = "warm"
	// AttrAddr is a live VM's virtual network address.
	AttrAddr = "addr"
	// AttrHost is the physical machine carrying a VM.
	AttrHost = "host"
	// AttrLoad is a host's most recent load measurement.
	AttrLoad = "load"
	// AttrEpoch is a session's current fencing epoch (KindEpoch records).
	AttrEpoch = "epoch"
)

// Epoch returns a session's current fencing epoch as recorded in this
// replica's view (0 if the session has none yet).
func (s *Service) Epoch(session string) int64 {
	e := s.records[key(KindEpoch, session)]
	if e == nil {
		return 0
	}
	return e.Int(AttrEpoch)
}

// EpochGuard returns a fencing check bound to one session and token:
// it reports ErrFencedEpoch once the session's epoch in this replica's
// view has moved past token. The key is precomputed and the closure
// does one map lookup — cheap enough for data-plane hot paths (vfs
// flushes, gram submits). Against a replicated registry the guard reads
// the local replica: a zombie on the minority side trips the fence as
// soon as anti-entropy delivers the bumped epoch after heal.
func (s *Service) EpochGuard(session string, token int64) func() error {
	k := key(KindEpoch, session)
	return func() error {
		e := s.records[k]
		if e == nil {
			return nil
		}
		if cur, _ := e.Attrs[AttrEpoch].(int64); cur > token {
			return ErrFencedEpoch
		}
		return nil
	}
}

// BumpEpochFrom advances a session's fencing epoch by one through a
// quorum write originating at the given node and returns the new
// epoch. On the minority side of a partition it fails with ErrNoQuorum
// and the epoch is unchanged — a supervisor that cannot prove it holds
// the majority view must not fence anybody.
func (s *Service) BumpEpochFrom(origin, session string) (int64, error) {
	if s.cluster != nil {
		return s.cluster.BumpEpoch(origin, session)
	}
	next := s.Epoch(session) + 1
	s.apply(KindEpoch, session, map[string]any{AttrEpoch: next}, 0)
	return next, nil
}

// FutureQuery describes what a user needs from a VM future.
type FutureQuery struct {
	MinMemBytes  int64
	MinDiskBytes int64
	MinSpeed     float64
	Site         string // "" = any
}

// FindFutures returns VM futures satisfying q, best (fastest, least
// loaded) first.
func (s *Service) FindFutures(q FutureQuery) []Entry {
	out := s.Select(KindVMFuture, func(e Entry) bool {
		if e.Int(AttrSlots) <= 0 {
			return false
		}
		if e.Int(AttrMemBytes) < q.MinMemBytes {
			return false
		}
		if e.Int(AttrDiskBytes) < q.MinDiskBytes {
			return false
		}
		if e.Float(AttrSpeed) < q.MinSpeed {
			return false
		}
		if q.Site != "" && e.Str(AttrSite) != q.Site {
			return false
		}
		return true
	})
	slices.SortStableFunc(out, func(a, b Entry) int {
		if la, lb := a.Float(AttrLoad), b.Float(AttrLoad); la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(b.Float(AttrSpeed), a.Float(AttrSpeed))
	})
	return out
}
