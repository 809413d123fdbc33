package gis

import (
	"errors"
	"fmt"
	"testing"

	"vmgrid/internal/sim"
)

func TestRegisterLookup(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	if err := s.Register(KindHost, "n1", map[string]any{AttrSpeed: 1.0, AttrSite: "nwu"}, 0); err != nil {
		t.Fatal(err)
	}
	e, err := s.Lookup(KindHost, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Float(AttrSpeed) != 1.0 || e.Str(AttrSite) != "nwu" {
		t.Errorf("attrs = %+v", e.Attrs)
	}
	if _, err := s.Lookup(KindHost, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup = %v", err)
	}
	if err := s.Register(KindHost, "", nil, 0); err == nil {
		t.Error("empty name accepted")
	}
}

func TestAttrsAreCopied(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	attrs := map[string]any{AttrSlots: int64(4)}
	if err := s.Register(KindVMFuture, "n1", attrs, 0); err != nil {
		t.Fatal(err)
	}
	attrs[AttrSlots] = int64(0) // caller mutation must not leak in
	e, err := s.Lookup(KindVMFuture, "n1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Int(AttrSlots) != 4 {
		t.Error("registry shares caller's map")
	}
}

func TestTTLExpiry(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	if err := s.Register(KindVM, "vm1", nil, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(KindVM, "vm1"); err != nil {
		t.Fatal(err)
	}
	_ = k.RunUntil(sim.Time(11 * sim.Second))
	if _, err := s.Lookup(KindVM, "vm1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired lookup = %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d with only expired entries", s.Len())
	}
	// Refresh resurrects.
	if err := s.Register(KindVM, "vm1", nil, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(KindVM, "vm1"); err != nil {
		t.Errorf("refreshed lookup = %v", err)
	}
}

func TestSelectSortedAndFiltered(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	for i, site := range []string{"ufl", "nwu", "nwu"} {
		if err := s.Register(KindHost, fmt.Sprintf("h%d", 3-i), map[string]any{AttrSite: site}, 0); err != nil {
			t.Fatal(err)
		}
	}
	all := s.Select(KindHost, nil)
	if len(all) != 3 || all[0].Name != "h1" || all[2].Name != "h3" {
		t.Errorf("Select order: %v", all)
	}
	nwu := s.Select(KindHost, func(e Entry) bool { return e.Str(AttrSite) == "nwu" })
	if len(nwu) != 2 {
		t.Errorf("filtered Select = %d entries", len(nwu))
	}
}

func TestDeregister(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	_ = s.Register(KindDataServer, "d1", nil, 0)
	s.Deregister(KindDataServer, "d1")
	s.Deregister(KindDataServer, "d1") // idempotent
	if s.Len() != 0 {
		t.Error("deregister did not remove")
	}
}

func TestJoin(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	_ = s.Register(KindVMFuture, "f1", map[string]any{AttrSite: "nwu"}, 0)
	_ = s.Register(KindVMFuture, "f2", map[string]any{AttrSite: "ufl"}, 0)
	_ = s.Register(KindImageServer, "i1", map[string]any{AttrSite: "nwu"}, 0)
	pairs := s.Join(KindVMFuture, KindImageServer, func(a, b Entry) bool {
		return a.Str(AttrSite) == b.Str(AttrSite)
	})
	if len(pairs) != 1 || pairs[0][0].Name != "f1" || pairs[0][1].Name != "i1" {
		t.Errorf("Join = %v", pairs)
	}
	if all := s.Join(KindVMFuture, KindImageServer, nil); len(all) != 2 {
		t.Errorf("unconditioned join = %d pairs", len(all))
	}
}

func TestFindFutures(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	reg := func(name string, mem, disk, slots int64, speed, load float64, site string) {
		t.Helper()
		err := s.Register(KindVMFuture, name, map[string]any{
			AttrMemBytes: mem, AttrDiskBytes: disk, AttrSlots: slots,
			AttrSpeed: speed, AttrLoad: load, AttrSite: site,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("big-busy", 2<<30, 100<<30, 4, 1.2, 0.9, "nwu")
	reg("small", 128<<20, 10<<30, 1, 1.0, 0.0, "nwu")
	reg("big-idle", 2<<30, 100<<30, 2, 1.2, 0.1, "ufl")
	reg("full", 4<<30, 100<<30, 0, 2.0, 0.0, "nwu") // no slots

	got := s.FindFutures(FutureQuery{MinMemBytes: 256 << 20})
	if len(got) != 2 {
		t.Fatalf("futures = %v", got)
	}
	if got[0].Name != "big-idle" {
		t.Errorf("best future = %s, want least-loaded big-idle", got[0].Name)
	}

	nwuOnly := s.FindFutures(FutureQuery{Site: "nwu"})
	for _, e := range nwuOnly {
		if e.Str(AttrSite) != "nwu" {
			t.Errorf("site filter leaked %s", e.Name)
		}
	}
	if len(s.FindFutures(FutureQuery{MinSpeed: 5})) != 0 {
		t.Error("impossible speed query returned futures")
	}
}

func TestEntryTypeHelpers(t *testing.T) {
	e := Entry{Attrs: map[string]any{
		"i64": int64(5), "i": 7, "f": 2.5, "s": "x",
	}}
	if e.Int("i64") != 5 || e.Int("i") != 7 || e.Int("f") != 0 || e.Int("missing") != 0 {
		t.Error("Int helper wrong")
	}
	if e.Float("f") != 2.5 || e.Float("i64") != 5 || e.Float("i") != 7 || e.Float("s") != 0 {
		t.Error("Float helper wrong")
	}
	if e.Str("s") != "x" || e.Str("i") != "" {
		t.Error("Str helper wrong")
	}
}

// TestRegisterRefreshInPlace: re-registering a record with the same
// attribute keys updates its values and expiry; a changed key set
// replaces the attributes outright, so no stale key survives; neither
// shares the caller's map.
func TestRegisterRefreshInPlace(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	mustRegister := func(attrs map[string]any, ttl sim.Duration) Entry {
		t.Helper()
		if err := s.Register(KindVMFuture, "n1", attrs, ttl); err != nil {
			t.Fatal(err)
		}
		e, err := s.Lookup(KindVMFuture, "n1")
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mustRegister(map[string]any{AttrSlots: int64(4), AttrSite: "nwu"}, 10*sim.Second)
	_ = k.RunUntil(sim.Time(5 * sim.Second))

	attrs := map[string]any{AttrSlots: int64(2), AttrSite: "ufl"}
	e := mustRegister(attrs, 20*sim.Second)
	if e.Int(AttrSlots) != 2 || e.Str(AttrSite) != "ufl" {
		t.Errorf("same-key refresh: attrs %v, want slots 2 site ufl", e.Attrs)
	}
	if want := sim.Time(25 * sim.Second); e.Expires != want {
		t.Errorf("same-key refresh: expires %v, want %v", e.Expires, want)
	}
	attrs[AttrSlots] = int64(9) // caller mutation must not leak in
	if e, _ := s.Lookup(KindVMFuture, "n1"); e.Int(AttrSlots) != 2 {
		t.Error("refreshed record shares the caller's map")
	}

	if e := mustRegister(map[string]any{AttrSlots: int64(1), AttrSite: "ufl"}, 0); e.Expires != 0 {
		t.Errorf("refresh with ttl 0: expires %v, want none", e.Expires)
	}
	_ = k.RunUntil(sim.Time(60 * sim.Second))
	if _, err := s.Lookup(KindVMFuture, "n1"); err != nil {
		t.Errorf("record refreshed without a ttl expired: %v", err)
	}

	// Same size, different keys: the old key must go.
	e = mustRegister(map[string]any{AttrSlots: int64(3), AttrLoad: 0.5}, 0)
	if _, ok := e.Attrs[AttrSite]; ok || len(e.Attrs) != 2 || e.Float(AttrLoad) != 0.5 {
		t.Errorf("changed key set: attrs %v, want slots and load only", e.Attrs)
	}
	// Fewer keys.
	e = mustRegister(map[string]any{AttrSlots: int64(0)}, 0)
	if len(e.Attrs) != 1 || e.Int(AttrSlots) != 0 {
		t.Errorf("shrunk key set: attrs %v, want slots only", e.Attrs)
	}
	// No keys.
	if e = mustRegister(nil, 0); len(e.Attrs) != 0 {
		t.Errorf("emptied key set: attrs %v, want none", e.Attrs)
	}
}

// TestRegisterRefreshAllocatesNothing: refreshing a VM future with the
// same six attribute keys, under a name too long for the compiler's
// stack buffer, copies no map and builds no key string.
func TestRegisterRefreshAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k)
	const name = "compute-node-with-a-long-name.example.org"
	attrs := futureAttrs()
	if err := s.Register(KindVMFuture, name, attrs, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Register(KindVMFuture, name, attrs, 10*sim.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("same-key refresh allocates %v times, want 0", allocs)
	}
}

// futureAttrs is a host's VM-future advertisement.
func futureAttrs() map[string]any {
	return map[string]any{
		AttrSite:      "nwu",
		AttrSlots:     int64(2),
		AttrSpeed:     1.0,
		AttrMemBytes:  int64(1 << 30),
		AttrDiskBytes: int64(40 << 30),
		AttrLoad:      0.25,
	}
}

// BenchmarkRegisterRefresh is one host's per-tick VM-future refresh on
// a standalone registry: same six keys, new values.
func BenchmarkRegisterRefresh(b *testing.B) {
	k := sim.NewKernel(1)
	s := New(k)
	attrs := futureAttrs()
	if err := s.Register(KindVMFuture, "compute1", attrs, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attrs[AttrSlots] = int64(i & 3)
		if err := s.Register(KindVMFuture, "compute1", attrs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
