package vmgrid_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// deletedNames holds the names that deleted code went by. Each entry is
// one pattern and the directories it scans; every .go file there, tests
// included, must be free of it. A name coming back means the code it
// named came back.
var deletedNames = []struct {
	what, pattern string
	dirs          []string
}{
	{"the RetryPolicy aliases", `vfs\.RetryPolicy|gram\.RetryPolicy|RetryPolicy =`, nil},
	{"the fault injector's tracer counters", `"fault\.(scheduled|fired)"`, nil},
	{"the vfs per-layer RPC records", `srvOp|netCall|loopCall|fastRPC|openOrCreateCached|StackLatency`, nil},
	{"callerless options, one-value knobs, pre-incarnation bookkeeping and test-only accessors",
		`\b(SetVFSRetry|SetDefaultPlacer|WithFence|WithQuantum|WithCtxSwitchCost|FlightConfig|EqualJitter|FlapLinkOneWay|PartitionNodeOneWay|StageRetry|reserveSlot|slotRelease|bootEpoch|zombieRef|adoptEpoch|sessionBusy|shutDownErr|NewArchive|NewFrontEnd|FlakyTransport|CrashReboot|FlapLink|PartitionNode|WithPriority|CallOption|WithDeadline|WithRetry|SelectBounded|AccountingReport|BalancerConfig|ClientAt|ErrUnreachable|RunCtx|TaskSeconds|FuncMin|FuncMax|FuncP99|scrapeFamilies|newScrapeFamilies|labelsSubset)\b`, nil},
	{"the per-supervisor epoch copies", `\.carried\b`, nil},
	{"deprecated API", `Deprecated:`, nil},
	{"the kernel's canceled-event tombstones", `ncanceled|skimCanceled`, []string{"internal/sim"}},
	{"netsim's incremental route rules", `SetLinkDirUp|invalidateEdgeUp|invalidateEdgeDown|invalidateDir|invalidateNodeUp|invalidateNodeDown|keepsEdgeUp|parentOf|Degree\(\)`, nil},
	{"the vfs retry plane and write-back buffer",
		`\b(WriteBack|MaxDirty|DirtyBytes|VFSRetries|flushWaiters|releaseStalled|stalledWrite|vfsBaseBackoff)\b|vfs-retry-storm|vfs-retries|vfs\.retries|vfs\.transport-errors`, nil},
	{"the vfs client's retry, flush and test-only accessors",
		`\b(Retry|Retries|ErrTimeout|ErrUnavailable|Flush|RemoteOps|LastError|lastErr)\b|\bOps\(\)`, []string{"internal/vfs"}},
	{"the gatekeeper's gridmap and job count", `\b(Authorize|Revoke|ErrDenied|Accepted)\b`, nil},
	{"the GIS gossip-round count and replica home accessor", `\b(GossipRounds|gossipRounds)\b|\bHome\(\)`, nil},
	{"the lottery's win counts and the share helper", `\bsched\.Shares\b|\bWins\(\)`, nil},
	{"the retry policy's timeout and zero test", `\b(Timeout|IsZero)\b`, []string{"internal/retry"}},
	{"the registry's gauges and histograms", `\b(Gauge|Histogram|GaugePoint|HistogramPoint|histBucket|histBuckets|gWS|hRPC|mErrs)\b`, nil},
	{"the registry copies of facts another store counts",
		`vfs\.rpc-latency|vmm\.worldswitch-hz|"core\.(checkpoints|lease-expiries|zombies-fenced|recoveries|fenced-results|balancer-migrations)"|telemetry\.alerts\.|Counter\("vfs\.transport_errors"\)`, nil},
}

// TestDeletedNamesStayDeleted fails on the first file and line under
// internal, cmd or examples that mentions a deleted name.
func TestDeletedNamesStayDeleted(t *testing.T) {
	for _, d := range deletedNames {
		re := regexp.MustCompile(d.pattern)
		dirs := d.dirs
		if dirs == nil {
			dirs = []string{"internal", "cmd", "examples"}
		}
		for _, dir := range dirs {
			if hit := firstMatch(t, dir, re); hit != "" {
				t.Errorf("%s: %s is deleted (pattern %q)", hit, d.what, d.pattern)
			}
		}
	}
}

// firstMatch returns "file:line" of the first line of a .go file under
// dir that re matches, or "".
func firstMatch(t *testing.T, dir string, re *regexp.Regexp) string {
	t.Helper()
	var hit string
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || hit != "" || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for n := 1; sc.Scan(); n++ {
			if re.MatchString(sc.Text()) {
				hit = fmt.Sprintf("%s:%d", path, n)
				return filepath.SkipAll
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

// testOnlyAPI lists the exported functions and methods of internal/...
// that no non-test file of the module calls, each with the reason it
// stays: a probe lets tests observe state, a fixture lets them build a
// scenario, and a reference is the simple model a difference test
// checks the real code against. TestExportedAPIHasCallers keeps the
// list exact, so it can only shrink: a new test-only name fails, and so
// does a listed name that gained a caller.
var testOnlyAPI = map[string]string{
	"chunk.Cache.Len":                "probe",
	"chunk.Cache.UsedBytes":          "probe",
	"core.Grid.LiveSessions":         "probe",
	"core.Grid.Monitor":              "probe",
	"core.Grid.Tracer":               "probe",
	"core.Monitor.Ticks":             "probe",
	"core.Session.Tunnel":            "probe",
	"gis.Cluster.Stop":               "fixture",
	"gis.Service.Len":                "probe",
	"gram.Gatekeeper.Host":           "probe",
	"guest.OS.Booted":                "probe",
	"guest.OS.CPU":                   "probe",
	"guest.OS.MountNames":            "probe",
	"guest.OS.Tasks":                 "probe",
	"guest.Task.Done":                "probe",
	"guest.Task.Running":             "probe",
	"hostos.BufferCache.CachedBytes": "probe",
	"hostos.BufferCache.Capacity":    "probe",
	"hostos.BufferCache.Hits":        "probe",
	"hostos.BufferCache.Misses":      "probe",
	"hostos.LoadProcess.Kill":        "fixture",
	"hostos.LoadProcess.Proc":        "probe",
	"hostos.Process.Demand":          "probe",
	"hostos.Process.ID":              "probe",
	"hostos.Process.Stopped":         "probe",
	"hostos.Process.Weight":          "probe",
	"hw.Disk.BytesTransferred":       "probe",
	"hw.Disk.QueueLen":               "probe",
	"hw.Disk.ReadTime":               "probe",
	"hw.ServerMachine":               "fixture",
	"lru.Blocks.Runs":                "probe",
	"lru.Cache.EvictOldest":          "reference",
	"lru.Cache.Filter":               "reference",
	"lru.Cache.Insert":               "reference",
	"lru.Cache.Len":                  "reference",
	"lru.Cache.Remove":               "reference",
	"lru.Cache.Touch":                "reference",
	"lru.New":                        "reference",
	"netsim.Network.Drops":           "probe",
	"netsim.Network.RouteComputes":   "probe",
	"netsim.Network.SetLinkUp":       "fixture",
	"obs.FlightRecorder.Dropped":     "probe",
	"obs.FlightRecorder.SpansSeen":   "probe",
	"obs.PhaseStat.Mean":             "probe",
	"obs.Report.CriticalPathNames":   "probe",
	"obs.Span.Note":                  "fixture",
	"obs.Tracer.Enabled":             "probe",
	"placement.Names":                "probe",
	"placement.Rank":                 "reference",
	"rps.Series.Mean":                "probe",
	"rps.Series.Values":              "probe",
	"sched.Enforcement.Modulator":    "probe",
	"sched.Enforcement.Policy":       "probe",
	"sched.Modulator.SetShare":       "fixture",
	"sched.Modulator.Share":          "probe",
	"sim.Kernel.Dispatched":          "probe",
	"sim.Kernel.Pending":             "probe",
	"sim.RNG.Intn":                   "fixture",
	"sim.RNG.Jitter":                 "fixture",
	"sim.WorkTracker.Remaining":      "probe",
	"storage.ImageInfo.TotalBytes":   "probe",
	"storage.Store.CreateWithChunks": "fixture",
	"telemetry.Collector.Record":     "fixture",
	"telemetry.DB.Len":               "probe",
	"telemetry.DB.Select":            "reference",
	"telemetry.NewDB":                "fixture",
	"telemetry.Recorder.Record":      "fixture",
	"telemetry.Series.Labels":        "probe",
	"trace.Playback.Running":         "probe",
	"trace.Trace.At":                 "probe",
	"trace.Trace.Duration":           "probe",
	"trace.Trace.Mean":               "probe",
	"trace.Trace.Peak":               "probe",
	"vfs.Server.Store":               "probe",
	"vmm.VM.Config":                  "probe",
	"vmm.VM.Host":                    "probe",
	"vmm.VM.Name":                    "probe",
	"vnet.DHCP.Leased":               "probe",
	"vnet.DHCP.Owner":                "probe",
	"vnet.Overlay.Frames":            "probe",
	"vnet.Overlay.Members":           "probe",
	"vnet.Tunnel.Bytes":              "probe",
	"vnet.Tunnel.Endpoints":          "probe",
	"vnet.Tunnel.Frames":             "probe",
	"vnet.Tunnel.Send":               "fixture",
}

// TestExportedAPIHasCallers type-checks every non-test file of the
// module (perfbench included) and lists the exported functions and
// methods of internal/... that none of them references. A method that
// implements an interface counts as reached, since it is called through
// the interface.
func TestExportedAPIHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	m := loadModule(t)
	got := map[string]bool{}
	for _, name := range m.uncalled() {
		got[name] = true
		if _, ok := testOnlyAPI[name]; !ok {
			t.Errorf("%s is exported but only tests call it: give it a caller or delete it", name)
		}
	}
	for name := range testOnlyAPI {
		if !got[name] {
			t.Errorf("%s is listed as test-only but now has a caller (or is gone): take it off testOnlyAPI", name)
		}
	}
}

const modulePath = "vmgrid"

// module is every non-test package of the module, type-checked from
// source over one shared Uses map.
type module struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	order []*types.Package // module packages, in check order
	uses  map[*ast.Ident]types.Object
}

func loadModule(t *testing.T) *module {
	t.Helper()
	// Without cgo the standard library type-checks from Go files alone.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		uses: map[*ast.Ident]types.Object{},
	}
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if name := e.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			m.dirs[modulePath+"/"+filepath.ToSlash(path)] = path
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

// ImportFrom checks a module package once, from its non-test files for
// this platform, and hands everything else to the source importer.
func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	pdir, ok := m.dirs[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(pdir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			m.pkgs[path] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(pdir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, &types.Info{Uses: m.uses})
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = p
	m.order = append(m.order, p)
	return p, nil
}

// uncalled names every exported function and method declared under
// internal/ that no non-test file references and that implements no
// interface method, as "pkg.Func" or "pkg.Type.Method", sorted.
func (m *module) uncalled() []string {
	used := map[*types.Func]bool{}
	for _, obj := range m.uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := m.interfaces()
	var out []string
	for _, p := range m.order {
		if !strings.HasPrefix(p.Path(), modulePath+"/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, p.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					fn := named.Method(i)
					if fn.Exported() && !used[fn] && !implementsAny(named, fn.Name(), ifaces) {
						out = append(out, p.Name()+"."+name+"."+fn.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// interfaces returns error, every package-level interface type of the
// module, and every exported one of each standard-library package it
// imports, directly or not. (An unexported standard-library interface
// such as encoding/json's isZeroer is called only on an opt-in path.)
func (m *module) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		inModule := strings.HasPrefix(p.Path(), modulePath+"/")
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && (inModule || tn.Exported()) {
				named, ok := tn.Type().(*types.Named)
				if it, isIface := tn.Type().Underlying().(*types.Interface); ok && isIface && named.TypeParams() == nil {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.order {
		visit(p)
	}
	return out
}

// implementsAny reports whether T or *T implements an interface that
// has a method of the given name.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams() != nil {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
