package experiments

import (
	"strings"
	"testing"

	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
	}
	out := tbl.String()
	for _, want := range []string{"T", "n", "a", "bb", "xxx", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1ShapeHolds(t *testing.T) {
	rows, err := Figure1(Fig1Config{Seed: 1, Samples: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byKey := map[string]Fig1Row{}
	for _, r := range rows {
		byKey[r.Scenario()] = r
		if r.N != 120 {
			t.Errorf("%s: N = %d", r.Scenario(), r.N)
		}
		if r.Mean < 0.999 {
			t.Errorf("%s: mean slowdown %v < 1", r.Scenario(), r.Mean)
		}
	}

	// The paper's takeaway: under no load, the VM costs ≤ ~10%.
	noneVM := byKey["load=none/physical test=VM"]
	nonePhys := byKey["load=none/physical test=physical"]
	if noneVM.Mean/nonePhys.Mean > 1.10 {
		t.Errorf("unloaded VM slowdown %v > 1.10 over physical", noneVM.Mean/nonePhys.Mean)
	}
	// Load must dominate: heavy scenarios are far above none scenarios.
	heavy := byKey["load=heavy/physical test=physical"]
	if heavy.Mean < 1.5 {
		t.Errorf("heavy load mean %v implausibly low", heavy.Mean)
	}
	light := byKey["load=light/physical test=physical"]
	if light.Mean <= nonePhys.Mean || heavy.Mean <= light.Mean {
		t.Errorf("load ordering broken: none %v light %v heavy %v",
			nonePhys.Mean, light.Mean, heavy.Mean)
	}
	// And virtualization must cost something when both placements see
	// identical load conditions (same-trace pairing).
	lightVM := byKey["load=light/physical test=VM"]
	if lightVM.Mean < light.Mean {
		t.Errorf("VM under light load (%v) cheaper than physical (%v)", lightVM.Mean, light.Mean)
	}

	tbl := Figure1Table(rows)
	if !strings.Contains(tbl.String(), "heavy") {
		t.Error("table missing heavy rows")
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	rows, err := Table1(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	get := func(app, res string) Table1Row {
		for _, r := range rows {
			if r.App == app && r.Resource == res {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", app, res)
		return Table1Row{}
	}

	seisLocal := get("SPECseis", "VM, local disk")
	seisPVFS := get("SPECseis", "VM, PVFS")
	climLocal := get("SPECclimate", "VM, local disk")
	climPVFS := get("SPECclimate", "VM, PVFS")

	// Paper: 1.2%, 2.0%, 4.0%, 4.2%. Bands keep the shape without
	// chasing decimals.
	checks := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		{"seis local", seisLocal.Overhead, 0.005, 0.03},
		{"seis pvfs", seisPVFS.Overhead, 0.012, 0.04},
		{"climate local", climLocal.Overhead, 0.025, 0.06},
		{"climate pvfs", climPVFS.Overhead, 0.03, 0.065},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s overhead = %.2f%%, want in [%.1f%%, %.1f%%]",
				c.name, c.got*100, c.lo*100, c.hi*100)
		}
	}
	// Orderings that must hold: PVFS ≥ local; climate ≥ seis.
	if seisPVFS.Overhead <= seisLocal.Overhead {
		t.Error("SPECseis PVFS not above local disk")
	}
	if climLocal.Overhead <= seisLocal.Overhead {
		t.Error("SPECclimate (memory-bound) not above SPECseis")
	}
	// User time is the workload's CPU seconds everywhere.
	if seisLocal.User != 16395 || climLocal.User != 9304 {
		t.Error("user seconds drifted from the calibrated workloads")
	}
	_ = Table1Table(rows)
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := Table2(Table2Config{Seed: 1, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	get := func(mode vmm.StartMode, cfg string) Table2Row {
		for _, r := range rows {
			if r.Mode == mode && r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", mode, cfg)
		return Table2Row{}
	}
	rebootP := get(vmm.ColdBoot, "Persistent")
	rebootD := get(vmm.ColdBoot, "Non-persistent DiskFS")
	rebootN := get(vmm.ColdBoot, "Non-persistent LoopbackNFS")
	restoreP := get(vmm.WarmRestore, "Persistent")
	restoreD := get(vmm.WarmRestore, "Non-persistent DiskFS")
	restoreN := get(vmm.WarmRestore, "Non-persistent LoopbackNFS")

	// Paper bands (mean ± slack): 273, 69.2, 74.5, 269, 12.4, 29.2.
	bands := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		{"reboot persistent", rebootP.Mean, 220, 330},
		{"reboot DiskFS", rebootD.Mean, 60, 85},
		{"reboot LoopbackNFS", rebootN.Mean, 65, 95},
		{"restore persistent", restoreP.Mean, 190, 300},
		{"restore DiskFS", restoreD.Mean, 9, 20},
		{"restore LoopbackNFS", restoreN.Mean, 20, 45},
	}
	for _, b := range bands {
		if b.got < b.lo || b.got > b.hi {
			t.Errorf("%s mean = %.1fs, want [%v, %v]", b.name, b.got, b.lo, b.hi)
		}
	}
	// Structural orderings from the paper's discussion.
	if !(restoreD.Mean < restoreN.Mean && restoreN.Mean < rebootD.Mean) {
		t.Errorf("restore ordering broken: DiskFS %.1f, NFS %.1f, reboot %.1f",
			restoreD.Mean, restoreN.Mean, rebootD.Mean)
	}
	if rebootP.Mean < 3*rebootD.Mean {
		t.Error("persistent copy does not dominate reboot")
	}
	if restoreD.Mean*3 > rebootD.Mean {
		t.Error("restore not ≪ reboot")
	}
	// Variance exists (background noise) but stays modest.
	if rebootD.Std <= 0 {
		t.Error("no sample variance; noise model inactive")
	}
	_ = Table2Table(rows)
}

func TestAblationStagingCrossover(t *testing.T) {
	rows, err := AblationStaging(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// On-demand wins at small working sets; staging wins (or ties) at
	// full-image touch.
	if rows[0].OnDemandSec >= rows[0].StagedSec {
		t.Errorf("1%% working set: on-demand %v not faster than staged %v",
			rows[0].OnDemandSec, rows[0].StagedSec)
	}
	last := rows[len(rows)-1]
	if last.WorkingSet != 1.0 {
		t.Fatalf("last row ws = %v", last.WorkingSet)
	}
	if last.StagedSec >= last.OnDemandSec {
		t.Errorf("full working set: staged %v not faster than on-demand %v",
			last.StagedSec, last.OnDemandSec)
	}
	// Staged cost is roughly flat; on-demand grows with working set.
	if rows[0].OnDemandSec >= rows[len(rows)-1].OnDemandSec {
		t.Error("on-demand cost did not grow with working set")
	}
	_ = StagingTable(rows)
}

func TestAblationProxyCacheSharing(t *testing.T) {
	rows, err := AblationProxyCache(1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].BootSec >= rows[0].BootSec {
		t.Errorf("second boot (%v) not faster than first (%v)", rows[1].BootSec, rows[0].BootSec)
	}
	if rows[1].DiskReads >= rows[0].DiskReads {
		t.Errorf("second boot reads (%d) not below first (%d)", rows[1].DiskReads, rows[0].DiskReads)
	}
	_ = CacheTable(rows)
}

func TestAblationSchedulingAccuracy(t *testing.T) {
	rows, err := AblationScheduling(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]SchedRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
		if r.ShareA < 0.6 || r.ShareA > 0.82 {
			t.Errorf("%s long-run share %v far from 0.7", r.Mechanism, r.ShareA)
		}
	}
	if byName["wfq"].WorstWindow >= byName["lottery"].WorstWindow {
		t.Error("WFQ short-term fairness not better than lottery")
	}
	_ = SchedTable(rows)
}

func TestAblationMigrationBeatsRestart(t *testing.T) {
	rows, err := AblationMigration(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MigrationRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	keep := byName["keep"].TotalSec
	migrate := byName["migrate"].TotalSec
	restart := byName["restart"].TotalSec
	if !(keep < migrate && migrate < restart) {
		t.Errorf("ordering broken: keep %v, migrate %v, restart %v", keep, migrate, restart)
	}
	// Migration overhead is tens of seconds, not the 300 s of lost work.
	if migrate-keep > 120 {
		t.Errorf("migration overhead %vs too large", migrate-keep)
	}
	if byName["restart"].LostWork < 200 {
		t.Error("restart did not record lost work")
	}
	_ = MigrationTable(rows)
}

func TestAblationPredictorsOrdering(t *testing.T) {
	rows, err := AblationPredictors(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mse := map[string]float64{}
	for _, r := range rows {
		if r.Load == trace.Heavy {
			mse[r.Predictor] = r.MSE
		}
	}
	if mse["AR(8)"] >= mse["MEAN(500)"] {
		t.Errorf("AR (%v) not better than long mean (%v) on heavy load", mse["AR(8)"], mse["MEAN(500)"])
	}
	if mse["LAST"] >= mse["MEAN(500)"] {
		t.Errorf("LAST (%v) not better than long mean (%v)", mse["LAST"], mse["MEAN(500)"])
	}
	_ = PredictorTable(rows)
}

func TestAblationOverlayCrossover(t *testing.T) {
	rows, err := AblationOverlay(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With a fast direct path the overlay must go direct; once the
	// direct path costs more than the 10 ms detour it must relay.
	if rows[0].Relayed {
		t.Error("overlay relayed over a 2 ms direct path")
	}
	last := rows[len(rows)-1]
	if !last.Relayed {
		t.Error("overlay did not relay around a 120 ms direct path")
	}
	if last.OverlayMs >= last.PlainMs {
		t.Errorf("relayed (%v ms) not faster than degraded direct (%v ms)",
			last.OverlayMs, last.PlainMs)
	}
	// The overlay never does much worse than direct.
	for _, r := range rows {
		if r.OverlayMs > r.PlainMs*1.2+1 {
			t.Errorf("direct %v ms: overlay %v ms worse than plain %v ms",
				r.DirectMs, r.OverlayMs, r.PlainMs)
		}
	}
	_ = OverlayTable(rows)
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"plain", `with "quote", comma`}},
	}
	got := tbl.CSV()
	want := "a,b\nplain,\"with \"\"quote\"\", comma\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
