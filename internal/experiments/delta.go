package experiments

import (
	"fmt"

	"vmgrid/internal/chunk"
	"vmgrid/internal/core"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

// ---------------------------------------------------------------------
// Ablation J: chunked state transfer & delta checkpoints
// ---------------------------------------------------------------------
//
// The paper's §3.1 worry — "transfer of entire VM states can lead to
// unnecessary traffic" — applies to every state move, not just the
// first one: re-instantiating an image a node staged before, and
// re-staging a checkpoint whose memory is mostly unchanged, both copy
// bytes the destination already holds. This ablation turns the
// content-addressed chunk plane on and off over the same grid and
// measures what it buys on both paths: staged instantiation against a
// warm chunk cache, and periodic supervisor checkpoints of a guest
// dirtying memory at a fixed rate, swept over chunk size × checkpoint
// interval. The baseline arm (chunk "full-copy") is the historical
// whole-file transfer; savings columns compare each chunked arm to the
// baseline at the same interval.

// DeltaRow aggregates one (chunk size, checkpoint interval) cell.
type DeltaRow struct {
	// ChunkKiB is the chunk size in KiB; 0 is the whole-file baseline.
	ChunkKiB int64
	// IntervalSec is the supervisor checkpoint interval under test.
	IntervalSec float64
	// ColdSec is staged instantiation latency with every cache cold.
	ColdSec float64
	// WarmSec is instantiation latency for a second session on the same
	// node, whose chunk cache still holds the image from the first.
	WarmSec float64
	// WarmWireMB is the payload the warm instantiation put on the wire.
	WarmWireMB float64
	// WarmSavings is the baseline's warm wire bytes over this arm's.
	WarmSavings float64
	// CkptCostSec is guest frozen time per run across the steady-state
	// checkpoints (the adoption baseline checkpoint is excluded).
	CkptCostSec float64
	// CkptWireMB is mean bytes on the wire per steady-state checkpoint.
	CkptWireMB float64
	// CkptSavings is the baseline's bytes/checkpoint over this arm's.
	CkptSavings float64
	// HitRate is the plane-wide chunk cache hit rate over the run.
	HitRate float64
}

// deltaArm is one simulated run at one (chunk size, interval) cell.
type deltaArm struct {
	ColdSec     float64
	WarmSec     float64
	ColdBytes   uint64
	WarmBytes   uint64
	CkptCostSec float64
	CkptBytes   uint64
	Ckpts       int
	HitRate     float64
}

const (
	// deltaDiskBytes / deltaMemBytes size the staged image: a disk big
	// enough that instantiation is transfer-dominated, a memory image
	// big enough that full-copy checkpoints visibly tax the run.
	deltaDiskBytes = 1 * hw.GB
	deltaMemBytes  = 64 * hw.MB
	// deltaTaskSec runs the supervised workload long enough for several
	// steady-state checkpoints at the slowest interval.
	deltaTaskSec = 600
	// deltaSamples is the default replicate count per interval.
	deltaSamples = 2
	// deltaDirtyBps is the guest's modeled memory dirty rate: at 30 s
	// intervals roughly 4 MB of the 64 MB image changes per checkpoint.
	deltaDirtyBps = 128 << 10
)

// AblationDelta sweeps chunk size × checkpoint interval against a
// paired whole-file baseline. One sample is one (interval, replicate)
// pair; all chunk-size arms of a sample replay the same seed, so the
// savings columns compare identical randomness. samples <= 0 selects
// the default replicate count; samples × len(intervals) fan out across
// workers goroutines.
func AblationDelta(seed uint64, samples, workers int) ([]DeltaRow, error) {
	intervals := []sim.Duration{30 * sim.Second, 60 * sim.Second, 120 * sim.Second}
	sizes := []int64{0, 64 << 10, 256 << 10, 1 << 20}
	if samples <= 0 {
		samples = deltaSamples
	}
	results, err := sweep(seed, len(intervals), samples, len(sizes), workers,
		func(c, a int, sseed uint64) (deltaArm, error) {
			return deltaRun(sseed, sizes[a], intervals[c])
		})
	if err != nil {
		return nil, err
	}
	rows := make([]DeltaRow, 0, len(intervals)*len(sizes))
	for ii, iv := range intervals {
		means := make([]deltaArm, len(sizes))
		for si := 0; si < samples; si++ {
			for ji := range sizes {
				a := results[ii][ji][si]
				means[ji].ColdSec += a.ColdSec
				means[ji].WarmSec += a.WarmSec
				means[ji].ColdBytes += a.ColdBytes
				means[ji].WarmBytes += a.WarmBytes
				means[ji].CkptCostSec += a.CkptCostSec
				means[ji].CkptBytes += a.CkptBytes
				means[ji].Ckpts += a.Ckpts
				means[ji].HitRate += a.HitRate
			}
		}
		perCkpt := func(m deltaArm) float64 {
			if m.Ckpts == 0 {
				return 0
			}
			return float64(m.CkptBytes) / float64(m.Ckpts)
		}
		base := means[0]
		for ji, size := range sizes {
			m := means[ji]
			n := float64(samples)
			row := DeltaRow{
				ChunkKiB:    size >> 10,
				IntervalSec: iv.Seconds(),
				ColdSec:     m.ColdSec / n,
				WarmSec:     m.WarmSec / n,
				WarmWireMB:  float64(m.WarmBytes) / n / float64(hw.MB),
				CkptCostSec: m.CkptCostSec / n,
				CkptWireMB:  perCkpt(m) / float64(hw.MB),
				HitRate:     m.HitRate / n,
			}
			if size > 0 {
				if m.WarmBytes > 0 {
					row.WarmSavings = float64(base.WarmBytes) / float64(m.WarmBytes)
				}
				if pc := perCkpt(m); pc > 0 {
					row.CkptSavings = perCkpt(base) / pc
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// deltaRun simulates one cell: a staged instantiation with cold caches,
// a second one against the warm cache, then a supervised run with
// periodic checkpoints to the data server while the guest dirties
// memory and its COW disk. chunkBytes 0 leaves the chunk plane off —
// the historical whole-file transfer on every path.
func deltaRun(seed uint64, chunkBytes int64, interval sim.Duration) (deltaArm, error) {
	var arm deltaArm
	tb := newTestbed(seed)
	g, k, net := tb.g, tb.k, tb.g.Net()
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 2, DHCPPrefix: "10.2.0."},
		core.NodeConfig{Name: "data", Site: "a", Role: core.RoleDataServer},
		core.NodeConfig{Name: "images", Site: "a", Role: core.RoleImageServer},
	); err != nil {
		return arm, err
	}
	var plane *chunk.Plane
	if chunkBytes > 0 {
		plane = g.EnableChunkedStaging(chunk.Config{ChunkBytes: chunkBytes})
	}
	img := benchImage
	img.DiskBytes, img.MemBytes = deltaDiskBytes, deltaMemBytes
	if err := tb.install(img, "images"); err != nil {
		return arm, err
	}

	scfg := benchSession
	scfg.Access = core.AccessStaged
	scfg.DirtyBps = deltaDirtyBps
	instantiate := func() (*core.Session, float64, uint64, error) {
		t0, b0 := k.Now(), net.BytesSent()
		var sess *core.Session
		var serr error
		var secs float64
		var bytes uint64
		done := false
		if _, err := g.CreateSession(scfg, func(s *core.Session, err error) {
			sess, serr, done = s, err, true
			secs = k.Now().Sub(t0).Seconds()
			bytes = net.BytesSent() - b0
		}); err != nil {
			return nil, 0, 0, err
		}
		tb.step(6*sim.Hour, func() bool { return done })
		if !done || serr != nil {
			return nil, 0, 0, fmt.Errorf("experiments: delta instantiation: done=%v err=%v", done, serr)
		}
		return sess, secs, bytes, nil
	}

	// Cold, then warm: the second session stages the same image files to
	// the same node, whose chunk cache survived the first's shutdown.
	s1, coldSec, coldBytes, err := instantiate()
	if err != nil {
		return arm, err
	}
	arm.ColdSec, arm.ColdBytes = coldSec, coldBytes
	s1.Shutdown()
	s2, warmSec, warmBytes, err := instantiate()
	if err != nil {
		return arm, err
	}
	arm.WarmSec, arm.WarmBytes = warmSec, warmBytes
	s2.Shutdown()

	// Supervised phase: a local COW session on c1 checkpointing to data.
	// The image lands on c1 only now — installing it earlier would make
	// c1 its own closest "image server" and turn the staged
	// instantiations above into loopback copies.
	if err := tb.install(img, "c1"); err != nil {
		return arm, err
	}
	lcfg := scfg
	lcfg.Access = core.AccessLocal
	s3, err := tb.session(lcfg, sim.Hour)
	if err != nil {
		return arm, err
	}
	sup, err := tb.supervise(s3, core.SupervisorConfig{
		CheckpointInterval: interval,
		StableNode:         "data",
	})
	if err != nil {
		return arm, err
	}
	// Steady state starts after the adoption baseline checkpoint: that
	// first image is a full copy in both arms by construction.
	baseStats := sup.Stats()
	bytesBase := net.BytesSent()

	w := guest.Workload{Name: "churn", CPUSeconds: deltaTaskSec, Writes: 600, WriteBytes: 48 * hw.MB}
	var statsAt core.SupervisorStats
	var bytesAt uint64
	t, err := runTask(sup, s3, w, func() {
		// Snapshot at completion so checkpoints after the task is done do
		// not leak into the cell.
		statsAt = sup.Stats()
		bytesAt = net.BytesSent()
	})
	if err != nil {
		return arm, err
	}
	if _, err := tb.finish(t, 12*sim.Hour); err != nil {
		return arm, err
	}
	sup.Stop()
	arm.Ckpts = statsAt.Checkpoints - baseStats.Checkpoints
	arm.CkptBytes = bytesAt - bytesBase
	arm.CkptCostSec = statsAt.CheckpointSec - baseStats.CheckpointSec
	if arm.Ckpts <= 0 {
		return arm, fmt.Errorf("experiments: delta run committed no steady-state checkpoints")
	}
	if plane != nil {
		arm.HitRate = plane.Stats().HitRate()
	}
	return arm, nil
}

// DeltaTable renders ablation J.
func DeltaTable(rows []DeltaRow) *Table {
	t := &Table{
		Title: "Ablation J: chunked state transfer & delta checkpoints (1 GB disk, 64 MB memory)",
		Note: "warm = second staged instantiation on the same node; wire = payload bytes on the network; " +
			"save = full-copy bytes over chunked bytes at the same interval",
		Header: []string{"chunk", "ckpt every (s)", "cold (s)", "warm (s)", "warm wire (MB)",
			"warm save", "ckpt cost (s)", "ckpt wire (MB)", "ckpt save", "hit rate"},
	}
	for _, r := range rows {
		chunkLbl := "full-copy"
		warmSave, ckptSave, hit := "-", "-", "-"
		if r.ChunkKiB > 0 {
			chunkLbl = fmt.Sprintf("%d KiB", r.ChunkKiB)
			warmSave = fmt.Sprintf("%.0fx", r.WarmSavings)
			ckptSave = fmt.Sprintf("%.1fx", r.CkptSavings)
			hit = pct(r.HitRate)
		}
		t.Rows = append(t.Rows, []string{
			chunkLbl,
			fmt.Sprintf("%.0f", r.IntervalSec),
			f1(r.ColdSec),
			f1(r.WarmSec),
			f2(r.WarmWireMB),
			warmSave,
			f1(r.CkptCostSec),
			f2(r.CkptWireMB),
			ckptSave,
			hit,
		})
	}
	return t
}
