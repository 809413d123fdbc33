package experiments

import (
	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
	"vmgrid/internal/vnet"
)

// OverlayRow compares message latency between two of a user's VMs with
// and without the self-optimizing overlay, for one direct-path quality.
type OverlayRow struct {
	// DirectMs is the one-way latency of the degraded direct path.
	DirectMs float64
	// PlainMs is the measured delivery latency going direct.
	PlainMs float64
	// OverlayMs is the measured delivery latency through the overlay
	// (which may relay through a third VM).
	OverlayMs float64
	// Relayed reports whether the overlay chose a relay.
	Relayed bool
}

// AblationOverlay quantifies §3.3's "overlay network would optimize
// itself": two VMs communicate over a direct path of varying quality
// while a third VM sits on two good 5 ms links. Once the direct path
// degrades past the detour, the overlay routes around it — resilient
// overlay networks in miniature. The six path qualities simulate
// independently (paired on the experiment seed) and fan out across
// workers goroutines.
func AblationOverlay(seed uint64, workers int) ([]OverlayRow, error) {
	paths := []float64{2, 5, 9, 15, 40, 120}
	return RunSamples(seed, len(paths), workers,
		func(i int, _ uint64) (OverlayRow, error) {
			return overlayRun(seed, paths[i])
		})
}

func overlayRun(seed uint64, directMs float64) (OverlayRow, error) {
	k := sim.NewKernel(seed)
	n := netsim.New(k)
	for _, name := range []string{"vm-a", "vm-b", "vm-relay"} {
		n.AddNode(name)
	}
	direct := sim.DurationOf(directMs / 1000)
	if err := n.Connect("vm-a", "vm-b", direct, 1e7); err != nil {
		return OverlayRow{}, err
	}
	if err := n.Connect("vm-a", "vm-relay", 5*sim.Millisecond, 1e7); err != nil {
		return OverlayRow{}, err
	}
	if err := n.Connect("vm-relay", "vm-b", 5*sim.Millisecond, 1e7); err != nil {
		return OverlayRow{}, err
	}

	overlay, err := vnet.NewOverlay(n, "vm-a", "vm-b", "vm-relay")
	if err != nil {
		return OverlayRow{}, err
	}

	const msgBytes = 4 << 10
	var plainAt, overlayAt sim.Time
	if err := n.Send("vm-a", "vm-b", msgBytes, nil, func(any) { plainAt = k.Now() }); err != nil {
		return OverlayRow{}, err
	}
	k.Run()
	mark := k.Now()
	if err := overlay.Send("vm-a", "vm-b", msgBytes, nil, func(any) { overlayAt = k.Now() }); err != nil {
		return OverlayRow{}, err
	}
	k.Run()

	return OverlayRow{
		DirectMs:  directMs,
		PlainMs:   plainAt.Sub(0).Seconds() * 1000,
		OverlayMs: overlayAt.Sub(mark).Seconds() * 1000,
		Relayed:   overlay.Via("vm-a", "vm-b") != "",
	}, nil
}

// OverlayTable renders ablation F.
func OverlayTable(rows []OverlayRow) *Table {
	t := &Table{
		Title:  "Ablation F: self-optimizing overlay between a user's VMs",
		Note:   "4 KB message, direct path degrading; relay path is 2 x 5 ms",
		Header: []string{"direct path (ms)", "plain (ms)", "overlay (ms)", "path"},
	}
	for _, r := range rows {
		path := "direct"
		if r.Relayed {
			path = "via relay"
		}
		t.Rows = append(t.Rows, []string{
			f1(r.DirectMs), f2(r.PlainMs), f2(r.OverlayMs), path,
		})
	}
	return t
}
