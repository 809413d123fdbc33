// Adaptation demonstrates the paper's §3.2 "application perspective":
// applications adapt to resource conditions using the information
// service and load prediction. A monitor samples every compute host,
// fits autoregressive predictors, and publishes forecast load into the
// VM-future advertisements; arriving sessions then steer around a host
// that is about to be busy — even while it momentarily looks idle.
package main

import (
	"errors"
	"fmt"
	"os"

	"vmgrid/internal/core"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptation:", err)
		os.Exit(1)
	}
}

func run() error {
	g := core.NewGrid(11)
	for _, cfg := range []core.NodeConfig{
		{Name: "front", Site: "lan", Role: core.RoleFrontEnd},
		{Name: "busy-host", Site: "lan", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.0.1."},
		{Name: "calm-host", Site: "lan", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.0.2."},
	} {
		if _, err := g.AddNode(cfg); err != nil {
			return err
		}
	}
	if err := g.Net().BuildLAN("front", "busy-host", "calm-host"); err != nil {
		return err
	}
	img := storage.ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	for _, n := range []string{"busy-host", "calm-host"} {
		if err := g.Node(n).InstallImage(img); err != nil {
			return err
		}
	}

	// busy-host carries strongly autocorrelated background load (a
	// desktop owner's compile-browse-compile rhythm).
	bg := trace.Synthetic(trace.Heavy, sim.NewRNG(4), 4096)
	lp := hostos.NewLoadProcess(g.Node("busy-host").Host(), "owner", bg)
	lp.Start()

	// The RPS loop: 1 s sensors, AR(8) forecasts, refreshed futures.
	monitor, err := g.StartMonitor()
	if err != nil {
		return err
	}
	defer monitor.Stop()

	// Warm up the predictors.
	if err := g.Kernel().RunUntil(sim.Time(2 * sim.Minute)); err != nil && !errors.Is(err, sim.ErrStalled) {
		return err
	}
	fmt.Printf("t=%5.0fs  forecasts: busy-host=%.2f calm-host=%.2f\n",
		g.Kernel().Now().Seconds(),
		monitor.PredictedLoad("busy-host"), monitor.PredictedLoad("calm-host"))

	// Resource discovery through the query language, like an adaptive
	// application would do it.
	rows, err := g.Info().QueryString(
		`select vm-future where slots >= 1 order by load limit 2`)
	if err != nil {
		return err
	}
	fmt.Println("discovery: futures ranked by predicted load:")
	for _, r := range rows {
		e := r.Entries[0]
		fmt.Printf("  %-10s predicted load %.2f\n", e.Name, e.Float("load"))
	}

	// Place three sessions; they should all steer to calm-host.
	for i := 0; i < 3; i++ {
		var sess *core.Session
		if _, err := g.CreateSession(core.SessionConfig{
			User: fmt.Sprintf("u%d", i), FrontEnd: "front", Image: "rh72",
			Mode: vmm.WarmRestore, Disk: core.NonPersistent, Access: core.AccessLocal,
		}, func(s *core.Session, err error) {
			if err != nil {
				fmt.Println("session failed:", err)
				return
			}
			sess = s
		}); err != nil {
			return err
		}
		if err := g.Kernel().RunUntil(g.Kernel().Now().Add(5 * sim.Minute)); err != nil && !errors.Is(err, sim.ErrStalled) {
			return err
		}
		if sess == nil {
			return errors.New("session did not come up")
		}
		fmt.Printf("t=%5.0fs  session %s placed on %s\n",
			g.Kernel().Now().Seconds(), sess.Name(), sess.Node().Name())
	}

	fmt.Println("\nthe middleware avoided the host whose load *forecast* was high,")
	fmt.Println("even at instants when its current load dipped — RPS-style")
	fmt.Println("prediction driving VM placement.")
	return nil
}
