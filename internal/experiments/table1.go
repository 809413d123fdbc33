package experiments

import (
	"fmt"

	"vmgrid/internal/guest"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vfs"
	"vmgrid/internal/vmm"
)

// Table1Row is one macrobenchmark measurement.
type Table1Row struct {
	App      string
	Resource string // "Physical", "VM, local disk", "VM, PVFS"
	User     float64
	Sys      float64
	Total    float64
	// Overhead is relative to the physical run of the same app (NaN-free:
	// zero for the physical rows themselves).
	Overhead float64
}

// Table1 reproduces the macrobenchmark: SPECseis- and SPECclimate-shaped
// workloads on (a) the physical machine, (b) a VM with state on local
// disk, and (c) a VM with state accessed via the NFS-based grid virtual
// file system across a WAN (image server at the remote site, data server
// on the local LAN, as in the paper's §4 description). The six (app,
// resource) runs are independent simulations and fan out across workers
// goroutines (<= 0 means one per CPU); rows are identical at any count.
func Table1(seed uint64, workers int) ([]Table1Row, error) {
	apps := []guest.Workload{guest.SPECseis96(), guest.SPECclimate()}
	modes := []struct{ mode, label string }{
		{"physical", "Physical"},
		{"vm-local", "VM, local disk"},
		{"vm-pvfs", "VM, PVFS"},
	}
	// Paired design: every run replays the experiment seed so the VM rows
	// are compared against a physical baseline that saw the identical
	// randomness — the runner-derived per-sample seed is ignored.
	results, err := RunSamples(seed, len(apps)*len(modes), workers,
		func(i int, _ uint64) (guest.TaskResult, error) {
			app, m := apps[i/len(modes)], modes[i%len(modes)]
			res, err := table1Run(seed, app, m.mode)
			if err != nil {
				return res, fmt.Errorf("table1 %s %s: %w", app.Name, m.mode, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	var rows []Table1Row
	for ai, app := range apps {
		physical := results[ai*len(modes)] // modes[0] is the physical run
		for mi, m := range modes {
			res := results[ai*len(modes)+mi]
			rows = append(rows, Table1Row{
				App:      app.Name,
				Resource: m.label,
				User:     res.UserSeconds,
				Sys:      res.SysSeconds(),
				Total:    res.Elapsed().Seconds(),
				Overhead: res.Elapsed().Seconds()/physical.Elapsed().Seconds() - 1,
			})
		}
	}
	return rows, nil
}

// table1Run executes one app in one configuration and returns its result.
func table1Run(seed uint64, app guest.Workload, mode string) (guest.TaskResult, error) {
	k := sim.NewKernel(seed)
	compute, err := hostos.New(k, hw.ReferenceMachine("compute"))
	if err != nil {
		return guest.TaskResult{}, err
	}
	store := storage.NewStore(compute)
	img := storage.ImageInfo{Name: "rh71", OS: "redhat-7.1", DiskBytes: 1 * hw.GB, MemBytes: 128 * hw.MB}
	if err := storage.InstallImage(store, img); err != nil {
		return guest.TaskResult{}, err
	}
	if err := store.Create("dataset", 2*hw.GB); err != nil {
		return guest.TaskResult{}, err
	}

	var res guest.TaskResult
	runOn := func(os *guest.OS) error {
		_, err := os.Run(app, func(r guest.TaskResult) { res = r })
		return err
	}

	switch mode {
	case "physical":
		os := guest.NewOS(guest.NewNativeCPU(compute.Spawn("app")))
		os.MarkBooted()
		root, err := store.Open(img.DiskFile())
		if err != nil {
			return res, err
		}
		data, err := store.Open("dataset")
		if err != nil {
			return res, err
		}
		os.Mount("root", root)
		os.Mount("data", data)
		if err := runOn(os); err != nil {
			return res, err
		}

	case "vm-local":
		vm, err := table1VM(k, compute, store, img, nil, "")
		if err != nil {
			return res, err
		}
		data, err := store.Open("dataset")
		if err != nil {
			return res, err
		}
		vm.Guest().Mount("data", data)
		if err := runOn(vm.Guest()); err != nil {
			return res, err
		}

	case "vm-pvfs":
		// Topology: compute and data server at the local site (LAN);
		// image server across the WAN holding the VM state.
		net := netsim.New(k)
		if err := net.BuildLAN("compute", "data"); err != nil {
			return res, err
		}
		net.AddNode("images")
		if err := net.ConnectWAN("compute", "images"); err != nil {
			return res, err
		}
		imgHost, err := hostos.New(k, hw.ReferenceMachine("images"))
		if err != nil {
			return res, err
		}
		imgStore := storage.NewStore(imgHost)
		if err := storage.InstallImage(imgStore, img); err != nil {
			return res, err
		}
		dataHost, err := hostos.New(k, hw.ReferenceMachine("data"))
		if err != nil {
			return res, err
		}
		dataStore := storage.NewStore(dataHost)
		if err := dataStore.Create("dataset", 2*hw.GB); err != nil {
			return res, err
		}

		imgTr, err := vfs.NewNetTransport(net, "compute", "images", vfs.NewServer(imgStore))
		if err != nil {
			return res, err
		}
		imgClient, err := vfs.NewClient(k, imgTr, vfs.WANConfig())
		if err != nil {
			return res, err
		}
		vm, err := table1VM(k, compute, store, img, imgClient, "images")
		if err != nil {
			return res, err
		}

		dataTr, err := vfs.NewNetTransport(net, "compute", "data", vfs.NewServer(dataStore))
		if err != nil {
			return res, err
		}
		dataClient, err := vfs.NewClient(k, dataTr, vfs.LANConfig())
		if err != nil {
			return res, err
		}
		vm.Guest().Mount("data", dataClient.Open("dataset", 2*hw.GB))
		if err := runOn(vm.Guest()); err != nil {
			return res, err
		}

	default:
		return res, fmt.Errorf("experiments: unknown table1 mode %q", mode)
	}

	_ = k.RunUntil(sim.Time(20 * sim.Hour))
	if res.End == 0 {
		return res, fmt.Errorf("experiments: %s/%s never finished", app.Name, mode)
	}
	return res, res.Err
}

// table1VM builds and warm-restores a VM whose root disk base is either
// the local image (imgClient nil) or the remote image server via the
// grid virtual file system.
func table1VM(k *sim.Kernel, h *hostos.Host, local *storage.Store,
	img storage.ImageInfo, imgClient *vfs.Client, server string) (*vmm.VM, error) {
	var base, mem storage.Backend
	if imgClient == nil {
		var err error
		if base, err = local.Open(img.DiskFile()); err != nil {
			return nil, err
		}
		if mem, err = local.Open(img.MemFile()); err != nil {
			return nil, err
		}
	} else {
		base = imgClient.Open(img.DiskFile(), img.DiskBytes)
		mem = imgClient.Open(img.MemFile(), img.MemBytes)
	}
	diff, err := local.OpenOrCreate("app.cow")
	if err != nil {
		return nil, err
	}
	vm, err := vmm.New(h, vmm.Config{
		Name:     "app-vm",
		MemBytes: img.MemBytes,
		Disk:     storage.NewCowDisk(base, diff),
		MemImage: mem,
	})
	if err != nil {
		return nil, err
	}
	started := false
	if err := vm.Start(vmm.WarmRestore, func(err error) {
		if err == nil {
			started = true
		}
	}); err != nil {
		return nil, err
	}
	// Bring the VM up before the measured run begins.
	_ = k.RunUntil(k.Now().Add(10 * sim.Minute))
	if !started {
		return nil, fmt.Errorf("experiments: VM never restored (server %s)", server)
	}
	return vm, nil
}

// Table1Table renders the rows like the paper's Table 1.
func Table1Table(rows []Table1Row) *Table {
	t := &Table{
		Title:  "Table 1: macrobenchmark user/system/total times and overheads",
		Note:   "overhead is vs. the physical run of the same application",
		Header: []string{"application", "resource", "user (s)", "sys (s)", "user+sys (s)", "overhead"},
	}
	for _, r := range rows {
		ovh := "N/A"
		if r.Resource != "Physical" {
			ovh = pct(r.Overhead)
		}
		t.Rows = append(t.Rows, []string{
			r.App, r.Resource, f1(r.User), f1(r.Sys), f1(r.Total), ovh,
		})
	}
	return t
}
