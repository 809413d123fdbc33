// Command vmgridctl drives a running vmgridd over TCP.
//
// Usage:
//
//	vmgridctl [-addr host:7609] <command> [args]
//
// Commands:
//
//	status
//	ping
//	add-node   -name N -site S -roles compute,front-end [-slots 2] [-dhcp 10.0.0.]
//	connect    -a A -b B [-kind lan|wan]
//	install    -node N -image I [-os OS] [-disk-bytes B] [-mem-bytes B]
//	mkdata     -node N -file F -bytes B
//	session    -user U -front F -image I [-mode restore|reboot]
//	           [-disk non-persistent|persistent]
//	           [-access local|loopback|on-demand|staged]
//	           [-data-node N -data-file F] [-home N] [-site S]
//	run        -session S -cpu SECONDS [-reads N -read-bytes B -mount M]
//	migrate    -session S -target NODE
//	hibernate  -session S
//	wake       -session S
//	shutdown   -session S
//	usage      -session S
//	query      -kind host|vm-future|vm|image-server|data-server|alert
//	metrics
//	spans      [-cat C]
//	trace      SESSION   (or -session S)
//	incidents
//	incident   ID        (or -id I)
//	top        [-n FRAMES] [-every SECONDS]
//	alerts
//
// metrics prints the daemon's counter registry, one name and count a
// line.
//
// top renders a live text dashboard of the served grid: one frame per
// node/session table plus the firing alerts, streamed -n times with
// -every virtual seconds between frames (one frame by default). A
// session row shows its failed data RPCs (vfs-transport-errors=N) once
// there is one.
//
// trace prints one session's causal span tree (client RPC spans nested
// under the phases that issued them, server-side handler spans under
// the RPCs that carried them) followed by the postmortem: the critical
// path through the session's lifecycle and the attribution of its
// duration to resources (vfs-wait, cpu, migration, quorum-write, ...).
// incidents lists the flight recorder's frozen bundles; incident dumps
// one bundle — ring context, causal capture, and postmortem report.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vmgrid/internal/obs"
	"vmgrid/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vmgridctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("vmgridctl", flag.ContinueOnError)
	addr := global.String("addr", "127.0.0.1:7609", "vmgridd address")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (try: status, session, run, migrate, query)")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	c, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Println("pong")
		return nil

	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Printf("virtual time: %.1fs\n", st.VirtualSec)
		fmt.Println("nodes:")
		for _, n := range st.Nodes {
			fmt.Printf("  %-12s site=%-6s slots=%d runnable=%d files=%d\n",
				n.Name, n.Site, n.Slots, n.Runnable, len(n.Files))
		}
		fmt.Println("sessions:")
		for _, s := range st.Sessions {
			fmt.Printf("  %-20s state=%-10s node=%-10s addr=%s\n",
				s.Name, s.State, s.Node, s.Addr)
		}
		return nil

	case "add-node":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		name := fs.String("name", "", "node name")
		site := fs.String("site", "", "site")
		roles := fs.String("roles", "", "comma-separated roles")
		slots := fs.Int("slots", 0, "VM slots for compute nodes")
		dhcp := fs.String("dhcp", "", "DHCP prefix (e.g. 10.0.0.)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		return c.AddNode(wire.AddNodeParams{
			Name: *name, Site: *site,
			Roles: splitList(*roles), Slots: *slots, DHCPPrefix: *dhcp,
		})

	case "connect":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		a := fs.String("a", "", "first node")
		b := fs.String("b", "", "second node")
		kind := fs.String("kind", "lan", "lan or wan")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		return c.Connect(*a, *b, *kind)

	case "install":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		node := fs.String("node", "", "node")
		image := fs.String("image", "", "image name")
		osName := fs.String("os", "redhat-7.2", "guest OS")
		diskBytes := fs.Int64("disk-bytes", 2<<30, "disk size")
		memBytes := fs.Int64("mem-bytes", 128<<20, "memory snapshot size (0 = cold image)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		return c.InstallImage(wire.InstallImageParams{
			Node: *node, Name: *image, OS: *osName,
			DiskBytes: *diskBytes, MemBytes: *memBytes,
		})

	case "mkdata":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		node := fs.String("node", "", "node")
		file := fs.String("file", "", "file name")
		bytes := fs.Int64("bytes", 1<<30, "size")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		return c.CreateData(wire.CreateDataParams{Node: *node, File: *file, Bytes: *bytes})

	case "session":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		user := fs.String("user", "", "grid user")
		front := fs.String("front", "", "front-end node")
		image := fs.String("image", "", "image name")
		mode := fs.String("mode", "restore", "restore or reboot")
		disk := fs.String("disk", "non-persistent", "disk policy")
		access := fs.String("access", "local", "image access")
		dataNode := fs.String("data-node", "", "data server node")
		dataFile := fs.String("data-file", "", "data file")
		home := fs.String("home", "", "home node for tunneling")
		site := fs.String("site", "", "preferred site")
		place := fs.String("place", "", "placement policy: least-loaded, predicted-load, pack (default: registry ranking)")
		hint := fs.String("node-hint", "", "preferred compute node (not a pin)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		info, err := c.NewSession(wire.SessionParams{
			User: *user, FrontEnd: *front, Image: *image,
			Mode: *mode, Disk: *disk, Access: *access,
			DataNode: *dataNode, DataFile: *dataFile,
			HomeNode: *home, Site: *site,
			Place: *place, NodeHint: *hint,
		})
		if err != nil {
			return err
		}
		printSession(info)
		return nil

	case "run":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		session := fs.String("session", "", "session name")
		name := fs.String("name", "job", "workload name")
		cpu := fs.Float64("cpu", 0, "CPU seconds")
		reads := fs.Int("reads", 0, "data reads")
		readBytes := fs.Int64("read-bytes", 0, "data bytes")
		mount := fs.String("mount", "data", "mount for reads")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		res, err := c.Run(wire.RunParams{
			Session: *session, Name: *name, CPUSeconds: *cpu,
			Reads: *reads, ReadBytes: *readBytes, Mount: *mount,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s: elapsed %.1fs user %.1fs sys %.1fs reads %d iowait %.1fs\n",
			res.Name, res.ElapsedSec, res.UserSec, res.SysSec, res.Reads, res.IOWaitSec)
		return nil

	case "migrate":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		session := fs.String("session", "", "session name")
		target := fs.String("target", "", "target node")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		info, err := c.Migrate(*session, *target)
		if err != nil {
			return err
		}
		printSession(info)
		return nil

	case "usage":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		session := fs.String("session", "", "session name")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		u, err := c.Usage(*session)
		if err != nil {
			return err
		}
		fmt.Printf("session %s\n", u.Session)
		fmt.Printf("  host cpu:    %.1fs\n", u.CPUSeconds)
		fmt.Printf("  guest work:  %.1fs (efficiency %.1f%%)\n", u.GuestUserSeconds, u.Efficiency*100)
		fmt.Printf("  cow diff:    %d KB\n", u.DiffBytes>>10)
		fmt.Printf("  image fetch: %d KB\n", u.ImageBytesFetched>>10)
		fmt.Printf("  data fetch:  %d KB\n", u.DataBytesFetched>>10)
		fmt.Printf("  wall time:   %.1fs\n", u.WallSeconds)
		return nil

	case "hibernate", "wake", "shutdown":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		session := fs.String("session", "", "session name")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		switch cmd {
		case "hibernate":
			info, err := c.Hibernate(*session)
			if err != nil {
				return err
			}
			printSession(info)
		case "wake":
			info, err := c.Wake(*session)
			if err != nil {
				return err
			}
			printSession(info)
		case "shutdown":
			if err := c.Shutdown(*session); err != nil {
				return err
			}
			fmt.Println("ok")
		}
		return nil

	case "query":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		kind := fs.String("kind", "vm-future", "record kind")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		entries, err := c.Query(*kind)
		if err != nil {
			return err
		}
		for _, e := range entries {
			keys := make([]string, 0, len(e.Attrs))
			for k := range e.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var attrs []string
			for _, k := range keys {
				attrs = append(attrs, fmt.Sprintf("%s=%v", k, e.Attrs[k]))
			}
			fmt.Printf("%-14s %-24s %s\n", e.Kind, e.Name, strings.Join(attrs, " "))
		}
		return nil

	case "metrics":
		snap, err := c.Metrics()
		if err != nil {
			return err
		}
		printMetrics(snap)
		return nil

	case "spans":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		cat := fs.String("cat", "", "only spans of this category (phase, rpc, vmm, supervisor, lifecycle)")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		spans, err := c.Spans()
		if err != nil {
			return err
		}
		for _, sp := range spans {
			if *cat != "" && sp.Cat != *cat {
				continue
			}
			mark := fmt.Sprintf("%10.3fs %10.3fs", sp.Start.Seconds(), sp.Dur().Seconds())
			if sp.Instant {
				mark = fmt.Sprintf("%10.3fs %10s", sp.Start.Seconds(), "-")
			}
			line := fmt.Sprintf("%s  %-20s %-11s %s", mark, sp.Track, sp.Cat, sp.Name)
			if sp.Note != "" {
				line += "  (" + sp.Note + ")"
			}
			fmt.Println(line)
		}
		return nil

	case "trace":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		session := fs.String("session", "", "session name")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		if *session == "" && fs.NArg() > 0 {
			*session = fs.Arg(0)
		}
		info, err := c.Trace(*session)
		if err != nil {
			return err
		}
		fmt.Printf("session %s  trace %s  (%d spans)\n", info.Session, info.Trace, len(info.Spans))
		printSpanTree(info.Spans)
		printReport(info.Report)
		return nil

	case "incidents":
		rows, err := c.Incidents()
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			fmt.Println("incidents: none")
			return nil
		}
		for _, r := range rows {
			state := "OPEN"
			if r.Sealed {
				state = fmt.Sprintf("sealed at %.1fs", r.SealedSec)
			}
			line := fmt.Sprintf("%-24s %10.1fs  %-16s %-24s %s",
				r.ID, r.AtSec, r.Trigger, r.Subject, state)
			if r.Causal > 0 {
				line += fmt.Sprintf("  causal=%d", r.Causal)
			}
			if r.Root != "" {
				line += "  root=" + r.Root
			}
			fmt.Println(line)
		}
		return nil

	case "incident":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		id := fs.String("id", "", "incident id")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		if *id == "" && fs.NArg() > 0 {
			*id = fs.Arg(0)
		}
		inc, err := c.Incident(*id)
		if err != nil {
			return err
		}
		fmt.Printf("incident %s\n", inc.ID)
		fmt.Printf("  trigger: %s\n", inc.Trigger)
		fmt.Printf("  subject: %s\n", inc.Subject)
		fmt.Printf("  at:      %.3fs\n", inc.At.Seconds())
		if inc.Sealed() {
			fmt.Printf("  sealed:  %.3fs\n", inc.SealedAt.Seconds())
		} else {
			fmt.Println("  sealed:  (still open)")
		}
		fmt.Printf("  context: %d spans in the flight ring at trigger\n", len(inc.Context))
		if len(inc.Causal) > 0 {
			fmt.Printf("causal capture (%d spans):\n", len(inc.Causal))
			printSpanTree(inc.Causal)
		}
		printReport(inc.Report)
		return nil

	case "top":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		frames := fs.Int("n", 1, "frames to stream")
		every := fs.Float64("every", 1, "virtual seconds between frames")
		if err := fs.Parse(cmdArgs); err != nil {
			return err
		}
		if *frames <= 1 {
			info, err := c.Top()
			if err != nil {
				return err
			}
			printTop(info)
			return nil
		}
		frame := 0
		return c.Watch(*frames, *every, func(info wire.TopInfo) error {
			if frame > 0 {
				fmt.Println(strings.Repeat("-", 64))
			}
			frame++
			printTop(info)
			return nil
		})

	case "alerts":
		info, err := c.Alerts()
		if err != nil {
			return err
		}
		fmt.Println("rules:")
		for _, r := range info.Rules {
			fmt.Printf("  %-18s %s\n", r.Name, r.Expr)
		}
		if len(info.Firings) == 0 {
			fmt.Println("firings: none")
			return nil
		}
		fmt.Println("firings:")
		for _, f := range info.Firings {
			state := "resolved"
			if f.ResolvedSec < 0 {
				state = "ACTIVE"
			}
			fmt.Printf("  %10.1fs %-8s %-18s %-40s value=%g\n",
				f.AtSec, state, f.Rule, f.Series, f.Value)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func printTop(info wire.TopInfo) {
	fmt.Printf("virtual time: %.1fs  (scrapes: %d)\n", info.VirtualSec, info.Scrapes)
	fmt.Println("nodes:")
	for _, n := range info.Nodes {
		if n.Crashed {
			fmt.Printf("  %-12s site=%-6s CRASHED\n", n.Name, n.Site)
			continue
		}
		line := fmt.Sprintf("  %-12s site=%-6s slots=%d runnable=%-3d load=%.2f",
			n.Name, n.Site, n.Slots, n.Runnable, n.Load)
		if n.PredictedLoad > 0 {
			line += fmt.Sprintf(" predicted=%.2f", n.PredictedLoad)
		}
		fmt.Println(line)
	}
	fmt.Println("sessions:")
	for _, s := range info.Sessions {
		line := fmt.Sprintf("  %-20s state=%-10s node=%-10s", s.Name, s.State, s.Node)
		if s.Slowdown > 0 {
			line += fmt.Sprintf(" slowdown=%.3f", s.Slowdown)
		}
		if s.VFSHitRate > 0 {
			line += fmt.Sprintf(" vfs-hit=%.1f%%", s.VFSHitRate*100)
		}
		if s.VFSTransportErrors > 0 {
			line += fmt.Sprintf(" vfs-transport-errors=%d", s.VFSTransportErrors)
		}
		if s.Epoch > 0 {
			line += fmt.Sprintf(" epoch=%d", s.Epoch)
		}
		fmt.Println(line)
	}
	if st := info.Staging; st != nil {
		fmt.Printf("staging cache: hits=%d misses=%d hit-rate=%.1f%% saved=%s\n",
			st.ChunkHits, st.ChunkMisses, st.HitRate*100, fmtBytes(st.BytesSaved))
	}
	if len(info.Replicas) > 0 {
		fmt.Println("gis replicas:")
		for _, r := range info.Replicas {
			line := fmt.Sprintf("  %-12s lag=%.1fs", r.Node, r.LagSec)
			if r.LagSec > 0 {
				line += "  STALE"
			}
			fmt.Println(line)
		}
	}
	if len(info.Alerts) == 0 {
		fmt.Println("alerts: none")
		return
	}
	fmt.Println("alerts:")
	for _, f := range info.Alerts {
		fmt.Printf("  FIRING %-18s %-40s since=%.1fs value=%g\n",
			f.Rule, f.Series, f.AtSec, f.Value)
	}
}

// printSpanTree renders spans as a tree using causal parent links:
// children indent under the span that caused them, siblings order by
// start time. Spans whose parent is absent (or zero) print as roots.
func printSpanTree(spans []obs.SpanRecord) {
	present := make(map[obs.SpanID]bool, len(spans))
	for _, sp := range spans {
		if sp.ID != 0 {
			present[sp.ID] = true
		}
	}
	children := make(map[obs.SpanID][]int)
	var roots []int
	for i, sp := range spans {
		if sp.Parent != 0 && sp.Parent != sp.ID && present[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	byStart(roots)
	for _, kids := range children {
		byStart(kids)
	}
	var emit func(i, depth int)
	emit = func(i, depth int) {
		sp := spans[i]
		mark := fmt.Sprintf("%10.3fs %10.3fs", sp.Start.Seconds(), sp.Dur().Seconds())
		if sp.Instant {
			mark = fmt.Sprintf("%10.3fs %10s", sp.Start.Seconds(), "-")
		}
		line := fmt.Sprintf("%s  %s%s/%s", mark, strings.Repeat("  ", depth), sp.Cat, sp.Name)
		if sp.Track != "" {
			line += "  [" + sp.Track + "]"
		}
		if sp.Note != "" {
			line += "  (" + sp.Note + ")"
		}
		fmt.Println(line)
		for _, k := range children[sp.ID] {
			emit(k, depth+1)
		}
	}
	for _, r := range roots {
		emit(r, 0)
	}
}

// printReport renders a postmortem: the critical path through the root
// interval and the resource attribution derived from it.
func printReport(rep *obs.Report) {
	if rep == nil {
		return
	}
	fmt.Printf("postmortem: %s/%s  %.3fs..%.3fs  total %.3fs\n",
		rep.RootCat, rep.Root, rep.StartUs.Seconds(), rep.EndUs.Seconds(), rep.TotalUs.Seconds())
	fmt.Println("critical path:")
	for _, st := range rep.Critical {
		fmt.Printf("  %10.3fs %10.3fs  %s%s/%s  [%s]\n",
			st.StartUs.Seconds(), st.Dur().Seconds(),
			strings.Repeat("  ", st.Depth), st.Cat, st.Name, st.Resource)
	}
	fmt.Println("attribution:")
	for _, a := range rep.Attribution {
		fmt.Printf("  %-14s %-11s %-26s %10.3fs %5.1f%%\n",
			a.Resource, a.Cat, a.Name, a.SelfUs.Seconds(), a.Share*100)
	}
}

func printMetrics(snap obs.Snapshot) {
	if len(snap.Counters) > 0 {
		fmt.Println("counters:")
		for _, c := range snap.Counters {
			fmt.Printf("  %-28s %g\n", c.Name, c.Value)
		}
	}
}

func printSession(info wire.SessionInfo) {
	fmt.Printf("session %s\n", info.Name)
	fmt.Printf("  state:     %s\n", info.State)
	fmt.Printf("  node:      %s\n", info.Node)
	if info.Addr != "" {
		fmt.Printf("  address:   %s\n", info.Addr)
	}
	if info.ImageServer != "" {
		fmt.Printf("  image via: %s\n", info.ImageServer)
	}
	fmt.Printf("  local user: %s\n", info.LocalUser)
	fmt.Printf("  console:   %s\n", info.Console)
	if info.StartupSec > 0 {
		fmt.Printf("  startup:   %.1fs\n", info.StartupSec)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
