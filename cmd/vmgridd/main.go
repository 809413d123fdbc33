// Command vmgridd serves a vmgrid fabric over TCP. The grid starts
// empty; build topology and images with vmgridctl (or any client of the
// wire protocol), then create and manage VM sessions.
//
// Usage:
//
//	vmgridd [-listen :7609] [-seed 1] [-demo] [-chunked]
//
// With -demo the daemon pre-builds the two-site testbed used throughout
// the paper reproduction: front end, two compute nodes and a data server
// on one LAN, an image server across a WAN, a 2 GB RedHat 7.2 image
// (warm snapshot included), and a 1 GB user dataset.
//
// With -chunked the grid runs the content-addressed chunk plane
// (DESIGN.md §10): staged transfers dedup against per-node chunk
// caches and `vmgridctl top` reports the grid-wide hit rate.
//
// The served grid is traced and telemetered from birth: the metrics,
// spans, top, alerts, and watch wire ops always have data, and the
// standard SLO rules (slowdown, stale-lease, split-brain-risk) are
// armed. Drive the dashboard with `vmgridctl top` / `vmgridctl alerts`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"vmgrid/internal/chunk"
	"vmgrid/internal/hw"
	"vmgrid/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vmgridd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":7609", "listen address")
	seed := flag.Uint64("seed", 1, "simulation seed")
	demo := flag.Bool("demo", false, "pre-build the paper's two-site testbed")
	chunked := flag.Bool("chunked", false, "enable the content-addressed chunked staging plane")
	flag.Parse()

	srv := wire.NewServer(*seed)
	if *chunked {
		srv.Grid().EnableChunkedStaging(chunk.Config{})
	}
	if *demo {
		if err := buildDemo(srv); err != nil {
			return fmt.Errorf("demo fabric: %w", err)
		}
	}
	if err := srv.Serve(*listen); err != nil {
		return err
	}
	fmt.Printf("vmgridd: serving on %s (seed %d, demo=%v)\n", srv.Addr(), *seed, *demo)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("vmgridd: shutting down")
	return srv.Close()
}

// buildDemo assembles the standard testbed directly on the in-process
// grid (no need to round-trip through the socket for our own setup).
func buildDemo(srv *wire.Server) error {
	l := wire.NewLocal(srv)
	for _, p := range []wire.AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."},
		{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."},
		{Name: "data", Site: "nwu", Roles: []string{"data-server"}},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	} {
		if err := l.AddNode(p); err != nil {
			return err
		}
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, a := range lan {
		for _, b := range lan[i+1:] {
			if err := l.Connect(a, b, "lan"); err != nil {
				return err
			}
		}
	}
	for _, a := range []string{"front", "compute1", "compute2"} {
		if err := l.Connect(a, "images", "wan"); err != nil {
			return err
		}
	}
	for _, node := range []string{"compute1", "compute2", "images"} {
		if err := l.InstallImage(wire.InstallImageParams{
			Node: node, Name: "rh72", OS: "redhat-7.2",
			DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB,
		}); err != nil {
			return err
		}
	}
	return l.CreateData(wire.CreateDataParams{Node: "data", File: "dataset", Bytes: 1 * hw.GB})
}
