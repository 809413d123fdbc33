package core

import (
	"fmt"
	"strings"
)

// Usage is the metered consumption of one session — what a provider
// bills. The paper's resource-control argument (§2.2) is that the VM
// granularity makes this natural: one monitor process and a handful of
// files are the whole footprint of a user.
type Usage struct {
	// CPUSeconds is host CPU consumed by the monitor process (includes
	// virtualization overhead — the provider's cost, not the guest's
	// useful work).
	CPUSeconds float64
	// GuestUserSeconds is useful work the guest retired.
	GuestUserSeconds float64
	// DiffBytes is copy-on-write storage consumed on the host.
	DiffBytes int64
	// ImageBytesFetched is data pulled from the image server.
	ImageBytesFetched uint64
	// DataBytesFetched is data pulled from the data server.
	DataBytesFetched uint64
	// WallSeconds is how long the session has existed.
	WallSeconds float64
}

// Usage returns the session's metered consumption so far.
func (s *Session) Usage() Usage {
	u := Usage{}
	if vm := s.VM(); vm != nil {
		u.CPUSeconds = vm.Proc().CPUSeconds()
		u.GuestUserSeconds = vm.Guest().UserSeconds()
	}
	if s.cur != nil && s.cur.cow != nil {
		u.DiffBytes = s.cur.cow.DiffBytes()
	}
	if s.imageClient != nil {
		u.ImageBytesFetched = s.imageClient.BytesFetched()
	}
	if s.dataClient != nil {
		u.DataBytesFetched = s.dataClient.BytesFetched()
	}
	if at := s.EventAt("submitted"); at >= 0 {
		u.WallSeconds = s.grid.k.Now().Sub(at).Seconds()
	}
	return u
}

// Efficiency returns useful guest work per host CPU second (0 when no
// CPU has been consumed yet).
func (u Usage) Efficiency() float64 {
	if u.CPUSeconds <= 0 {
		return 0
	}
	return u.GuestUserSeconds / u.CPUSeconds
}

// String renders a one-session bill.
func (u Usage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cpu=%.1fs guest-work=%.1fs (eff %.1f%%) diff=%dKB image-fetch=%dKB data-fetch=%dKB wall=%.1fs",
		u.CPUSeconds, u.GuestUserSeconds, u.Efficiency()*100,
		u.DiffBytes>>10, u.ImageBytesFetched>>10, u.DataBytesFetched>>10, u.WallSeconds)
	return b.String()
}

// AccountingReport summarizes all sessions a provider has hosted on one
// grid (live and dead sessions the caller retained).
func AccountingReport(sessions []*Session) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-10s %-12s %-12s %-8s\n", "session", "user", "cpu (s)", "work (s)", "eff")
	var totalCPU, totalWork float64
	for _, s := range sessions {
		u := s.Usage()
		totalCPU += u.CPUSeconds
		totalWork += u.GuestUserSeconds
		fmt.Fprintf(&b, "%-20s %-10s %-12.1f %-12.1f %-8.2f\n",
			s.Name(), s.cfg.User, u.CPUSeconds, u.GuestUserSeconds, u.Efficiency())
	}
	fmt.Fprintf(&b, "%-20s %-10s %-12.1f %-12.1f\n", "TOTAL", "", totalCPU, totalWork)
	return b.String()
}
