package offload

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Regression (in-package: the asserted state is unexported): splitByHome's
// fence check must run as a pure pre-pass BEFORE any load-aware routing.
// The old scan routed descriptors as it walked — each routeSocket call
// folds a queueing-delay sample into the Placement cost EWMA and installs a
// hysteresis incumbent — and only bailed on reaching the fence, leaving
// phantom route state behind for a flush that was then submitted unsplit.
// Under a saturated socket those phantom samples could flip the detour
// decision for unrelated traffic.
func TestSplitByHomeFencePrePassLeavesRoutingUntouched(t *testing.T) {
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	var wqs []*dsa.WQ
	for s := 0; s < 2; s++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", s))
		if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}}); err != nil {
			t.Fatal(err)
		}
		if err := dev.Enable(); err != nil {
			t.Fatal(err)
		}
		wqs = append(wqs, dev.WQs()...)
	}
	sched := NewPlacement()
	pol := DefaultPolicy()
	pol.LoadAware = true
	svc, err := NewService(e, sys, wqs, WithScheduler(sched), WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	a := tn.AllocOn(0, n)
	b := tn.AllocOn(0, n)
	c := tn.AllocOn(1, n)

	// Mixed-home chain with a mid-chain fence: descriptor 0 is scanned
	// before the fence is reachable in a single forward walk.
	fenced := []dsa.Descriptor{
		{Op: dsa.OpMemmove, Src: a.Addr(0), Dst: b.Addr(0), Size: n},
		{Op: dsa.OpMemmove, Flags: dsa.FlagFence, Src: b.Addr(0), Dst: c.Addr(0), Size: n},
	}
	if groups := tn.splitByHome(fenced); groups != nil {
		t.Fatalf("fenced chain split into %d groups, want unsplit", len(groups))
	}
	// loadAwareSocket's first act is sizing the hysteresis tables (ensure);
	// their absence proves no descriptor was routed before the bail-out.
	if len(sched.lastRoute) != 0 || len(sched.smoothed) != 0 {
		t.Fatalf("fence scan touched routing state: lastRoute=%v smoothed=%v",
			sched.lastRoute, sched.smoothed)
	}

	// Counterfactual: the same chain unfenced DOES route (state appears)
	// and splits — the pre-pass, not the workload, kept the state clean.
	plain := []dsa.Descriptor{
		{Op: dsa.OpMemmove, Src: a.Addr(0), Dst: b.Addr(0), Size: n},
		{Op: dsa.OpMemmove, Src: c.Addr(0), Dst: c.Addr(0), Size: n},
	}
	if groups := tn.splitByHome(plain); len(groups) != 2 {
		t.Fatalf("unfenced mixed-home chain produced %d groups, want 2", len(groups))
	}
	if len(sched.lastRoute) == 0 {
		t.Fatal("unfenced load-aware scan did not engage the router")
	}
}
