package offload

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// TestPlaneRoutingLeastLoaded checks the published-occupancy plus ring
// backlog routing (in-package: the rings are unexported): with one ring
// pre-loaded, as a sibling lane's burst would leave it, Lane.Submit routes
// every new submission to the emptier ring. The drain is held off so the
// rings keep what lands on them.
func TestPlaneRoutingLeastLoaded(t *testing.T) {
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	dev := dsa.New(e, sys, dsa.DefaultConfig("dsa", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 32},
		{Mode: dsa.Shared, Size: 32},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(e, sys, dev.WQs())
	if err != nil {
		t.Fatal(err)
	}
	tn, err := svc.NewTenant(WithClass(Bulk))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(1)
	if err != nil {
		t.Fatal(err)
	}
	pl.drainOn = true
	for i := 0; i < 6; i++ {
		if !pl.rings[0].push(dsa.Descriptor{Op: dsa.OpNop}, 0) {
			t.Fatal("pre-load push failed")
		}
	}
	e.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := pl.Lane(0).Submit(p, dsa.Descriptor{Op: dsa.OpMemmove, Size: 4096}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	e.Run()
	if got := pl.rings[1].length(); got != 6 {
		t.Errorf("ring 1 holds %d entries, want all 6 routed around the backlog", got)
	}
	if got := pl.rings[0].length(); got != 6 {
		t.Errorf("ring 0 holds %d entries, want only its 6 pre-loaded", got)
	}
}
