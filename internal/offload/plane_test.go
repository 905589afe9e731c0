package offload_test

import (
	"errors"
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// planeRig builds a service plus one plane-backed tenant over the rig's
// WQs. wqcfg defaults to the rig's (one 32-entry dedicated WQ/device).
func planeRig(t *testing.T, sockets, lanes int, class offload.QoSClass, wqcfg ...dsa.WQConfig) (*rig, *offload.Tenant, *offload.Plane) {
	t.Helper()
	r := newRig(t, sockets, wqcfg...)
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.WithClass(class))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(lanes)
	if err != nil {
		t.Fatal(err)
	}
	return r, tn, pl
}

func TestPlaneOnePerWQSet(t *testing.T) {
	_, tn, _ := planeRig(t, 1, 2, offload.Bulk)
	if _, err := tn.NewPlane(2); err == nil {
		t.Fatal("second plane on one tenant did not fail")
	}
	tn2, err := tn.S.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn2.NewPlane(0); err == nil {
		t.Fatal("zero-lane plane did not fail")
	}
}

// TestPlaneQoSCandidates checks the lanes honor the same express/rest
// reservation the PriorityAware Pick path applies: a latency-sensitive
// tenant's submissions land only on the top-priority WQ, a bulk tenant's
// only on the rest.
func TestPlaneQoSCandidates(t *testing.T) {
	cfg := []dsa.WQConfig{
		{Mode: dsa.Shared, Size: 32, Priority: 10},
		{Mode: dsa.Shared, Size: 32, Priority: 1},
	}
	for _, tc := range []struct {
		class   offload.QoSClass
		wantPri int
	}{
		{offload.LatencySensitive, 10},
		{offload.Bulk, 1},
	} {
		r, tn, pl := planeRig(t, 1, 2, tc.class, cfg...)
		src, dst := tn.Alloc(4096), tn.Alloc(4096)
		r.run(func(p *sim.Proc) {
			lane := pl.Lane(0)
			for i := 0; i < 8; i++ {
				if err := lane.Submit(p, dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}); err != nil {
					t.Error(err)
					return
				}
			}
			pl.WaitInflight(p, 0)
		})
		for _, wq := range pl.WQs() {
			got := wq.Submitted()
			if wq.Priority == tc.wantPri && got != 8 {
				t.Errorf("%v: priority-%d WQ accepted %d descriptors, want 8", tc.class, wq.Priority, got)
			}
			if wq.Priority != tc.wantPri && got != 0 {
				t.Errorf("%v: priority-%d WQ accepted %d descriptors, want 0", tc.class, wq.Priority, got)
			}
		}
	}
}

// TestPlaneAdmissionShards checks each lane's bucket is an independent
// shard of the tenant rate: every lane admits its burst share, then
// sheds, without any lane stealing a sibling's tokens.
func TestPlaneAdmissionShards(t *testing.T) {
	r, tn, pl := planeRig(t, 1, 4, offload.Bulk)
	pol := tn.Policy()
	pol.AdmitRate = 1000 // ~1 token/ms: nothing re-accrues within the test
	pol.AdmitBurst = 4   // one per lane
	pol.AdmitWait = false
	tn.SetPolicy(pol)
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	r.run(func(p *sim.Proc) {
		for i := 0; i < pl.Lanes(); i++ {
			if err := pl.Lane(i).Submit(p, d); err != nil {
				t.Errorf("lane %d burst submission shed: %v", i, err)
			}
		}
		for i := 0; i < pl.Lanes(); i++ {
			if err := pl.Lane(i).Submit(p, d); !errors.Is(err, offload.ErrAdmission) {
				t.Errorf("lane %d over-burst submission err = %v, want ErrAdmission", i, err)
			}
		}
		pl.WaitInflight(p, 0)
	})
	if s := tn.Stats(); s.HWOps != 4 || s.Shed != 4 {
		t.Errorf("stats = %d admitted / %d shed, want 4/4", s.HWOps, s.Shed)
	}
}

// TestPlaneSimSubmitCompletes drives the full simulation path: N procs
// each own a lane, submit copies through it, and barrier on
// WaitInflight(0); every descriptor must reach a WQ, complete, and be
// accounted, with the drain exiting cleanly (Engine.Run returning).
func TestPlaneSimSubmitCompletes(t *testing.T) {
	const lanes, perLane = 8, 25
	r, tn, pl := planeRig(t, 2, lanes, offload.Bulk,
		dsa.WQConfig{Mode: dsa.Shared, Size: 32})
	src := tn.Alloc(4096)
	dst := tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	for i := 0; i < lanes; i++ {
		lane := pl.Lane(i)
		r.e.Go("submitter", func(p *sim.Proc) {
			for j := 0; j < perLane; j++ {
				if err := lane.Submit(p, d); err != nil {
					t.Error(err)
					return
				}
			}
			pl.WaitInflight(p, 0)
		})
	}
	r.e.Run()
	if pl.Pending() != 0 || pl.Inflight() != 0 {
		t.Fatalf("after run: pending %d inflight %d, want 0/0", pl.Pending(), pl.Inflight())
	}
	var submitted int64
	for _, wq := range pl.WQs() {
		submitted += wq.Submitted()
	}
	if submitted != lanes*perLane {
		t.Errorf("WQs accepted %d descriptors, want %d", submitted, lanes*perLane)
	}
	if s := tn.Stats(); s.HWOps != lanes*perLane || s.HWBytes != lanes*perLane*4096 {
		t.Errorf("stats = %d ops / %d bytes, want %d / %d",
			s.HWOps, s.HWBytes, lanes*perLane, lanes*perLane*4096)
	}
}

// TestPlaneSubmitAvoidsDisabledWQs checks a lane never lands an entry
// behind a WQ that is down: with one WQ per socket in a disable window,
// every submission goes to the tenant socket's healthy WQ without a drain
// failover, and a full ring makes the submitter wait rather than detour.
func TestPlaneSubmitAvoidsDisabledWQs(t *testing.T) {
	cfg := []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}, {Mode: dsa.Dedicated, Size: 32}}
	r, tn, pl := planeRig(t, 2, 1, offload.Bulk, cfg...)
	down := sim.Time(time.Millisecond)
	for dev, wq := range []int{1, 0} {
		if _, err := r.devs[dev].InjectFaults(dsa.FaultConfig{WQDisables: []dsa.WQDisable{{WQ: wq, Dur: down}}}); err != nil {
			t.Fatal(err)
		}
	}
	wqs := pl.WQs() // socket 0's two WQs, then socket 1's
	const n = 33    // one more than the ring holds
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	r.run(func(p *sim.Proc) {
		p.Sleep(1) // the disable windows open
		lane := pl.Lane(0)
		for i := 0; i < n; i++ {
			if err := lane.Submit(p, d); err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
		}
		pl.WaitInflight(p, 0)
		if p.Now() >= down {
			t.Errorf("burst outlasted the disable windows (%v)", p.Now())
		}
	})
	for i, want := range []int64{n, 0, 0, 0} {
		if got := wqs[i].Submitted(); got != want {
			t.Errorf("WQ %d accepted %d descriptors, want %d", i, got, want)
		}
	}
	if s := tn.Stats(); s.Failovers != 0 {
		t.Errorf("drain failed over %d rings: an entry landed behind a disabled WQ", s.Failovers)
	}
}

// TestPlaneBurstAllocs pins the host allocations of one plane burst on
// the simulated path: Lane.Submit, the drain, device completion and
// WaitInflight(p, 0). Publishing the routing occupancy allocates nothing,
// and the drain is an engine callback bound once per plane, so re-arming
// it for each op of a lone submitter allocates nothing either.
func TestPlaneBurstAllocs(t *testing.T) {
	const burst, want = 64, 256
	r, tn, pl := planeRig(t, 1, 1, offload.Bulk)
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	d := dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: 4096}
	lane := pl.Lane(0)
	body := func(p *sim.Proc) {
		for i := 0; i < burst; i++ {
			if err := lane.Submit(p, d); err != nil {
				t.Error(err)
				return
			}
		}
		pl.WaitInflight(p, 0)
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.e.Go("burst", body)
		r.e.Run()
	})
	if allocs > want {
		t.Errorf("one burst of %d plane ops allocates %.0f times, want at most %d", burst, allocs, want)
	}
}
