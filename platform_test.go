package dsasim

import (
	"bytes"
	"fmt"
	"testing"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
	"dsasim/internal/telemetry"
)

// newPlatform builds pr, failing the test on a layout error.
func newPlatform(t testing.TB, pr Profile) *Platform {
	t.Helper()
	pl, err := NewPlatform(pr)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestNewPlatformLayouts drives the one bring-up path with device layouts
// the idxd driver rejects — each must come back as an error, not a panic
// or a half-built platform — and with valid layouts, which must build
// exactly the devices, sockets, engines and WQs the profile lists.
func TestNewPlatformLayouts(t *testing.T) {
	dwq := []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 16, Priority: 7}}
	cases := []struct {
		name    string
		sockets []int
		groups  []dsa.GroupConfig
		wantErr bool
	}{
		{"engine overcommit", []int{0}, []dsa.GroupConfig{
			{Engines: 3, WQs: dwq}, {Engines: 2, WQs: dwq}}, true},
		{"zero-size WQ", []int{0}, []dsa.GroupConfig{
			{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 0}}}}, true},
		{"group without WQs", []int{0}, []dsa.GroupConfig{{Engines: 4}}, true},
		{"express share leaves no bulk read buffers", []int{0}, []dsa.GroupConfig{
			{Engines: 4, ReadBufs: 16, ExpressBufs: 16, WQs: dwq}}, true},
		{"WQ entry overcommit", []int{0}, []dsa.GroupConfig{
			{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Shared, Size: 128}, {Mode: dsa.Shared, Size: 1}}}}, true},
		{"CPU only", nil, nil, false},
		{"two sockets, two groups", []int{0, 1, 1}, []dsa.GroupConfig{
			{Engines: 1, ReadBufs: 32, ExpressBufs: 8, WQs: []dsa.WQConfig{
				{Mode: dsa.Shared, Size: 8, Priority: 15},
				{Mode: dsa.Shared, Size: 24, Priority: 5},
			}},
			{Engines: 3, WQs: dwq},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := SPR()
			pr.DeviceSockets = tc.sockets
			pr.Groups = tc.groups
			pl, err := NewPlatform(pr)
			if tc.wantErr {
				if err == nil || pl != nil {
					t.Fatalf("NewPlatform: platform built %v, err %v; want no platform and an error", pl != nil, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Devices) != len(tc.sockets) {
				t.Fatalf("devices = %d, want %d", len(pl.Devices), len(tc.sockets))
			}
			nwq := 0
			for i, dev := range pl.Devices {
				if want := fmt.Sprintf("dsa%d", i); dev.Cfg.Name != want || dev.Cfg.Socket != tc.sockets[i] || !dev.Enabled() {
					t.Fatalf("device %d = %s on socket %d (enabled %v), want enabled %s on socket %d",
						i, dev.Cfg.Name, dev.Cfg.Socket, dev.Enabled(), want, tc.sockets[i])
				}
				if len(dev.Groups()) != len(tc.groups) {
					t.Fatalf("%s groups = %d, want %d", dev.Cfg.Name, len(dev.Groups()), len(tc.groups))
				}
				for gi, g := range dev.Groups() {
					gc := tc.groups[gi]
					if len(g.Engines) != gc.Engines || len(g.WQs) != len(gc.WQs) {
						t.Fatalf("%s group %d = %d engines, %d WQs; want %d, %d",
							dev.Cfg.Name, gi, len(g.Engines), len(g.WQs), gc.Engines, len(gc.WQs))
					}
					for wi, wq := range g.WQs {
						if wc := gc.WQs[wi]; wq.Mode != wc.Mode || wq.Size != wc.Size || wq.Priority != wc.Priority {
							t.Fatalf("%s group %d WQ %d = %v/%d/prio %d, want %v/%d/prio %d",
								dev.Cfg.Name, gi, wi, wq.Mode, wq.Size, wq.Priority, wc.Mode, wc.Size, wc.Priority)
						}
					}
					nwq += len(g.WQs)
				}
			}
			switch {
			case nwq == 0 && pl.Offload != nil:
				t.Fatal("device-less platform brought up an offload service")
			case nwq > 0 && len(pl.Offload.WQs()) != nwq:
				t.Fatalf("offload service sees %d WQs, want %d", len(pl.Offload.WQs()), nwq)
			}
		})
	}
}

func TestSPRPlatformBasics(t *testing.T) {
	pl := newPlatform(t, SPR())
	if len(pl.Devices) != 1 {
		t.Fatalf("devices = %d, want 1", len(pl.Devices))
	}
	if !pl.Devices[0].Enabled() {
		t.Fatal("device not enabled")
	}
	if pl.Node(2).Kind != mem.CXL {
		t.Fatal("SPR profile missing CXL node")
	}
	tn := pl.NewTenant()
	src := tn.Alloc(1 << 20)
	dst := tn.Alloc(1 << 20)
	sim.NewRand(1).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := fut.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("1MB copy should take the hardware path")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("platform copy incomplete")
	}
}

func TestICXPlatformUsesCBDMA(t *testing.T) {
	pl := newPlatform(t, ICX())
	if pl.Devices[0].Cfg.Engines != 1 {
		t.Fatalf("ICX CBDMA engines = %d, want 1", pl.Devices[0].Cfg.Engines)
	}
	if got := pl.Devices[0].Cfg.Timing.FabricGBps; got >= dsa.DefaultTiming().FabricGBps {
		t.Fatalf("CBDMA fabric %v should be below DSA's", got)
	}
	tn := pl.NewTenant()
	src := tn.Alloc(64 << 10)
	dst := tn.Alloc(64 << 10)
	pl.Run(func(p *sim.Proc) {
		fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 64<<10, offload.On(offload.Hardware))
		if err == nil {
			_, err = fut.Wait(p, offload.Poll)
		}
		if err != nil {
			t.Error(err)
		}
	})
}

func TestAddDeviceCustomGroups(t *testing.T) {
	pl := newPlatform(t, SPR())
	dev, err := pl.AddDevice("dsa-extra", 0, dsa.GroupConfig{
		Engines: 2,
		WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.WQs()) != 1 || dev.WQs()[0].Mode != dsa.Shared {
		t.Fatal("custom group not applied")
	}
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	if _, err := pl.AddDevice("dsa-extra", 1, dsa.GroupConfig{
		Engines: 1,
		WQs:     []dsa.WQConfig{{Mode: dsa.Shared, Size: 16}},
	}); err == nil {
		t.Fatal("AddDevice accepted a duplicate device name")
	}
}

func TestTenantsAreIsolated(t *testing.T) {
	pl := newPlatform(t, SPR())
	t1 := pl.NewTenant()
	t2 := pl.NewTenant()
	if t1.AS.PASID == t2.AS.PASID {
		t.Fatal("tenants share a PASID")
	}
	b1 := t1.Alloc(4096)
	// t2 must not resolve t1's addresses.
	if _, _, err := t2.AS.Lookup(b1.Addr(0)); err == nil {
		t.Fatal("cross-tenant address resolved")
	}
}

func TestMultiSocketTenant(t *testing.T) {
	pl := newPlatform(t, SPR())
	tn := pl.NewTenantOn(1)
	buf := tn.Alloc(4096)
	if buf.Node.Socket != 1 {
		t.Fatalf("socket-1 tenant allocated on socket %d", buf.Node.Socket)
	}
}

func TestTenantOffloadAPI(t *testing.T) {
	pl := newPlatform(t, SPR())
	tn := pl.NewTenant()
	n := int64(1 << 20)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(11).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := fut.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if !res.Hardware {
			t.Error("1MB copy should take the hardware path")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("tenant copy incomplete")
	}
	if tn.Stats().HWOps != 1 {
		t.Fatalf("stats = %+v", tn.Stats())
	}
}

func TestTenantAllocOnCXLNode(t *testing.T) {
	pl := newPlatform(t, SPR())
	tn := pl.NewTenant()
	if b := tn.AllocOn(2, 4096); b.Node.Kind != mem.CXL {
		t.Fatalf("AllocOn(2) landed on %v, want CXL", b.Node.Kind)
	}
	if b := tn.Alloc(4096); b.Node.Kind != mem.DRAM || b.Node.Socket != 0 {
		t.Fatal("default tenant allocation should land on socket-0 DRAM")
	}
}

// sprSchedElapsed builds the acceptance scenario — the SPR profile with a
// second DSA instance on socket 1 — and measures count synchronous 16KB
// copies from a socket-0 tenant under the profile's scheduler.
func sprSchedElapsed(t *testing.T, mk func() offload.Scheduler, count int) sim.Time {
	t.Helper()
	pr := SPR()
	pr.Scheduler = mk
	pl := newPlatform(t, pr)
	if _, err := pl.AddDevice("dsa1", 1, dsa.GroupConfig{
		Engines: 4,
		WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
	}); err != nil {
		t.Fatal(err)
	}
	tn := pl.NewTenant()
	n := int64(16 << 10)
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	var elapsed sim.Time
	pl.Run(func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < count; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
				return
			}
		}
		elapsed = p.Now() - start
	})
	return elapsed
}

// TestSPRQoSProfileWiring checks the QoS profile construction end to end:
// per-device express + bulk WQ layout, the PriorityAware scheduler, the
// adaptive-threshold default policy, and class-aware tenant steering.
func TestSPRQoSProfileWiring(t *testing.T) {
	pl := newPlatform(t, SPRQoS())
	wqs := pl.Offload.WQs()
	if len(wqs) != 2 {
		t.Fatalf("SPRQoS WQs = %d, want 2 (express + bulk)", len(wqs))
	}
	var express, rest *dsa.WQ
	for _, wq := range wqs {
		if wq.Mode != dsa.Shared {
			t.Fatalf("SPRQoS WQ %d not shared-mode", wq.ID)
		}
		if wq.Priority == 15 {
			express = wq
		} else {
			rest = wq
		}
	}
	if express == nil || rest == nil {
		t.Fatal("SPRQoS device missing the express/bulk WQ split")
	}
	if got := pl.Offload.Scheduler().Name(); got != "priority-aware" {
		t.Fatalf("scheduler = %q, want priority-aware", got)
	}
	if !pl.Offload.Policy().AdaptiveThreshold {
		t.Fatal("SPRQoS default policy should adapt the offload threshold")
	}
	fg := pl.NewTenant(offload.WithClass(offload.LatencySensitive))
	bg := pl.NewTenant()
	n := int64(64 << 10)
	fsrc, fdst := fg.Alloc(n), fg.Alloc(n)
	bsrc, bdst := bg.Alloc(n), bg.Alloc(n)
	pl.Run(func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ff, err := fg.Copy(p, fdst.Addr(0), fsrc.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			bf, err := bg.Copy(p, bdst.Addr(0), bsrc.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := ff.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
			if _, err := bf.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if express.Submitted() != 4 {
		t.Errorf("express WQ saw %d descriptors, want the 4 latency-sensitive ops", express.Submitted())
	}
	if rest.Submitted() != 4 {
		t.Errorf("bulk WQ saw %d descriptors, want the 4 bulk ops", rest.Submitted())
	}
}

// TestSPRPlacementProfileWiring checks the placement profile end to end:
// one device per socket, the Placement scheduler, and data-home routing —
// a socket-0 tenant's copy between socket-1 buffers must land on the
// socket-1 device, and a mixed-home batch must split across both.
func TestSPRPlacementProfileWiring(t *testing.T) {
	pl := newPlatform(t, SPRPlacement())
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	for i, want := range []int{0, 1} {
		if got := pl.Devices[i].Cfg.Socket; got != want {
			t.Fatalf("device %d on socket %d, want %d", i, got, want)
		}
	}
	if got := pl.Offload.Scheduler().Name(); got != "placement" {
		t.Fatalf("scheduler = %q, want placement", got)
	}
	tn := pl.NewTenant()
	n := int64(256 << 10)
	rsrc := tn.AllocOn(1, 2*n)
	rdst := tn.AllocOn(1, 2*n)
	lsrc := tn.AllocOn(0, n)
	ldst := tn.AllocOn(0, n)
	sim.NewRand(21).Bytes(rsrc.Bytes())
	sim.NewRand(22).Bytes(lsrc.Bytes())
	pl.Run(func(p *sim.Proc) {
		f, err := tn.Copy(p, rdst.Addr(0), rsrc.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
			return
		}
		// Mixed-home batch: one socket-0 copy, one socket-1 copy.
		bf, err := tn.NewBatch().
			Copy(ldst.Addr(0), lsrc.Addr(0), n).
			Copy(rdst.Addr(n), rsrc.Addr(n), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := bf.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(rdst.Bytes(), rsrc.Bytes()) || !bytes.Equal(ldst.Bytes(), lsrc.Bytes()) {
		t.Fatal("placement-profile copies incomplete")
	}
	if got := pl.Devices[1].Cfg.Socket; got != 1 {
		t.Fatalf("device 1 socket = %d", got)
	}
	// The remote copy and the batch's socket-1 slice ride device 1.
	if got := pl.Devices[1].Stats().Submitted; got != 2 {
		t.Errorf("socket-1 device saw %d descriptors, want 2", got)
	}
	if got := pl.Devices[0].Stats().Submitted; got != 1 {
		t.Errorf("socket-0 device saw %d descriptors, want 1", got)
	}
	if got := tn.Stats().Splits; got != 2 {
		t.Errorf("Splits = %d, want 2", got)
	}
}

// TestSPRSkewProfileWiring checks the load-aware profile end to end: the
// placement layout with LoadAware defaulted on, so a burst against one
// backlogged socket spills onto the idle socket's device.
func TestSPRSkewProfileWiring(t *testing.T) {
	pl := newPlatform(t, SPRSkew())
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	if got := pl.Offload.Scheduler().Name(); got != "placement" {
		t.Fatalf("scheduler = %q, want placement", got)
	}
	if !pl.Offload.Policy().LoadAware {
		t.Fatal("SPRSkew default policy must set LoadAware")
	}
	tn := pl.NewTenant()
	n := int64(256 << 10)
	src := tn.AllocOn(0, n) // all data on socket 0 — the skew
	dst := tn.AllocOn(0, n)
	pl.Run(func(p *sim.Proc) {
		// Warmup builds the latency history the cost model prices with.
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
			return
		}
		var futs []*offload.Future
		for i := 0; i < 24; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if got := pl.Devices[1].Stats().Submitted; got == 0 {
		t.Error("no submission detoured to the idle socket-1 device under backlog")
	}
	if got := pl.Devices[0].Stats().Submitted; got == 0 {
		t.Error("home device saw no traffic")
	}
}

// TestSPRAdaptiveProfileWiring checks the closed-loop profile end to end:
// one device per socket with an express read-buffer partition, the
// placement-qos scheduler, every adaptive policy knob on, and the
// telemetry plane live (streams registered, windows advancing) after a
// burst of traffic.
func TestSPRAdaptiveProfileWiring(t *testing.T) {
	pl := newPlatform(t, SPRAdaptive())
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d, want 2", len(pl.Devices))
	}
	if got := pl.Offload.Scheduler().Name(); got != "placement-qos" {
		t.Fatalf("scheduler = %q, want placement-qos", got)
	}
	pol := pl.Offload.Policy()
	if !pol.AdaptiveThreshold || !pol.LoadAware || !pol.CoalesceAdaptive {
		t.Fatalf("adaptive knobs = (threshold %v, load %v, coalesce %v), want all on",
			pol.AdaptiveThreshold, pol.LoadAware, pol.CoalesceAdaptive)
	}
	if pol.Wait != offload.Interrupt {
		t.Fatalf("default wait mode = %v, want Interrupt", pol.Wait)
	}
	for i, dev := range pl.Devices {
		g := dev.Groups()[0]
		if g.ExpressBufs != 24 {
			t.Fatalf("device %d express share = %d, want 24", i, g.ExpressBufs)
		}
	}
	tn := pl.NewTenant()
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(41).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Wait(p, pol.Wait); err != nil {
				t.Error(err)
			}
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("adaptive-profile copies incomplete")
	}
	hub := pl.Offload.Telemetry()
	if hub == nil {
		t.Fatal("platform service exposes no telemetry hub")
	}
	var sawLat bool
	for id := 0; id < hub.Streams(); id++ {
		if hub.Digest(telemetry.ID(id)).Count() > 0 {
			sawLat = true
			break
		}
	}
	if !sawLat {
		t.Error("no telemetry stream recorded any samples after traffic")
	}
}

// Scheduler comparison on the real SPR profile with one device per socket:
// NUMA-local placement must deliver at least round-robin's throughput for
// a socket-local workload (Fig 6a's remote-placement penalty).
func TestSchedulerComparisonOnSPR(t *testing.T) {
	const count = 100
	rr := sprSchedElapsed(t, func() offload.Scheduler { return offload.NewRoundRobin() }, count)
	local := sprSchedElapsed(t, func() offload.Scheduler { return offload.NewNUMALocal() }, count)
	if local > rr {
		t.Fatalf("NUMALocal (%v) slower than RoundRobin (%v) on the 2-device SPR platform", local, rr)
	}
}

// TestSPRCoalesceProfileWiring checks the completion-path profile end to
// end: the QoS WQ layout with Interrupt-mode coalescing defaulted on, a
// bulk tenant's window costing one delivery, and the latency-sensitive
// bypass.
func TestSPRCoalesceProfileWiring(t *testing.T) {
	pl := newPlatform(t, SPRCoalesce())
	pol := pl.Offload.Policy()
	if pol.Wait != offload.Interrupt {
		t.Fatalf("default wait mode = %v, want Interrupt", pol.Wait)
	}
	if pol.CoalesceCount != 16 || pol.CoalesceWindow <= 0 {
		t.Fatalf("coalescing knobs = (%d, %v), want (16, >0)", pol.CoalesceCount, pol.CoalesceWindow)
	}
	bulk := pl.NewTenant()
	ls := pl.NewTenant(offload.WithClass(offload.LatencySensitive))
	if ls.Coalescer() != nil {
		t.Error("latency-sensitive tenant should bypass moderation")
	}
	const ops = 16
	n := int64(16 << 10)
	src, dst := bulk.Alloc(n), bulk.Alloc(n)
	sim.NewRand(31).Bytes(src.Bytes())
	pl.Run(func(p *sim.Proc) {
		futs := make([]*offload.Future, 0, ops)
		for i := 0; i < ops; i++ {
			f, err := bulk.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			if _, err := f.Wait(p, pol.Wait); err != nil {
				t.Error(err)
			}
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("coalesced copies incomplete")
	}
	k := bulk.Coalescer()
	if k == nil {
		t.Fatal("bulk tenant has no coalescer under SPRCoalesce")
	}
	if k.Deliveries() >= ops {
		t.Errorf("Deliveries = %d for %d completions — nothing coalesced", k.Deliveries(), ops)
	}
	if k.Deliveries()+k.CoalescedRecords() != ops {
		t.Errorf("deliveries %d + coalesced %d != %d completions", k.Deliveries(), k.CoalescedRecords(), ops)
	}
}
