package fleet

import (
	"fmt"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// fleetSystem is the two-socket SPR memory system the scenarios run on
// (Table 2 DRAM latencies/bandwidths; no CXL tier — the fleet scenarios
// exercise socket placement, not memory tiering).
func fleetSystem(e *sim.Engine) *mem.System {
	return mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
}

// fleetRig builds the scenario platform: one DSA per socket with two
// engines and an express/bulk shared-WQ pair (the adaptive experiment's
// QoS layout, downsized to two engines so the overload phases actually
// exceed capacity within a tractable event budget), behind the
// placement-qos scheduler. Returns the engine and service.
func fleetRig() (*sim.Engine, *offload.Service, []*dsa.Device) {
	e := sim.New()
	sys := fleetSystem(e)
	var wqs []*dsa.WQ
	var devs []*dsa.Device
	for socket := 0; socket < 2; socket++ {
		dev := dsa.New(e, sys, dsa.DefaultConfig(fmt.Sprintf("dsa%d", socket), socket))
		if _, err := dev.AddGroup(dsa.GroupConfig{
			Engines:     2,
			ExpressBufs: 24,
			WQs: []dsa.WQConfig{
				{Mode: dsa.Shared, Size: 8, Priority: 15},
				{Mode: dsa.Shared, Size: 24, Priority: 5},
			},
		}); err != nil {
			panic(err)
		}
		if err := dev.Enable(); err != nil {
			panic(err)
		}
		wqs = append(wqs, dev.WQs()...)
		devs = append(devs, dev)
	}
	svc, err := offload.NewService(e, sys, wqs,
		offload.WithScheduler(offload.NewPlacementQoS()))
	if err != nil {
		panic(err)
	}
	return e, svc, devs
}

// frontPolicy is the background data plane's policy: telemetry-driven
// load-aware placement, coalesced interrupt completions with adaptive
// window sizing, and shedding admission control at the scenario's cap —
// the production knobs, not a benchmark special.
func frontPolicy(sc Scenario) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	pol.AdmitRate = sc.AdmitCap
	// Burst deep enough that Poisson clumping never sheds below the cap;
	// only sustained over-rate does.
	pol.AdmitBurst = 16 * sc.Shards
	pol.AdmitWait = false
	pol.MaxRetries = 2
	pol.SLOBudget = sc.BgSLO
	armRecovery(&pol, sc)
	return pol
}

// armRecovery turns on the default fault-recovery knobs when the
// scenario injects faults — unless it is the defused negative control,
// which keeps the fault plan armed but recovery off so the chaos gate
// can prove the recovery machinery is what preserves the SLO floor.
func armRecovery(pol *offload.Policy, sc Scenario) {
	if sc.Faults == nil || sc.DefuseRecovery {
		return
	}
	pol.RetryMax = 2
	pol.FallbackAfter = 3
}

// fgPolicy is a foreground tenant's policy: per-descriptor interrupt
// delivery (the LatencySensitive class bypasses moderation), load-aware
// placement, and the class latency budget for SLO accounting.
func fgPolicy(sc Scenario) offload.Policy {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.SLOBudget = sc.FgSLO
	armRecovery(&pol, sc)
	return pol
}

// fgTenant is one foreground tenant slot: the tenant and its payload
// buffers (replaced wholesale on churn — a new tenant is a new address
// space).
type fgTenant struct {
	tn       *offload.Tenant
	src, dst *mem.Buffer
}

// newFgTenant binds one foreground tenant on the given socket.
func newFgTenant(svc *offload.Service, sc Scenario, socket int) *fgTenant {
	tn, err := svc.NewTenant(offload.OnSocket(socket),
		offload.WithClass(offload.LatencySensitive), offload.TenantPolicy(fgPolicy(sc)))
	if err != nil {
		panic(err)
	}
	return &fgTenant{tn: tn, src: tn.Alloc(sc.FgSize), dst: tn.Alloc(sc.FgSize)}
}
