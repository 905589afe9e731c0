// Package dsasim is a simulation-based reproduction of "A Quantitative
// Analysis and Guidelines of Data Streaming Accelerator in Modern Intel Xeon
// Scalable Processors" (ASPLOS 2024).
//
// The package bundles the building blocks under internal/ into platforms
// matching the paper's evaluated systems (Table 2): a virtual-time engine,
// a memory system (NUMA DRAM, CXL, LLC with DDIO), CPU cores running
// software baselines, and one or more DSA (or CBDMA) device instances.
// NewPlatform is the one bring-up path: every experiment rig in
// internal/exp and internal/fleet, the commands and the examples describe
// their machine as a Profile and build it here. The experiment harness
// regenerates every figure and table of the paper's evaluation on top of
// these platforms; cmd/dsa-bench renders them.
//
// Work is submitted through the unified offload API (internal/offload): the
// platform owns an offload.Service whose pluggable Scheduler places each
// descriptor on a work queue (round-robin, NUMA-local, least-loaded, the
// QoS-aware priority scheduler of the SPRQoS profile, or the data-home
// Placement scheduler of the SPRPlacement profile, which routes on where
// the data lives and splits mixed-home batches across sockets — G4), and
// each client of the service is an offload.Tenant — a PASID-bound address
// space plus a submitting core, carrying a QoS class and an
// admission-control budget.
// Every operation returns a Future; Wait(p, mode) covers the polled,
// UMWAIT, and interrupt completion paths, and the paper's guidelines are
// policy: G2's offload threshold (static or pressure-adaptive) and G1's
// small-transfer coalescing (AutoBatcher) live in offload.Policy.
//
// Quick start:
//
//	pl, err := dsasim.NewPlatform(dsasim.SPR())
//	if err != nil {
//	    log.Fatal(err)
//	}
//	tn := pl.NewTenant()
//	pl.Run(func(p *sim.Proc) {
//	    src := tn.Alloc(1 << 20)
//	    dst := tn.Alloc(1 << 20)
//	    fut, _ := tn.Copy(p, dst.Addr(0), src.Addr(0), 1<<20)
//	    res, _ := fut.Wait(p, offload.Poll)
//	    fmt.Println("copied in", res.Duration)
//	})
package dsasim

import (
	"fmt"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// Profile describes a platform generation (Table 2) and the device layout
// the idxd stack configures on it (§3.3, §4.1).
type Profile struct {
	Name    string
	LLC     mem.LLCConfig
	UPILat  time.Duration
	UPIGBps float64
	Nodes   []mem.NodeConfig
	CPU     cpu.Model
	// DeviceSockets creates one device per entry, on that socket, named
	// DeviceConfig.Name followed by its index. Placement-aware profiles
	// list one DSA per socket; nil builds a CPU-only platform.
	DeviceSockets []int
	// DeviceConfig templates each device (socket/name are overridden).
	DeviceConfig dsa.Config
	// Groups is every device's group/WQ layout. Nil means the paper's
	// default (§4.1): one group holding all DeviceConfig.Engines engines
	// and one 32-entry dedicated WQ. QoS profiles use it to expose a
	// reserved high-priority WQ next to a bulk one, and to reserve part
	// of the group's read buffers for it (GroupConfig.ExpressBufs, §3.4
	// F3).
	Groups []dsa.GroupConfig
	// Scheduler builds the offload service's WQ-selection policy
	// (default: offload.NewRoundRobin).
	Scheduler func() offload.Scheduler
	// Policy is the offload service's default tenant policy (zero value:
	// offload.DefaultPolicy).
	Policy *offload.Policy
}

// SPR returns the Sapphire Rapids profile: 56 cores, 105 MB LLC, eight DDR5
// channels, CXL 1.1 support (modelled as a CPU-less NUMA node), and up to
// four DSA instances (Table 2, Fig 10), of which it enables one.
func SPR() Profile {
	return Profile{
		Name:    "SPR",
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		Nodes: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
		CPU:           cpu.SPRModel(),
		DeviceSockets: []int{0},
		DeviceConfig:  dsa.DefaultConfig("dsa", 0),
	}
}

// qosGroups is the QoS profiles' device layout: one four-engine group
// with a small high-priority shared WQ (the express lane) next to a
// larger bulk shared WQ, reserving expressBufs of the group's read
// buffers for the express lane.
func qosGroups(expressBufs int) []dsa.GroupConfig {
	return []dsa.GroupConfig{{
		Engines:     4,
		ExpressBufs: expressBufs,
		WQs: []dsa.WQConfig{
			{Mode: dsa.Shared, Size: 8, Priority: 15},
			{Mode: dsa.Shared, Size: 24, Priority: 5},
		},
	}}
}

// SPRQoS returns the SPR profile configured for QoS-aware offload: each
// device exposes a small high-priority shared WQ (the express lane the
// PriorityAware scheduler reserves for latency-sensitive tenants) next to
// a larger bulk shared WQ, and the default policy adapts the offload
// threshold to device pressure. Tenants default to the Bulk class; mark
// foreground tenants with offload.WithClass(offload.LatencySensitive).
func SPRQoS() Profile {
	pr := SPR()
	pr.Name = "SPR-QoS"
	pr.Groups = qosGroups(0)
	pr.Scheduler = func() offload.Scheduler { return offload.NewPriorityAware() }
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pr.Policy = &pol
	return pr
}

// SPRPlacement returns the SPR profile configured for data-home placement
// (G4): one DSA instance per socket and the Placement scheduler, which
// routes each descriptor to the device local to its source/destination
// data (falling back to the tenant's socket) and lets the batch paths
// split mixed-home flushes into per-socket sub-batches
// (offload.Policy.SplitBatches, on by default). Use it when workloads
// touch memory the submitting core is not adjacent to: tiered-memory
// migration, cross-socket shuffles, CXL traffic.
func SPRPlacement() Profile {
	pr := SPR()
	pr.Name = "SPR-Placement"
	pr.DeviceSockets = []int{0, 1}
	pr.Scheduler = func() offload.Scheduler { return offload.NewPlacement() }
	return pr
}

// SPRSkew returns the placement profile hardened for skewed load: on top
// of SPRPlacement's one-DSA-per-socket layout, the default policy turns
// on load-aware placement (offload.Policy.LoadAware), so a tenant whose
// data all lives next to a backlogged device detours across UPI to the
// idle socket's DSA exactly when the modelled queueing delay (WQ latency
// EWMA × occupancy, Service.SocketPressure's signals) exceeds the
// transfer penalty. Use it when tenants' data placement is lopsided —
// one hot socket, one cold — and raw service throughput matters more
// than strict data locality.
func SPRSkew() Profile {
	pr := SPRPlacement()
	pr.Name = "SPR-Skew"
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	pr.Policy = &pol
	return pr
}

// SPRCoalesce returns the QoS profile hardened for the completion path
// (§4.4): on top of SPRQoS's express/bulk WQ split and PriorityAware
// scheduler, the default policy waits in Interrupt mode with completion
// coalescing on — up to 16 finished records per tenant are announced by
// one interrupt, bounded by an 8µs moderation window — so bulk tenants
// pay one delivery latency per window instead of one per descriptor,
// while latency-sensitive tenants bypass moderation entirely (the QoS
// class resolution in offload.Policy) and keep their per-descriptor
// interrupts on the express lane. Use it when completions are drained by
// interrupt (cores shared with other work) and small-op throughput
// matters.
func SPRCoalesce() Profile {
	pr := SPRQoS()
	pr.Name = "SPR-Coalesce"
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pr.Policy = &pol
	return pr
}

// SPRAdaptive returns the profile whose every knob closes the loop on the
// telemetry plane instead of a hand-picked constant: one DSA per socket,
// each exposing an express/bulk WQ pair with part of the group's read
// buffers reserved for the express lane; the QoS-aware placement
// scheduler; and a policy that adapts the offload threshold to device
// pressure, detours around backlogged sockets, and sizes interrupt
// coalescing windows from each tenant's measured completion rate
// (Policy.CoalesceAdaptive). Use it when the workload mix shifts at
// runtime — the control loop retunes where a static profile would need
// re-profiling.
func SPRAdaptive() Profile {
	pr := SPR()
	pr.Name = "SPR-Adaptive"
	pr.DeviceSockets = []int{0, 1}
	pr.Groups = qosGroups(24)
	pr.Scheduler = func() offload.Scheduler { return offload.NewPlacementQoS() }
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	pol.LoadAware = true
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 16
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.CoalesceAdaptive = true
	pr.Policy = &pol
	return pr
}

// ICX returns the Ice Lake predecessor profile: 40 cores, 57 MB LLC, six
// DDR4 channels, and a CBDMA engine instead of DSA (Table 2).
func ICX() Profile {
	cfg := dsa.DefaultConfig("cbdma", 0)
	cfg.Timing = dsa.CBDMATiming()
	cfg.Engines = 1 // one logical channel used per the paper's methodology
	return Profile{
		Name:    "ICX",
		LLC:     mem.LLCConfig{Capacity: 57 << 20, Ways: 12, DDIOWays: 2},
		UPILat:  75 * time.Nanosecond,
		UPIGBps: 50,
		Nodes: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 120 * time.Nanosecond, WriteLat: 120 * time.Nanosecond, ReadGBps: 100, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 120 * time.Nanosecond, WriteLat: 120 * time.Nanosecond, ReadGBps: 100, WriteGBps: 75},
		},
		CPU:           cpu.ICXModel(),
		DeviceSockets: []int{0},
		DeviceConfig:  cfg,
	}
}

// Platform is a constructed system ready to run workloads.
type Platform struct {
	Profile Profile
	E       *sim.Engine
	Sys     *mem.System
	Devices []*dsa.Device

	// Offload is the platform's submission service: every tenant submits
	// through it, and its Scheduler owns device/WQ placement.
	Offload *offload.Service
}

// NewPlatform builds a platform from profile: the engine, the memory
// system, then every device of Profile.DeviceSockets configured with
// Profile.Groups, enabled, and registered with the offload service. A
// device layout the idxd driver would reject (engine or WQ overcommit, an
// empty group, a zero-size WQ, an express share leaving no bulk read
// buffers) is returned as an error.
func NewPlatform(pr Profile) (*Platform, error) {
	e := sim.New()
	pl := &Platform{
		Profile: pr,
		E:       e,
		Sys: mem.NewSystem(e, mem.SystemConfig{
			Sockets:  2,
			LLC:      pr.LLC,
			UPILat:   pr.UPILat,
			UPIGBps:  pr.UPIGBps,
			NodeDefs: pr.Nodes,
		}),
	}
	groups := pr.Groups
	if groups == nil {
		groups = []dsa.GroupConfig{{
			Engines: pr.DeviceConfig.Engines,
			WQs:     []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}},
		}}
	}
	for i, socket := range pr.DeviceSockets {
		if _, err := pl.AddDevice(fmt.Sprintf("%s%d", pr.DeviceConfig.Name, i), socket, groups...); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// AddDevice creates a uniquely named device from the profile's template,
// configures the given groups, enables it, registers its WQs with the
// offload service (bringing the service up with the platform's first
// device), and returns it.
func (pl *Platform) AddDevice(name string, socket int, groups ...dsa.GroupConfig) (*dsa.Device, error) {
	for _, d := range pl.Devices {
		if d.Cfg.Name == name {
			return nil, fmt.Errorf("dsasim: device %q already exists", name)
		}
	}
	cfg := pl.Profile.DeviceConfig
	cfg.Name = name
	cfg.Socket = socket
	dev := dsa.New(pl.E, pl.Sys, cfg)
	for _, g := range groups {
		if _, err := dev.AddGroup(g); err != nil {
			return nil, fmt.Errorf("dsasim: %s: %w", name, err)
		}
	}
	if err := dev.Enable(); err != nil {
		return nil, fmt.Errorf("dsasim: %s: %w", name, err)
	}
	pl.Devices = append(pl.Devices, dev)
	if pl.Offload != nil {
		pl.Offload.AddWQs(dev.WQs()...)
		return dev, nil
	}
	opts := []offload.ServiceOption{offload.WithCPUModel(pl.Profile.CPU)}
	if pl.Profile.Scheduler != nil {
		opts = append(opts, offload.WithScheduler(pl.Profile.Scheduler()))
	}
	if pl.Profile.Policy != nil {
		opts = append(opts, offload.WithPolicy(*pl.Profile.Policy))
	}
	svc, err := offload.NewService(pl.E, pl.Sys, dev.WQs(), opts...)
	if err != nil {
		return nil, err
	}
	pl.Offload = svc
	return dev, nil
}

// Node returns platform memory node id (0 = socket-0 DRAM, 1 = socket-1
// DRAM, 2 = CXL on SPR).
func (pl *Platform) Node(id int) *mem.Node { return pl.Sys.Node(id) }

// NewTenant creates an offload tenant on socket 0: a fresh PASID-bound
// address space and core, submitting through the platform scheduler.
func (pl *Platform) NewTenant(opts ...offload.TenantOption) *offload.Tenant {
	if pl.Offload == nil {
		panic("dsasim: platform has no devices (no work queues to submit to)")
	}
	tn, err := pl.Offload.NewTenant(opts...)
	if err != nil {
		panic(err)
	}
	return tn
}

// NewTenantOn creates a tenant on the given socket.
func (pl *Platform) NewTenantOn(socket int, opts ...offload.TenantOption) *offload.Tenant {
	opts = append([]offload.TenantOption{offload.OnSocket(socket)}, opts...)
	return pl.NewTenant(opts...)
}

// Run starts fn as a simulated process and runs the engine to completion.
func (pl *Platform) Run(fn func(p *sim.Proc)) {
	pl.E.Go("main", fn)
	pl.E.Run()
}
