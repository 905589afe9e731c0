// Package exp regenerates every table and figure of the paper's evaluation
// (§4, §6, appendices) on the simulated platform. Each experiment is a
// self-contained function returning report tables with the same axes and
// series as the paper's artifact, on a platform built by dsasim.NewPlatform;
// cmd/dsa-bench renders them. Paper-vs-measured shapes are asserted by the
// G1–G6 guideline tests (guidelines_test.go) and the CI perf gates
// (bench/baseline/gates.json).
package exp

import (
	"fmt"
	"time"

	"dsasim"
	"dsasim/internal/cpu"
	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/report"
	"dsasim/internal/sim"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func() []*report.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: supported operations (functional verification)", Table1},
		{"cbdma", "§4.2: DSA vs CBDMA copy throughput", CBDMAComparison},
		{"fig2a", "Fig 2a: sync speedup over software vs transfer size", Fig2a},
		{"fig2b", "Fig 2b: async speedup over software vs transfer size", Fig2b},
		{"fig3", "Fig 3: copy throughput vs transfer size and batch size", Fig3},
		{"fig4", "Fig 4: async copy throughput vs WQ size", Fig4},
		{"fig5", "Fig 5: 4KB offload latency breakdown vs batch size", Fig5},
		{"fig6a", "Fig 6a: local/remote socket placement", Fig6a},
		{"fig6b", "Fig 6b: DRAM/CXL placement", Fig6b},
		{"fig7", "Fig 7: throughput vs engines per group", Fig7},
		{"fig8", "Fig 8: huge pages", Fig8},
		{"fig9", "Fig 9: WQ configuration (batch vs DWQs vs SWQ)", Fig9},
		{"fig10", "Fig 10: multiple DSA instances", Fig10},
		{"fig11", "Fig 11: cycles spent in UMWAIT", Fig11},
		{"fig12", "Fig 12: LLC occupancy over time", Fig12},
		{"fig13", "Fig 13: X-Mem latency under co-running copies", Fig13},
		{"fig14", "Fig 14: balancing transfer size and batch size", Fig14},
		{"fig15", "Fig 15: LLC vs DRAM source/destination", Fig15},
		{"fig16", "Fig 16b: DPDK Vhost packet forwarding", Fig16},
		{"fig17a", "Fig 17a: libfabric pingpong / RMA", Fig17a},
		{"fig17b", "Fig 17b: OSU bandwidth / AllReduce", Fig17b},
		{"fig18", "Fig 18: BERT phase timings", Fig18},
		{"fig19", "Fig 19: CacheLib rates and tail latency", Fig19},
		{"fig21", "Fig 21: SPDK NVMe/TCP target IOPS", Fig21},
		{"sched", "Offload scheduler comparison (round-robin vs NUMA-local vs least-loaded vs placement)", Sched},
		{"qos", "QoS scheduling: latency-sensitive p99 under bulk interference (§3.4 F3)", QoS},
		{"placement", "Data-home placement: CXL/NUMA-aware routing and batch splitting (G4)", Placement},
		{"skew", "Skewed load: data-only vs load-aware placement vs in-flight window", Skew},
		{"coalesce", "Completion path: QoS-aware interrupt coalescing (§4.4)", Coalesce},
		{"adaptive", "Streaming telemetry: one closed-loop policy vs per-regime hand tuning", Adaptive},
		{"contention", "Sharded submission plane: Submit/Wait scaling vs submitters", Contention},
		{"pipeline", "Operation pipelines: fused multi-op DAGs vs per-stage submission (§4/§6)", Pipeline},
		{"fleet", "Fleet-scale service scenarios: SLO-attained throughput under phased open-loop load", Fleet},
		{"chaos", "Chaos: SLO-attained throughput and recovery time under injected faults", Chaos},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// env is a fresh SPR platform for one measurement point, driven through a
// raw device client: its own address space and core, bound to every
// device (the platform's offload service stays idle).
type env struct {
	e    *sim.Engine
	sys  *mem.System
	as   *mem.AddressSpace
	core *cpu.Core
	devs []*dsa.Device
}

// platform brings up pr. Experiment rigs are fixed layouts, so a layout
// error is a programming error.
func platform(pr dsasim.Profile) *dsasim.Platform {
	pl, err := dsasim.NewPlatform(pr)
	if err != nil {
		panic(err)
	}
	return pl
}

// newEnv builds a fresh environment with ndev socket-0 devices, each
// configured with the given groups (default: the profile's one group of 4
// engines and one 32-entry DWQ).
func newEnv(ndev int, groups ...dsa.GroupConfig) *env {
	pr := dsasim.SPR()
	pr.DeviceSockets = make([]int, ndev)
	pr.Groups = groups
	return envOn(pr)
}

// envOn builds a fresh environment on profile pr.
func envOn(pr dsasim.Profile) *env {
	pl := platform(pr)
	as := mem.NewAddressSpace(1)
	for _, dev := range pl.Devices {
		dev.BindPASID(as)
	}
	return &env{e: pl.E, sys: pl.Sys, as: as, core: cpu.NewCore(0, 0, pl.Sys, as, cpu.SPRModel()), devs: pl.Devices}
}

// node returns platform node i (0 local DRAM, 1 remote DRAM, 2 CXL).
func (v *env) node(i int) *mem.Node { return v.sys.Node(i) }

// buf allocates a buffer with placement options.
func (v *env) buf(size int64, node *mem.Node, llc bool, pageSize int64) *mem.Buffer {
	opts := []mem.AllocOption{mem.OnNode(node)}
	if pageSize != 0 {
		opts = append(opts, mem.WithPageSize(pageSize))
	}
	b := v.as.Alloc(size, opts...)
	b.CacheResident = llc
	return b
}

// copyCfg parameterizes the generic copy-throughput runner used by most
// microbenchmark figures.
type copyCfg struct {
	op    dsa.OpType
	size  int64 // transfer size per work descriptor
	batch int   // work descriptors per batch descriptor (1 = no batching)
	count int   // number of submissions (each carries batch descriptors)
	qd    int   // client-side submissions in flight (1 = synchronous)
	flags dsa.Flags

	srcNode, dstNode *mem.Node
	srcLLC, dstLLC   bool
	pageSize         int64

	// span overrides the working-buffer size (default size×batch);
	// submissions rotate through it, growing the write footprint for the
	// leaky-DMA experiment (Fig 10).
	span int64

	wqs     []*dsa.WQ // submission targets (round-robin per thread)
	threads int       // concurrent submitting threads (default 1)
}

// descFor builds one work descriptor of cfg.op over the given offsets.
func descFor(cfg copyCfg, src, src2, dst, dst2 *mem.Buffer, off int64) dsa.Descriptor {
	d := dsa.Descriptor{Op: cfg.op, Flags: cfg.flags, Size: cfg.size}
	switch cfg.op {
	case dsa.OpFill:
		d.Dst = dst.Addr(off)
		d.Pattern = 0xA5A5A5A5A5A5A5A5
	case dsa.OpCompare:
		d.Src = src.Addr(off)
		d.Src2 = src2.Addr(off)
	case dsa.OpComparePattern:
		d.Src = src.Addr(off)
	case dsa.OpCRCGen:
		d.Src = src.Addr(off)
	case dsa.OpDualcast:
		d.Src = src.Addr(off)
		d.Dst = dst.Addr(off)
		d.Dst2 = dst2.Addr(off)
	case dsa.OpDIFInsert:
		d.Src = src.Addr(off)
		d.Dst = dst.Addr(off / 512 * 520)
		d.DIFBlock = dif.Block512
	default: // Memmove, CopyCRC
		d.Src = src.Addr(off)
		d.Dst = dst.Addr(off)
	}
	return d
}

// copyResult is the runner's measurement.
type copyResult struct {
	gbps   float64
	avgLat time.Duration // per-submission completion latency
}

// runCopy drives the configured workload to completion and measures it.
func (v *env) runCopy(cfg copyCfg) copyResult {
	if cfg.op == 0 {
		cfg.op = dsa.OpMemmove
	}
	if cfg.threads == 0 {
		cfg.threads = 1
	}
	if cfg.qd == 0 {
		cfg.qd = 1
	}
	if cfg.batch == 0 {
		cfg.batch = 1
	}
	if cfg.srcNode == nil {
		cfg.srcNode = v.node(0)
	}
	if cfg.dstNode == nil {
		cfg.dstNode = v.node(0)
	}
	if len(cfg.wqs) == 0 {
		cfg.wqs = v.devs[0].WQs()
	}

	perThread := cfg.count / cfg.threads
	if perThread == 0 {
		perThread = 1
	}
	var start, end sim.Time
	var totalLat sim.Time
	var completions int64
	started := false

	for th := 0; th < cfg.threads; th++ {
		wq := cfg.wqs[th%len(cfg.wqs)]
		cl := dsa.NewClient(wq, nil)
		unit := cfg.size * int64(cfg.batch)
		span := unit
		if cfg.span > span {
			span = cfg.span / unit * unit
		}
		rot := span / unit
		// DIF expansion factor covers the largest destination an op needs.
		src := v.buf(span, cfg.srcNode, cfg.srcLLC, cfg.pageSize)
		src2 := v.buf(span, cfg.srcNode, cfg.srcLLC, cfg.pageSize)
		dst := v.buf(span/512*520+520, cfg.dstNode, cfg.dstLLC, cfg.pageSize)
		dst2 := v.buf(span, cfg.dstNode, cfg.dstLLC, cfg.pageSize)
		v.e.Go(fmt.Sprintf("load%d", th), func(p *sim.Proc) {
			if !started {
				start = p.Now()
				started = true
			}
			mk := func(iter int) dsa.Descriptor {
				base := (int64(iter) % rot) * unit
				if cfg.batch == 1 {
					d := descFor(cfg, src, src2, dst, dst2, base)
					d.PASID = v.as.PASID
					return d
				}
				subs := make([]dsa.Descriptor, cfg.batch)
				for i := range subs {
					subs[i] = descFor(cfg, src, src2, dst, dst2, base+int64(i)*cfg.size)
				}
				return dsa.Descriptor{Op: dsa.OpBatch, PASID: v.as.PASID, Descs: subs}
			}
			var window []*dsa.Completion
			for i := 0; i < perThread; i++ {
				cl.Prepare(p)
				comp, err := cl.Submit(p, mk(i))
				if err != nil {
					panic(err)
				}
				window = append(window, comp)
				if len(window) >= cfg.qd {
					w := window[0]
					window = window[1:]
					w.Wait(p)
					totalLat += w.Latency()
					completions++
				}
			}
			for _, w := range window {
				w.Wait(p)
				totalLat += w.Latency()
				completions++
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	v.e.Run()
	bytes := cfg.size * int64(cfg.batch) * int64(perThread) * int64(cfg.threads)
	res := copyResult{gbps: sim.Rate(bytes, end-start)}
	if completions > 0 {
		res.avgLat = time.Duration(int64(totalLat) / completions)
	}
	return res
}

// swTime measures the software counterpart of a DSA op at the given size on
// this environment's core: the op's descriptor, as the device runs it,
// runs on the core through dsa.RunOnCore. Buffers are placed on
// srcNode/dstNode with the given LLC residency; a Dualcast's second
// destination is the second source buffer.
func (v *env) swTime(op dsa.OpType, size int64, srcNode, dstNode *mem.Node, srcLLC, dstLLC bool) time.Duration {
	if srcNode == nil {
		srcNode = v.node(0)
	}
	if dstNode == nil {
		dstNode = v.node(0)
	}
	// Generous sizing covers DIF expansion.
	src := v.buf(size*2+64, srcNode, srcLLC, 0)
	dst := v.buf(size*2+64, dstNode, dstLLC, 0)
	src2 := v.buf(size*2+64, srcNode, srcLLC, 0)
	if op == dsa.OpDIFInsert {
		size = max(size/512, 1) * 512 // whole protection blocks
	}
	d := descFor(copyCfg{op: op, size: size}, src, src2, dst, src2, 0)
	rec, dur := dsa.RunOnCore(v.core, &d)
	if rec.Status != dsa.StatusSuccess {
		panic(rec.Err)
	}
	return dur
}
