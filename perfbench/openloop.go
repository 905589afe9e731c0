package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/fleet"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// The switch-plane and broker-pipeline workloads: the benchmark's own
// open-loop load generator at a fleet scenario's operating point. Only
// the operating point comes from the fleet package (rates, sizes,
// budgets, shards, tenants, ramp); the generator holds the service,
// tenants and devices itself so it can time its calls into offload and
// read their counters.

// Classes: the latency-sensitive foreground and the bulk background.
const (
	fgC = iota
	bgC
	nClass
)

// Buffer layout per shard and socket, and the cross-socket share of
// background traffic.
const (
	srcSlots   = 4
	dstSlots   = 16
	crossShare = 0.3
	// sampleEvery: one copy in this many is checked byte for byte.
	sampleEvery = 8
)

// olSpec is one open-loop workload.
type olSpec struct {
	sc     fleet.Scenario
	faultP float64 // injected page faults per 4 KB page (0: none)
}

func switchPlane() *olSpec { return &olSpec{sc: fleet.Packetswitch()} }

func brokerPipeline() *olSpec { return &olSpec{sc: fleet.Msgbroker(), faultP: 0.0004} }

// Run lengths: design load runs designDur of virtual time; a ramp step
// runs rampScale × the scenario's RampDur, for steadier per-step tails.
const (
	designDur = 32 * time.Millisecond
	rampScale = 2
)

func (sp *olSpec) rampDur() sim.Time { return sp.sc.RampDur * rampScale }

// olOp is one attempted operation of an open-loop run.
type olOp struct {
	arr, sub sim.Time
	cls      int
	src, dst *slots
	j, k     int            // source and destination slot
	crc      *offload.Stage // broker: the message's CopyCRC stage
	root     int32          // root span id (traced runs)
}

type reapItem struct {
	fut *offload.Future
	ops []int32
}

type fgTenant struct {
	tn       *offload.Tenant
	src, dst *slots
}

// olRun is one simulation of the service at one load multiplier.
type olRun struct {
	sp   *olSpec
	mult float64
	dur  sim.Time
	seed uint64
	tr   *tracer

	e     *sim.Engine
	sys   *mem.System
	svc   *offload.Service
	devs  []*dsa.Device
	front *offload.Tenant
	plane *offload.Plane
	fg    []fgTenant
	src   [][2]*slots // per shard, per socket
	dst   [][2]*slots

	led    *ledger
	ops    []olOp
	stamps map[sim.Time]int32 // plane ops in flight, by arrival stamp

	reapQ   [][]reapItem
	reapSig []sim.Signal
	subDone []bool
	pend    [][]int32 // broker messages waiting for their burst

	arrivals, shed, failed, good [nClass]int64
	lat, submitLat, resolveLat   [nClass][]int64
	late                         []int64
	bytes, crcBytes              int64
}

// twoSocket is the two-socket Sapphire Rapids memory system the fleet
// scenarios run on: 105 MB LLC with 2 of 15 ways for DDIO, DRAM per socket.
func twoSocket(e *sim.Engine) *mem.System {
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

// policies returns the background and foreground tenant policies of the
// fleet operating point: load-aware placement, interrupt completion
// (coalesced and adaptive for the bulk tenant), shedding admission at
// the scenario's cap, and retry/fallback recovery when faults are armed.
func (sp *olSpec) policies() (front, fg offload.Policy) {
	sc := sp.sc
	front = offload.DefaultPolicy()
	front.LoadAware = true
	front.Wait = offload.Interrupt
	front.CoalesceCount = 16
	front.CoalesceWindow = 8 * time.Microsecond
	front.CoalesceAdaptive = true
	front.AdmitRate = sc.AdmitCap
	front.AdmitBurst = 16 * sc.Shards
	front.AdmitWait = false
	front.MaxRetries = 2
	front.SLOBudget = sc.BgSLO

	fg = offload.DefaultPolicy()
	fg.LoadAware = true
	fg.Wait = offload.Interrupt
	fg.SLOBudget = sc.FgSLO
	if sp.faultP > 0 {
		for _, p := range []*offload.Policy{&front, &fg} {
			p.RetryMax = 4
			p.FallbackAfter = 3
		}
	}
	return front, fg
}

// fillSlots allocates n seeded-random source slots and records each
// slot's CRC with the standard library.
func fillSlots(buf *mem.Buffer, size int64, n int, rng *sim.Rand) *slots {
	s := newSlots(buf, size, n)
	rng.Bytes(buf.Bytes())
	s.crc = make([]uint32, n)
	for k := range s.crc {
		s.crc[k] = crc32.Update(0, crc32.IEEETable, s.bytes(k))
	}
	return s
}

// newOLRun builds the platform: one DSA per socket with two engines and
// an express/bulk shared-WQ pair behind the placement-QoS scheduler, a
// bulk front-end tenant (with a sharded plane for the switch), the
// latency-sensitive foreground tenants, and every payload buffer.
func newOLRun(sp *olSpec, mult float64, dur sim.Time, seed uint64, tr *tracer) (*olRun, error) {
	sc := sp.sc
	// Expected arrivals with headroom: per-op storage is sized up front.
	n := int(sc.BaseRate*mult*dur.Seconds()*1.1) + 1024
	r := &olRun{sp: sp, mult: mult, dur: dur, seed: seed, tr: tr,
		led: newLedger(seed, sampleEvery, n), stamps: map[sim.Time]int32{},
		ops: make([]olOp, 0, n), late: make([]int64, 0, n)}
	for c := 0; c < nClass; c++ {
		r.lat[c] = make([]int64, 0, n)
		r.submitLat[c] = make([]int64, 0, n)
		r.resolveLat[c] = make([]int64, 0, n)
	}
	r.e = sim.New()
	r.sys = twoSocket(r.e)
	var wqs []*dsa.WQ
	for socket := 0; socket < 2; socket++ {
		dev := dsa.New(r.e, r.sys, dsa.DefaultConfig(fmt.Sprintf("dsa%d", socket), socket))
		if _, err := dev.AddGroup(dsa.GroupConfig{
			Engines:     2,
			ExpressBufs: 24,
			WQs: []dsa.WQConfig{
				{Mode: dsa.Shared, Size: 8, Priority: 15},
				{Mode: dsa.Shared, Size: 24, Priority: 5},
			},
		}); err != nil {
			return nil, err
		}
		if err := dev.Enable(); err != nil {
			return nil, err
		}
		if sp.faultP > 0 {
			if _, err := dev.InjectFaults(dsa.FaultConfig{
				Seed:           seed ^ 0xFA017<<uint(socket) ^ uint64(socket+1)*0x9E3779B97F4A7C15,
				PageFaultPer4K: sp.faultP,
			}); err != nil {
				return nil, err
			}
		}
		wqs = append(wqs, dev.WQs()...)
		r.devs = append(r.devs, dev)
	}
	svc, err := offload.NewService(r.e, r.sys, wqs,
		offload.WithScheduler(offload.NewPlacementQoS()), offload.WithCPUModel(cpu.SPRModel()))
	if err != nil {
		return nil, err
	}
	r.svc = svc
	frontPol, fgPol := sp.policies()
	if r.front, err = svc.NewTenant(offload.OnSocket(0),
		offload.WithClass(offload.Bulk), offload.TenantPolicy(frontPol)); err != nil {
		return nil, err
	}
	if !sc.Pipeline {
		if r.plane, err = r.front.NewPlane(sc.Shards); err != nil {
			return nil, err
		}
		r.plane.OnCompletion(r.planeDone)
	}

	rng := sim.NewRand(seed ^ 0xB0FFE75EED)
	r.src = make([][2]*slots, sc.Shards)
	r.dst = make([][2]*slots, sc.Shards)
	for s := range r.src {
		for sock := 0; sock < 2; sock++ {
			r.src[s][sock] = fillSlots(r.front.AllocOn(sock, sc.BgSize*srcSlots), sc.BgSize, srcSlots, rng)
			r.dst[s][sock] = newSlots(r.front.AllocOn(sock, sc.BgSize*dstSlots), sc.BgSize, dstSlots)
		}
	}
	r.fg = make([]fgTenant, sc.Tenants)
	for i := range r.fg {
		tn, err := svc.NewTenant(offload.OnSocket(i%2),
			offload.WithClass(offload.LatencySensitive), offload.TenantPolicy(fgPol))
		if err != nil {
			return nil, err
		}
		r.fg[i] = fgTenant{
			tn:  tn,
			src: fillSlots(tn.Alloc(sc.FgSize*srcSlots), sc.FgSize, srcSlots, rng),
			dst: newSlots(tn.Alloc(sc.FgSize*dstSlots), sc.FgSize, dstSlots),
		}
	}
	r.reapQ = make([][]reapItem, sc.Shards)
	r.reapSig = make([]sim.Signal, sc.Shards)
	r.subDone = make([]bool, sc.Shards)
	r.pend = make([][]int32, sc.Shards)
	return r, nil
}

// run drives every shard's submitter and reaper until the engine drains.
func (r *olRun) run() {
	for s := 0; s < r.sp.sc.Shards; s++ {
		r.e.Go(fmt.Sprintf("sub-%d", s), r.submitter(s))
		r.e.Go(fmt.Sprintf("reap-%d", s), r.reaper(s))
	}
	r.e.Run()
}

func (r *olRun) size(cls int) int64 {
	if cls == fgC {
		return r.sp.sc.FgSize
	}
	return r.sp.sc.BgSize
}

func (r *olRun) budget(cls int) sim.Time {
	if cls == fgC {
		return r.sp.sc.FgSLO
	}
	return r.sp.sc.BgSLO
}

// submitter offers one shard's Poisson arrivals on schedule. SleepUntil
// is a no-op once the shard falls behind, so a stall delays later
// submissions but not their scheduled arrival: latency is timed from the
// schedule, and the lag is recorded as generator lateness.
func (r *olRun) submitter(s int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		sc := r.sp.sc
		rng := sim.NewRand(r.seed ^ 0x9E3779B97F4A7C15*uint64(s+1))
		mean := 1e9 * float64(sc.Shards) / (sc.BaseRate * r.mult)
		next := sim.Time(0)
		for {
			next += max(sim.Time(-mean*math.Log(1-rng.Float64())), 1)
			if next >= r.dur {
				break
			}
			p.SleepUntil(next)
			r.late = append(r.late, int64(p.Now()-next))
			if rng.Float64() < sc.FgShare {
				r.fgOp(p, s, rng, next)
			} else {
				r.bgOp(p, s, rng, next)
			}
		}
		r.flush(p, s)
		r.subDone[s] = true
		r.reapSig[s].Broadcast(r.e)
	}
}

// newOp registers an attempted operation and claims its destination.
func (r *olRun) newOp(cls int, arr sim.Time, src *slots, j int, dst *slots, k int) int32 {
	id := r.led.add()
	r.ops = append(r.ops, olOp{arr: arr, cls: cls, src: src, j: j, dst: dst, k: k})
	r.arrivals[cls]++
	r.led.claim(id, dst, k)
	return id
}

// shedOp ends an operation its submission refused.
func (r *olRun) shedOp(id int32) {
	op := &r.ops[id]
	r.led.release(id, op.dst, op.k)
	r.led.end(id, opShed)
	r.shed[op.cls]++
}

// fgOp submits one foreground request: a 4 KB hardware copy on a
// uniformly chosen latency-sensitive tenant, reaped by the shard's reaper.
func (r *olRun) fgOp(p *sim.Proc, s int, rng *sim.Rand, arr sim.Time) {
	ft := &r.fg[rng.Intn(len(r.fg))]
	j, k := rng.Intn(ft.src.n), ft.dst.rotate()
	id := r.newOp(fgC, arr, ft.src, j, ft.dst, k)
	call := p.Now()
	f, err := ft.tn.Copy(p, ft.dst.addr(k), ft.src.addr(j), r.sp.sc.FgSize, offload.On(offload.Hardware))
	r.submitted(id, "offload.Tenant.Copy", call, p.Now())
	if err != nil {
		r.shedOp(id)
		return
	}
	r.reapQ[s] = append(r.reapQ[s], reapItem{fut: f, ops: []int32{id}})
	r.reapSig[s].Broadcast(r.e)
}

// submitted stamps the submit-call return and records the call's span.
func (r *olRun) submitted(id int32, call string, start, end sim.Time) {
	op := &r.ops[id]
	op.sub = end
	if r.tr != nil {
		op.root = r.tr.span("op", id, 0, op.arr, op.arr)
		sub := r.tr.span("submit", id, op.root, op.arr, end)
		r.tr.span(call, id, sub, start, end)
	}
}

// bgOp routes one background payload: ~30% cross sockets. The switch
// submits it to the shard's plane lane stamped with its arrival; the
// broker queues it for the shard's next burst.
func (r *olRun) bgOp(p *sim.Proc, s int, rng *sim.Rand, arr sim.Time) {
	srcSock := rng.Intn(2)
	dstSock := srcSock
	if rng.Float64() < crossShare {
		dstSock = 1 - srcSock
	}
	src, dst := r.src[s][srcSock], r.dst[s][dstSock]
	j, k := rng.Intn(src.n), dst.rotate()
	if r.sp.sc.Pipeline {
		r.pend[s] = append(r.pend[s], r.newOp(bgC, arr, src, j, dst, k))
		if len(r.pend[s]) >= r.sp.sc.Burst {
			r.flush(p, s)
		}
		return
	}
	// The plane reports a completion by its stamp only, so stamps must be
	// unique: a collision with another shard's arrival moves by 1 ns.
	stamp := arr
	for _, dup := r.stamps[stamp]; dup; _, dup = r.stamps[stamp] {
		stamp++
	}
	id := r.newOp(bgC, stamp, src, j, dst, k)
	r.stamps[stamp] = id
	call := p.Now()
	err := r.plane.Lane(s).SubmitStamped(p, dsa.Descriptor{
		Op: dsa.OpMemmove, Src: src.addr(j), Dst: dst.addr(k), Size: r.sp.sc.BgSize,
	}, stamp)
	r.submitted(id, "offload.Lane.SubmitStamped", call, p.Now())
	if err != nil {
		delete(r.stamps, stamp)
		r.shedOp(id)
	}
}

// flush fuses the shard's pending broker messages into one pipeline DAG
// (per message: CopyCRC into scratch, then a fenced copy to the consumer
// slab) submitted for one admission token.
func (r *olRun) flush(p *sim.Proc, s int) {
	ids := r.pend[s]
	if len(ids) == 0 {
		return
	}
	r.pend[s] = nil
	size := r.sp.sc.BgSize
	pl := r.front.NewPipeline()
	for _, id := range ids {
		op := &r.ops[id]
		staged := pl.Scratch(size)
		op.crc = pl.CopyCRC(staged, offload.At(op.src.addr(op.j)), size, 0)
		pl.Copy(offload.At(op.dst.addr(op.k)), staged, size, offload.After(op.crc))
	}
	call := p.Now()
	fut, err := pl.Submit(p)
	for _, id := range ids {
		r.submitted(id, "offload.Pipeline.Submit", call, p.Now())
		if err != nil {
			r.shedOp(id)
		}
	}
	if err == nil {
		r.reapQ[s] = append(r.reapQ[s], reapItem{fut: fut, ops: ids})
		r.reapSig[s].Broadcast(r.e)
	}
}

// reaper resolves one shard's futures in submission order, scoring each
// carried operation at the instant its wait returns.
func (r *olRun) reaper(s int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		for {
			if len(r.reapQ[s]) == 0 {
				if r.subDone[s] {
					return
				}
				p.Wait(&r.reapSig[s])
				continue
			}
			it := r.reapQ[s][0]
			r.reapQ[s] = r.reapQ[s][1:]
			_, err := it.fut.Wait(p, offload.Interrupt)
			for _, id := range it.ops {
				r.resolve(id, err == nil, p.Now())
			}
		}
	}
}

// planeDone is the plane's completion observer: the stamp (now − lat)
// identifies the operation.
func (r *olRun) planeDone(lat sim.Time, ok bool) {
	now := r.e.Now()
	id, found := r.stamps[now-lat]
	if !found {
		r.led.violate("plane completion with unknown stamp %v", now-lat)
		return
	}
	delete(r.stamps, now-lat)
	r.resolve(id, ok, now)
}

// resolve scores one operation's outcome at instant now and checks its
// output: the broker's CRC always, the copied bytes when sampled.
func (r *olRun) resolve(id int32, ok bool, now sim.Time) {
	op := &r.ops[id]
	cls := op.cls
	lat := now - op.arr
	r.lat[cls] = append(r.lat[cls], int64(lat))
	r.submitLat[cls] = append(r.submitLat[cls], int64(op.sub-op.arr))
	r.resolveLat[cls] = append(r.resolveLat[cls], int64(now-op.sub))
	if r.tr != nil {
		r.tr.span("resolve", id, op.root, op.sub, now)
		if op.root > 0 {
			r.tr.spans[op.root-1].end = now
		}
	}
	if !ok {
		r.led.release(id, op.dst, op.k)
		r.led.end(id, opFailed)
		r.failed[cls]++
		return
	}
	if op.crc != nil {
		r.crcBytes += r.size(cls)
		if got, want := uint32(op.crc.Result()), op.src.crc[op.j]; got != want {
			r.led.mismatches++
			if r.led.firstErr == nil {
				r.led.firstErr = fmt.Errorf("op %d: pipeline CRC %08x, hash/crc32 says %08x", id, got, want)
			}
		}
	}
	r.led.landed(id, op.dst, op.k, op.src, op.j)
	r.led.end(id, opOK)
	r.bytes += r.size(cls)
	if lat <= r.budget(cls) {
		r.good[cls]++
	}
}

// tallies returns each class's outcome for ramp scoring.
func (r *olRun) tallies() []classTally {
	out := make([]classTally, nClass)
	for c := range out {
		v, _ := quantile(sortedCopy(r.lat[c]), 0.99)
		out[c] = classTally{arrivals: r.arrivals[c], shed: r.shed[c], failed: r.failed[c], p99: time.Duration(v)}
	}
	return out
}

// counters adds the run's layer counters into m.
func (r *olRun) counters(m map[string]float64) {
	tenants := []*offload.Tenant{r.front}
	for _, ft := range r.fg {
		tenants = append(tenants, ft.tn)
	}
	for _, tn := range tenants {
		st := tn.Stats()
		m["offload.shed"] += float64(st.Shed)
		m["offload.delayed"] += float64(st.Delayed)
		m["offload.faults"] += float64(st.Faults)
		m["offload.retries"] += float64(st.Retries)
		m["offload.fallbacks"] += float64(st.Fallbacks)
		m["offload.pipelines"] += float64(st.Pipelines)
		m["offload.sw_ops"] += float64(st.SWOps)
		m["offload.hw_ops"] += float64(st.HWOps)
		m["offload.slo_ok"] += float64(st.SLOOk)
		m["offload.slo_miss"] += float64(st.SLOMiss)
	}
	m["telemetry.drifts"] += float64(r.svc.Drifts())
	m["isal.crc_bytes"] += float64(r.crcBytes)
	deviceCounters(m, r.devs)
	memCounters(m, r.sys)
}

// deviceCounters adds the devices' hardware counters into m.
func deviceCounters(m map[string]float64, devs []*dsa.Device) {
	for _, d := range devs {
		st := d.Stats()
		m["dsa.enqcmd_retries"] += float64(st.Retries)
		m["dsa.completed"] += float64(st.Completed)
		m["dsa.batches_fetched"] += float64(st.BatchesFetched)
		m["dsa.atc_hits"] += float64(st.ATCHits)
		m["dsa.atc_misses"] += float64(st.ATCMisses)
		m["dsa.page_faults"] += float64(st.PageFaults)
		m["mem.ddio_leaked_bytes"] += float64(st.DDIOLeaked)
	}
}

// memCounters adds DRAM traffic and LLC evictions into m.
func memCounters(m map[string]float64, sys *mem.System) {
	for _, n := range sys.Nodes {
		m["mem.dram_read_bytes"] += float64(n.ReadBytes())
		m["mem.dram_write_bytes"] += float64(n.WriteBytes())
	}
	for _, sock := range sys.Sockets {
		for _, owner := range sock.LLC.Owners() {
			m["mem.llc_evicted_bytes"] += float64(sock.LLC.Evicted(owner))
		}
	}
}

// runOpenLoop is one repetition: the design-load run, then every ramp
// step. Scoring stops at the first failing step; the steps past it still
// run, so a repetition's host work is the same whichever step a seed
// fails at.
func runOpenLoop(sp *olSpec, seed uint64, tr *tracer) (*repOut, error) {
	sc := sp.sc
	out := newRepOut()
	design, err := out.step(sp, 1.0, designDur, seed, tr)
	if err != nil {
		return nil, err
	}
	durS := designDur.Seconds()
	var good int64
	for c := 0; c < nClass; c++ {
		good += design.good[c]
	}
	out.sim["goodput_kops"] = float64(good) / durS / 1e3
	out.sim["copy_gbps"] = float64(design.bytes) / durS / 1e9
	for c, pre := range []string{"fg", "bg"} {
		lat := sortedCopy(design.lat[c])
		for _, q := range []struct {
			name string
			q    float64
		}{{"_p50_us", 0.5}, {"_p99_us", 0.99}} {
			v, err := percentile(lat, q.q, pre+" latency")
			if err != nil {
				return nil, err
			}
			out.sim[pre+q.name] = float64(v) / 1e3
		}
		sub, err := percentile(sortedCopy(design.submitLat[c]), 0.99, pre+" submit")
		if err != nil {
			return nil, err
		}
		res, err := percentile(sortedCopy(design.resolveLat[c]), 0.99, pre+" resolve")
		if err != nil {
			return nil, err
		}
		out.layer["offload."+pre+"_submit_us_p99"] = float64(sub) / 1e3
		out.layer["offload."+pre+"_resolve_us_p99"] = float64(res) / 1e3
	}
	late, err := percentile(sortedCopy(design.late), 0.99, "generator lateness")
	if err != nil {
		return nil, err
	}
	out.layer["bench.gen_late_us_p99"] = float64(late) / 1e3

	budgets := []time.Duration{sc.FgSLO, sc.BgSLO}
	var mults, margins []float64
	for i, m := range sc.Ramp {
		st, err := out.step(sp, m, sp.rampDur(), seed+uint64(i)*0x9E3779B9+1, nil)
		if err != nil {
			return nil, err
		}
		ts := st.tallies()
		mults = append(mults, m)
		margins = append(margins, stepMargin(ts, budgets))
		out.layer[fmt.Sprintf("ramp.step%d_margin", i)] = margins[i]
		out.notes = append(out.notes, fmt.Sprintf("ramp x%.2f: fg p99 %v shed %d/%d, bg p99 %v shed %d failed %d/%d, margin %.3f",
			m, ts[fgC].p99, ts[fgC].shed, ts[fgC].arrivals, ts[bgC].p99, ts[bgC].shed, ts[bgC].failed, ts[bgC].arrivals, margins[i]))
	}
	out.sim["slo_attained_kops"] = attainedMult(mults, margins) * sc.BaseRate / 1e3
	return out, nil
}

// step builds and runs one load step, folding its outcome into the
// repetition: timing, ledger, and layer counters.
func (out *repOut) step(sp *olSpec, mult float64, dur sim.Time, seed uint64, tr *tracer) (*olRun, error) {
	t0 := time.Now()
	r, err := newOLRun(sp, mult, dur, seed, tr)
	if err != nil {
		return nil, err
	}
	out.setup += time.Since(t0)
	out.timed(r.run)
	ok, shed, failed := r.led.tally()
	out.ops += ok
	out.addLedger(r.led, shed, failed)
	r.counters(out.layer)
	return r, nil
}
