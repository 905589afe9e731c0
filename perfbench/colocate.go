package main

import (
	"fmt"
	"math"
	"time"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
	"dsasim/internal/xmem"
)

// The xmem-colocate workload (§4.5, Figs 10/12/13): a closed loop on one
// socket that bypasses offload. Eight X-Mem probes share the LLC with
// software copiers (cpu.Core.Memcpy) and DSA copiers (dsa.Client batches
// with cache control). The probes' working sets overflow the 105 MB LLC
// and the DSA copiers' destination span is wider than the DDIO ways, so
// eviction and leaky DMA both run.

// The xmem-colocate configuration.
const (
	colocDur    = 10 * time.Millisecond // copiers and probes stop issuing here
	probes      = 8
	probeWS     = 15 << 20              // mean probe working set
	wsJitter    = 0.2                   // per-probe spread around probeWS; the total stays probes×probeWS
	probeGap    = 10 * time.Microsecond // mean gap between probe rounds
	probeWindow = 4                     // rounds per reported probe sample (X-Mem's averaging window)
	probeStart  = 50 * time.Microsecond // probe i starts near i×probeStart
	swCopiers   = 4
	dsaCopiers  = 4
	copySize    = 4 << 10
	dsaBatchLen = 8                     // copies per DSA batch descriptor
	dsaDepth    = 32                    // batch descriptors in flight per DSA copier
	dsaSpan     = 8 << 20               // destination span per DSA copier
	swSpan      = 1 << 20               // destination span per software copier
	copierThink = 500 * time.Nanosecond // mean pause between a copier's operations
	copierSlots = 16                    // source slots per copier
)

// expGap draws an exponential gap with the given mean (at least 1 ns).
func expGap(rng *sim.Rand, mean sim.Time) sim.Time {
	return max(sim.Time(-float64(mean)*math.Log(1-rng.Float64())), 1)
}

// colocRun is the state of one xmem-colocate simulation.
type colocRun struct {
	tr  *tracer
	e   *sim.Engine
	sys *mem.System
	llc *mem.LLC
	dev *dsa.Device
	as  *mem.AddressSpace
	led *ledger

	ws        []int64 // per-probe working set
	statsOn   bool
	statsFrom sim.Time

	probeLat  []int64 // probe access latency per window of rounds, ps
	dsaLat    []int64 // per copy: batch submit → completion, ns
	memcpyLat []int64 // per software copy: modelled duration, ns
	queueLat  []int64 // per batch: Completion submit → dispatch, ns
	execLat   []int64 // per batch: Completion dispatch → finish, ns
	winOps    int64   // copies completed inside the statistics window
	winBytes  int64
}

// runColocate is one repetition of xmem-colocate.
func runColocate(seed uint64, tr *tracer) (*repOut, error) {
	out := newRepOut()
	t0 := time.Now()
	c := &colocRun{tr: tr, led: newLedger(seed, sampleEvery, 1<<17)}
	c.e = sim.New()
	c.sys = twoSocket(c.e)
	c.llc = c.sys.SocketOf(0).LLC
	c.as = mem.NewAddressSpace(1)
	c.dev = dsa.New(c.e, c.sys, dsa.DefaultConfig("dsa0", 0))
	wqs := make([]dsa.WQConfig, dsaCopiers)
	for i := range wqs {
		wqs[i] = dsa.WQConfig{Mode: dsa.Dedicated, Size: dsaDepth}
	}
	if _, err := c.dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: wqs}); err != nil {
		return nil, err
	}
	if err := c.dev.Enable(); err != nil {
		return nil, err
	}
	c.dev.BindPASID(c.as)
	rng := sim.NewRand(seed ^ 0xC0105EED)
	node := mem.OnNode(c.sys.Node(0))
	alloc := func(size int64) *mem.Buffer { return c.as.Alloc(size, node) }
	for i := 0; i < swCopiers; i++ {
		core := cpu.NewCore(10+i, 0, c.sys, c.as, cpu.SPRModel())
		src := fillSlots(alloc(copySize*int64(copierSlots)), copySize, copierSlots, rng)
		dst := newSlots(alloc(swSpan), copySize, int(swSpan/copySize))
		c.e.Go(fmt.Sprintf("memcpy%d", i), c.swCopier(core, src, dst, sim.NewRand(seed^uint64(i+1)*0x9E3779B97F4A7C15)))
	}
	for i := 0; i < dsaCopiers; i++ {
		cl := dsa.NewClient(c.dev.WQs()[i], nil)
		src := fillSlots(alloc(copySize*int64(copierSlots)), copySize, copierSlots, rng)
		dst := newSlots(alloc(dsaSpan), copySize, int(dsaSpan/copySize))
		c.e.Go(fmt.Sprintf("dsacopy%d", i), c.dsaCopier(cl, src, dst, sim.NewRand(seed^uint64(i+1)*0xD1B54A32D192ED03)))
	}
	// Seeded working sets: each probe draws a weight within ±wsJitter and
	// the weights are normalised, so the LLC overflow is the same for
	// every seed while its split across probes differs.
	c.ws = make([]int64, probes)
	w := make([]float64, probes)
	var sum float64
	for i := range w {
		w[i] = 1 + wsJitter*(2*rng.Float64()-1)
		sum += w[i]
	}
	for i := range w {
		c.ws[i] = int64(float64(probeWS) * w[i] * float64(probes) / sum)
	}
	for i := 0; i < probes; i++ {
		c.e.Go(fmt.Sprintf("xmem%d", i), c.probe(i, sim.NewRand(seed^uint64(i+1)*0xA0761D6478BD642F)))
	}
	out.setup += time.Since(t0)
	out.timed(c.e.Run)

	ok, shed, failed := c.led.tally()
	out.ops += ok
	out.addLedger(c.led, shed, failed)
	if !c.statsOn {
		return nil, fmt.Errorf("xmem-colocate: the LLC never filled")
	}
	if err := c.metrics(out); err != nil {
		return nil, err
	}
	return out, nil
}

// probe runs one X-Mem instance: it starts staggered, then measures a
// round at exponential gaps. Statistics start at the first round that
// finds the LLC full.
func (c *colocRun) probe(i int, rng *sim.Rand) func(*sim.Proc) {
	return func(p *sim.Proc) {
		p.SleepUntil(sim.Time(i)*probeStart + expGap(rng, probeStart/4))
		pr := xmem.NewProbe(c.llc, fmt.Sprintf("xmem%d", i), c.ws[i])
		var sum time.Duration
		n := 0
		for p.Now() < colocDur {
			h := c.tr.hostStart()
			lat := pr.Step()
			if c.tr != nil {
				c.tr.host(&c.tr.stepHost, h)
				c.tr.span("xmem.Probe.Step", -1-int32(i), 0, p.Now(), p.Now())
			}
			if !c.statsOn && c.llc.Total() >= c.llc.Capacity() {
				c.statsOn, c.statsFrom = true, p.Now()
			}
			if c.statsOn {
				sum += lat
				if n++; n == probeWindow {
					// picoseconds: the window mean keeps sub-ns resolution
					c.probeLat = append(c.probeLat, int64(sum)*1000/int64(n))
					sum, n = 0, 0
				}
			}
			p.Sleep(expGap(rng, probeGap))
		}
	}
}

// inWindow reports whether a copy finishing at t counts toward the
// statistics window.
func (c *colocRun) inWindow(t sim.Time) bool { return c.statsOn && t >= c.statsFrom && t < colocDur }

// swCopier copies 4 KB at a time on one core, pausing between copies.
func (c *colocRun) swCopier(core *cpu.Core, src, dst *slots, rng *sim.Rand) func(*sim.Proc) {
	return func(p *sim.Proc) {
		for p.Now() < colocDur {
			j, k := rng.Intn(src.n), dst.rotate()
			id := c.led.add()
			c.led.claim(id, dst, k)
			h := c.tr.hostStart()
			d, err := core.Memcpy(dst.addr(k), src.addr(j), copySize)
			if c.tr != nil {
				c.tr.host(&c.tr.memcpyHost, h)
				c.tr.span("cpu.Core.Memcpy", id, 0, p.Now(), p.Now()+d)
			}
			if err != nil {
				c.led.release(id, dst, k)
				c.led.end(id, opFailed)
				p.Sleep(expGap(rng, copierThink))
				continue
			}
			c.led.landed(id, dst, k, src, j)
			c.led.end(id, opOK)
			p.Sleep(d)
			if c.inWindow(p.Now()) {
				c.memcpyLat = append(c.memcpyLat, int64(d))
				c.winOps++
				c.winBytes += copySize
			}
			p.Sleep(expGap(rng, copierThink))
		}
	}
}

// dsaBatch is one batch descriptor in flight.
type dsaBatch struct {
	comp  *dsa.Completion
	start sim.Time
	ids   []int32
	j, k  []int
}

// dsaCopier keeps depth cache-control batch copies in flight on its
// dedicated WQ, harvesting the oldest before issuing the next.
func (c *colocRun) dsaCopier(cl *dsa.Client, src, dst *slots, rng *sim.Rand) func(*sim.Proc) {
	return func(p *sim.Proc) {
		var q []dsaBatch
		for {
			for len(q) < dsaDepth && p.Now() < colocDur {
				b := dsaBatch{ids: make([]int32, dsaBatchLen), j: make([]int, dsaBatchLen), k: make([]int, dsaBatchLen)}
				descs := make([]dsa.Descriptor, dsaBatchLen)
				for i := range descs {
					b.j[i], b.k[i] = rng.Intn(src.n), dst.rotate()
					b.ids[i] = c.led.add()
					c.led.claim(b.ids[i], dst, b.k[i])
					descs[i] = dsa.Descriptor{Op: dsa.OpMemmove, Flags: dsa.FlagCacheControl, PASID: c.as.PASID,
						Src: src.addr(b.j[i]), Dst: dst.addr(b.k[i]), Size: copySize}
				}
				b.start = p.Now()
				comp, err := cl.Submit(p, dsa.Descriptor{Op: dsa.OpBatch, PASID: c.as.PASID, Descs: descs})
				if c.tr != nil {
					c.tr.span("dsa.Client.Submit", b.ids[0], 0, b.start, p.Now())
				}
				if err != nil {
					for i, id := range b.ids {
						c.led.release(id, dst, b.k[i])
						c.led.end(id, opFailed)
					}
					continue
				}
				b.comp = comp
				q = append(q, b)
			}
			if len(q) == 0 {
				return
			}
			b := q[0]
			q = q[1:]
			b.comp.Wait(p)
			c.harvest(b, src, dst)
			p.Sleep(expGap(rng, copierThink))
		}
	}
}

// harvest settles one finished batch: every child ends once, sampled
// children are compared with their source, and children finishing inside
// the window are scored.
func (c *colocRun) harvest(b dsaBatch, src, dst *slots) {
	rec := b.comp.Record()
	lat := b.comp.FinishTime - b.start
	if c.tr != nil {
		c.tr.span("dsa.Completion", b.ids[0], 0, b.comp.SubmitTime, b.comp.FinishTime)
	}
	win := c.inWindow(b.comp.FinishTime)
	if win {
		c.queueLat = append(c.queueLat, int64(b.comp.QueueTime()))
		c.execLat = append(c.execLat, int64(b.comp.FinishTime-b.comp.DispatchTime))
	}
	for i, id := range b.ids {
		ok := rec.Status == dsa.StatusSuccess && i < len(rec.Children) && rec.Children[i].Status == dsa.StatusSuccess
		if !ok {
			c.led.release(id, dst, b.k[i])
			c.led.end(id, opFailed)
			continue
		}
		c.led.landed(id, dst, b.k[i], src, b.j[i])
		c.led.end(id, opOK)
		if win {
			c.dsaLat = append(c.dsaLat, int64(lat))
			c.winOps++
			c.winBytes += copySize
		}
	}
}

// metrics fills the repetition's simulated metrics and layer values.
func (c *colocRun) metrics(out *repOut) error {
	win := (colocDur - c.statsFrom).Seconds()
	kops := float64(c.winOps) / win / 1e3
	out.sim["goodput_kops"] = kops
	out.sim["slo_attained_kops"] = kops
	out.sim["copy_gbps"] = float64(c.winBytes) / win / 1e9
	for _, m := range []struct {
		name  string
		xs    []int64
		q     float64
		scale float64
		into  map[string]float64
	}{
		{"fg_p50_us", c.probeLat, 0.5, 1e6, out.sim},
		{"fg_p99_us", c.probeLat, 0.99, 1e6, out.sim},
		{"bg_p50_us", c.dsaLat, 0.5, 1e3, out.sim},
		{"bg_p99_us", c.dsaLat, 0.99, 1e3, out.sim},
		{"cpu.memcpy_us_p50", c.memcpyLat, 0.5, 1e3, out.layer},
		{"dsa.queue_us_p50", c.queueLat, 0.5, 1e3, out.layer},
		{"dsa.queue_us_p99", c.queueLat, 0.99, 1e3, out.layer},
		{"dsa.exec_us_p50", c.execLat, 0.5, 1e3, out.layer},
		{"dsa.exec_us_p99", c.execLat, 0.99, 1e3, out.layer},
	} {
		v, err := percentile(sortedCopy(m.xs), m.q, m.name)
		if err != nil {
			return err
		}
		m.into[m.name] = float64(v) / m.scale
	}
	out.layer["xmem.stats_from_us"] = float64(c.statsFrom) / 1e3
	deviceCounters(out.layer, []*dsa.Device{c.dev})
	memCounters(out.layer, c.sys)
	return nil
}
