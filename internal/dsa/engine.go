package dsa

import (
	"errors"
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// llcLat is the access latency of LLC-resident data for the device (Fig 15's
// "L" placements) and for DDIO-steered destination writes.
const llcLat = 33 * time.Nanosecond

// Engine is one processing engine (PE). A PE processes one descriptor at a
// time (§3.2): decode/translate, then data movement through the device
// fabric and memory pipes — with memory-level parallelism inside one
// descriptor supplied by the group's read buffers — and is held until the
// descriptor's data movement completes. Throughput scaling beyond one
// descriptor therefore comes from multiple PEs per group (Fig 7) and from
// deeper in-flight windows (Fig 4). Page faults with block-on-fault stall
// the engine, which is the QoS hazard §4.3 describes.
type Engine struct {
	ID    int
	group *Group
	busy  bool

	processed int64
	busyTime  sim.Time
}

// Processed returns the number of descriptors this engine has issued.
func (eng *Engine) Processed() int64 { return eng.processed }

// BusyTime returns the cumulative engine front-end occupancy.
func (eng *Engine) BusyTime() sim.Time { return eng.busyTime }

// free releases the engine and re-arms dispatch.
func (eng *Engine) free(at sim.Time) {
	e := eng.group.Dev.E
	e.At(at, func() {
		eng.busy = false
		eng.group.dispatch()
	})
}

// execute runs one descriptor on the engine. Called from dispatch with the
// engine marked free; it must set busy and eventually free the engine.
// Every execute increments the group's inflight count exactly once; the
// matching decrement happens when the work's completion record is written.
func (eng *Engine) execute(wk *work) {
	eng.busy = true
	g := eng.group
	d := g.Dev
	e := d.E
	now := e.Now()
	wk.comp.DispatchTime = now
	eng.processed++
	g.inflight++

	switch wk.d.Op {
	case OpBatch:
		eng.executeBatch(wk)
		return
	case OpDrain:
		eng.executeDrain(wk)
		return
	}

	t := d.Cfg.Timing
	issue := t.EngineSetup
	if wk.fromBatch {
		issue = t.BatchSubDesc
	}

	as, err := d.space(wk.d.PASID)
	if err != nil {
		eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
		eng.free(now + issue)
		return
	}

	var spanBuf [3]mem.Span
	spans, err := spansOf(&wk.d, &spanBuf)
	if err != nil {
		eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
		eng.free(now + issue)
		return
	}

	// Validate addresses up front (descriptor sanity, not faults).
	for _, sp := range spans {
		if sp.N == 0 {
			continue
		}
		if _, err := as.View(sp.Addr, sp.N); err != nil {
			eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
			eng.free(now + issue)
			return
		}
	}

	// Address translation: the pipeline-fill translation of the first
	// page. Later pages overlap with data movement (why page size barely
	// matters, Fig 8).
	var trans sim.Time
	if len(spans) > 0 {
		trans = d.translate(wk.d.PASID, spans[0].Addr)
	}

	// Page faults.
	var faultDelay sim.Time
	upTo := wk.d.Size
	faulted := false
	var faultAddr mem.Addr
	for _, sp := range spans {
		if sp.N == 0 {
			continue
		}
		for {
			err := as.CheckMapped(sp.Addr, sp.N)
			if err == nil {
				break
			}
			var pf *mem.PageFaultError
			if !errors.As(err, &pf) {
				eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
				eng.free(now + issue)
				return
			}
			d.stats.PageFaults++
			if wk.d.Flags&FlagBlockOnFault != 0 {
				// The engine stalls while the OS resolves the fault.
				faultDelay += d.Sys.IOMMU.FaultLat()
				if err := as.ResolveFault(pf.Addr); err != nil {
					eng.finish(wk, now+issue, CompletionRecord{Status: StatusError, Err: err})
					eng.free(now + issue)
					return
				}
				continue
			}
			// Partial completion at the faulting offset.
			faulted = true
			faultAddr = pf.Addr
			if off := int64(pf.Addr - sp.Addr); off < upTo {
				upTo = off
			}
			break
		}
		if faulted {
			break
		}
	}

	// Synthetic faults from the injector, resolved exactly like real ones:
	// block-on-fault stalls the engine for the OS round trip; otherwise
	// the device reports a partial completion after the fault-report cost.
	if !faulted && d.faults != nil {
		if off, hit := d.faults.roll(&wk.d, now); hit {
			d.stats.PageFaults++
			d.stats.InjectedFaults++
			if wk.d.Flags&FlagBlockOnFault != 0 {
				faultDelay += d.Sys.IOMMU.FaultLat()
			} else {
				faulted = true
				upTo = off
				if len(spans) > 0 {
					faultAddr = spans[0].Addr + mem.Addr(off)
				}
				faultDelay += t.FaultReport
			}
		}
	}

	frontEnd := issue + trans + faultDelay
	dataStart := now + frontEnd

	dataDone := dataStart
	if !faulted {
		dataDone = eng.reserveData(wk, spans, dataStart)
	}
	// Completion record write plus the fabric hop back to the host LLC,
	// where software observes it.
	finishAt := dataDone + t.CRWrite + t.PortalHop/2

	rec := CompletionRecord{}
	if faulted {
		rec = CompletionRecord{Status: StatusPageFault, BytesCompleted: upTo, FaultAddr: faultAddr}
		if upTo > 0 {
			// Apply the completed prefix functionally for ops with
			// byte-wise prefixes (copy/fill); result-producing ops
			// report the fault without side effects.
			switch wk.d.Op {
			case OpMemmove, OpFill, OpCopyCRC, OpDualcast:
				pr := execute(as, &wk.d, upTo)
				pr.Status = StatusPageFault
				pr.BytesCompleted = upTo
				pr.FaultAddr = faultAddr
				rec = pr
			}
		}
		eng.finish(wk, finishAt, rec)
	} else {
		// Defer functional execution to completion time so overlapping
		// descriptors apply in completion order.
		eng.finishFunc(wk, finishAt, func() CompletionRecord {
			return execute(as, &wk.d, wk.d.Size)
		})
	}
	eng.busyTime += dataDone - now
	eng.free(dataDone)
}

// reserveData books every shared resource the descriptor's data movement
// needs, starting at dataStart, and returns the data completion instant.
func (eng *Engine) reserveData(wk *work, spans []mem.Span, dataStart sim.Time) sim.Time {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing
	as, _ := d.space(wk.d.PASID)

	var readBytes, writeBytes int64
	done := dataStart
	for _, sp := range spans {
		if sp.N == 0 {
			continue
		}
		buf, _, err := as.Lookup(sp.Addr)
		if err != nil {
			continue
		}
		var spDone sim.Time
		if buf.CacheResident && !sp.Write {
			// LLC-resident source: no memory traffic, short latency.
			spDone = dataStart + llcLat + sim.GBps(sp.N, t.FabricGBps)
			readBytes += sp.N
		} else if sp.Write {
			writeBytes += sp.N
			memBytes := sp.N
			start := dataStart
			if buf.CacheResident {
				// Fig 15 "L" destination: the lines are already hot in
				// the LLC; writes are pure cache updates.
				memBytes = 0
				spDone = start + llcLat + sim.GBps(sp.N, t.FabricGBps)
			} else if wk.d.Flags&FlagCacheControl != 0 {
				// Destination steered to the LLC via the DDIO ways
				// (§6.2 G3): only the footprint overflow leaks to memory.
				leaked := d.ddioWrite(buf, sp.N)
				d.stats.DDIOLeaked += leaked
				memBytes = leaked
				spDone = start + llcLat + sim.GBps(sp.N-leaked, t.FabricGBps)
			}
			if memBytes > 0 && buf.Node != nil {
				lat := d.Sys.AccessLat(d.Cfg.Socket, buf.Node, true)
				nd := d.Sys.ReserveTrafficAt(start, d.Cfg.Socket, buf.Node, memBytes, true)
				if nd+lat > spDone {
					spDone = nd + lat
				}
			}
			d.stats.BytesWritten += sp.N
		} else {
			readBytes += sp.N
			if buf.Node != nil {
				lat := d.Sys.AccessLat(d.Cfg.Socket, buf.Node, false)
				nd := d.Sys.ReserveTrafficAt(dataStart, d.Cfg.Socket, buf.Node, sp.N, false)
				spDone = nd + lat
			}
			d.stats.BytesRead += sp.N
		}
		if spDone > done {
			done = spDone
		}
	}

	// Device fabric carries the dominant direction.
	fb := readBytes
	if writeBytes > fb {
		fb = writeBytes
	}
	if fb > 0 {
		if fd := d.fabric.ReserveAt(dataStart, fb); fd > done {
			done = fd
		}
	}
	// Group read buffers bound sustainable read bandwidth; with an express
	// partition, top-priority reads draw from their reserved lane.
	if readBytes > 0 {
		if pipe := g.readPipeFor(wk); pipe != nil {
			if rd := pipe.ReserveAt(dataStart, readBytes); rd > done {
				done = rd
			}
		}
	}
	return done
}

// finish schedules the completion record write at instant at.
func (eng *Engine) finish(wk *work, at sim.Time, rec CompletionRecord) {
	eng.finishFunc(wk, at, func() CompletionRecord { return rec })
}

// finishFunc schedules fn to produce the completion record at instant at and
// delivers it.
func (eng *Engine) finishFunc(wk *work, at sim.Time, fn func() CompletionRecord) {
	g := eng.group
	d := g.Dev
	d.E.At(at, func() {
		rec := fn()
		d.stats.Completed++
		g.inflight--
		wk.comp.complete(rec)
		if wk.wq != nil {
			wk.wq.noteCompleted(wk.d.PASID, wk.comp.Latency())
		}
		if wk.parent != nil {
			wk.parent.childDone(wk.childIdx, rec)
		}
		g.drainSig.Broadcast(d.E)
	})
}

// executeDrain completes once every previously dispatched descriptor in the
// group has finished (inflight drops to 1 — the drain itself). The engine is
// held for the duration, as the drain descriptor occupies its slot.
func (eng *Engine) executeDrain(wk *work) {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing
	complete := func() {
		at := d.E.Now() + t.EngineSetup + t.CRWrite
		eng.finish(wk, at, CompletionRecord{Status: StatusSuccess})
		eng.free(at)
	}
	if g.inflight <= 1 {
		complete()
		return
	}
	d.E.Go("drain-wait", func(p *sim.Proc) {
		for g.inflight > 1 {
			p.Wait(&g.drainSig)
		}
		complete()
	})
}

// batchState aggregates a batch descriptor's children (§3.4 F2).
type batchState struct {
	eng       *Engine
	wk        *work
	children  []Descriptor
	childRecs []CompletionRecord // per-child records, indexed by child position
	nextIssue int
	completed int
	succeeded int
	failed    bool
	// poisoned marks a fence reached after an earlier child failed: the
	// remaining children are never attempted (their records stay
	// StatusNone) and the parent completes as soon as the issued children
	// drain. This is how a fused pipeline chain stops feeding garbage to
	// downstream stages.
	poisoned bool
}

// executeBatch models the batch processing unit: fetch the descriptor array
// from memory in one read, then stream sub-descriptors to the group's
// engines at BatchSubDesc intervals (cheaper than portal-submitted
// descriptors, which is the Fig 3/9 batching win).
func (eng *Engine) executeBatch(wk *work) {
	g := eng.group
	d := g.Dev
	t := d.Cfg.Timing
	now := d.E.Now()
	d.stats.BatchesFetched++

	n := int64(len(wk.d.Descs)) * 64
	// Fetch the descriptor array: one memory round trip plus fabric
	// occupancy for 64×N bytes. The array lives in the submitting core's
	// local memory, so the round trip is priced against the submitter's
	// home node — a device on the other socket pays the UPI hop.
	var fetchLat sim.Time = 110 * time.Nanosecond
	if home := d.Sys.HomeNode(wk.d.SubmitterSocket); home != nil {
		fetchLat = d.Sys.AccessLat(d.Cfg.Socket, home, false)
	}
	fetchDone := d.fabric.ReserveAt(now+t.EngineSetup+fetchLat, n)

	bs := &batchState{
		eng:       eng,
		wk:        wk,
		children:  wk.d.Descs,
		childRecs: make([]CompletionRecord, len(wk.d.Descs)),
	}
	d.E.At(fetchDone, func() {
		bs.issueReady()
		// The fetching engine frees once the children are queued; it can
		// then pick children itself.
		eng.busy = false
		g.dispatch()
	})
}

// issueReady queues children up to (and including) the next fence barrier.
// Children after a fence wait until everything issued so far completes; a
// fence reached after a failure poisons the remainder of the batch.
func (bs *batchState) issueReady() {
	g := bs.eng.group
	for bs.nextIssue < len(bs.children) {
		child := bs.children[bs.nextIssue]
		if child.Flags&FlagFence != 0 {
			if bs.completed < bs.nextIssue {
				return // barrier: wait for earlier children
			}
			if bs.failed {
				bs.poisoned = true
				return
			}
		}
		child.PASID = bs.wk.d.PASID
		cw := &work{
			d:         child,
			comp:      newCompletion(g.Dev.E),
			parent:    bs,
			childIdx:  bs.nextIssue,
			fromBatch: true,
			enqueued:  g.Dev.E.Now(),
		}
		cw.comp.SubmitTime = bs.wk.comp.SubmitTime
		bs.nextIssue++
		g.batchQ.Push(cw)
	}
}

// childDone records a child completion and, when the batch is complete,
// writes the batch-granular completion record. Children can finish out of
// submission order (several engines drain the batch queue), so the record
// lands at the child's own index.
func (bs *batchState) childDone(idx int, rec CompletionRecord) {
	bs.completed++
	bs.childRecs[idx] = rec
	if rec.Status == StatusSuccess {
		bs.succeeded++
	} else {
		bs.failed = true
	}
	g := bs.eng.group
	if !bs.poisoned && bs.nextIssue < len(bs.children) {
		bs.issueReady() // may poison at a fence after a failed child
		if !bs.poisoned {
			g.dispatch()
			return
		}
	}
	if bs.completed < bs.nextIssue {
		return // issued children still in flight
	}
	if bs.poisoned || bs.completed == len(bs.children) {
		d := g.Dev
		status := StatusSuccess
		if bs.failed {
			status = StatusBatchFail
		}
		at := d.E.Now() + d.Cfg.Timing.CRWrite
		d.E.At(at, func() {
			d.stats.Completed++
			g.inflight-- // the batch parent's own inflight slot
			bs.wk.comp.complete(CompletionRecord{
				Status:   status,
				Result:   uint64(bs.succeeded),
				Children: bs.childRecs,
			})
			if bs.wk.wq != nil {
				bs.wk.wq.noteCompleted(bs.wk.d.PASID, bs.wk.comp.Latency())
			}
			g.drainSig.Broadcast(d.E)
		})
	}
}
