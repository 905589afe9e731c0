// The sharded submission plane: per-shard lanes feeding per-WQ rings,
// with pressure/placement signals aggregated periodically instead of read
// synchronously on every submission.
//
// The classic Tenant path serializes every submitter through shared
// state: one admission bucket, one AutoBatcher, one coalescer rebuild
// check, and scheduler Picks that read live EWMAs. One submitter never
// notices; at 64 the shared state is the queue. The plane shards the
// tenant-side state per submission lane — each submitting process owns a
// lane and touches nothing shared on the fast path — and funnels
// descriptors into each WQ's ENQCMD path through a bounded ring. The
// modelled ring is the hardware's lock-free multi-producer queue: its
// publish CAS is charged in virtual time (Timing.RingPush through a
// sim.Token). The simulator runs every process on one goroutine, so the
// ring itself (submitRing) is a plain FIFO and the plane's counters are
// plain fields. The global signals the classic path read synchronously
// (WQ occupancy, queueing delay) become a periodically published
// occupancy vector: lanes read it instead of syncing the telemetry hub
// per Pick.
//
// Scheduling semantics are preserved, not replaced: lane candidate sets
// are precomputed from the same Topology express/rest partition the
// PriorityAware/Placement schedulers use (a latency-sensitive tenant's
// lanes only ever target the reserved express WQs on its socket), the
// per-lane admission buckets shard the same Policy.AdmitRate, and
// completions flow through the unchanged device completion path —
// including interrupt coalescing, whose resolved count also paces the
// plane's wakeup moderation.
package offload

import (
	"errors"
	"fmt"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// planeAggCadence is the shard→global aggregation period: how often the
// drain republishes the occupancy lanes route on, and the sync cadence
// installed on the telemetry hub so policy reads between publishes share
// one merge. A couple of microseconds keeps routing within one device
// service quantum of the truth without per-submission synchronization.
const planeAggCadence = 2 * time.Microsecond

// Plane is a tenant's sharded submission front end: N Lanes (one per
// submitting process) over one submission ring per service WQ, a drain
// that moves ring entries into the device WQs and publishes the routing
// occupancy, and completion-side wakeup moderation. Build one with
// Tenant.NewPlane; hand each submitter its own Lane.
type Plane struct {
	t     *Tenant
	lanes []*Lane
	wqs   []*dsa.WQ
	rings []submitRing

	// ringTok serializes concurrent virtual-time pushes into one ring:
	// a capacity-1 slot held for Timing.RingPush models the CAS that
	// publishes a slot — the only cross-submitter serialization left,
	// priced at nanoseconds instead of a lock's microseconds.
	ringTok []*sim.Token

	// lsCand/bulkCand are the ring indices each QoS class may target,
	// precomputed from the Topology express/rest partition on the
	// tenant's socket so routing never walks WQ slices.
	lsCand   []int
	bulkCand []int
	all      []int

	// pending counts entries pushed to rings but not yet accepted by a
	// WQ; inflight counts WQ-accepted descriptors not yet completed.
	pending  int64
	inflight int64

	// occ is the periodically published routing signal: each ring's WQ
	// occupancy at the last publish, at lastPub. Lanes add each ring's
	// live length on top, so routing reacts to their own bursts
	// immediately and to device drain at the aggregation cadence.
	occ     []int32
	lastPub sim.Time

	// Completion-side wakeup moderation: completed() broadcasts doneSig
	// every wakeEvery-th completion (resolved from the tenant's
	// coalescing count) or when inflight drains to zero, so a waiter at
	// 64 outstanding ops is not woken 64 times.
	doneSig   sim.Signal
	wakeEvery int64
	compCount int64

	// onLat, when set, observes the stamped latency of every completion
	// (see OnCompletion). Installed before traffic starts, invoked from
	// the device completion path.
	onLat func(lat sim.Time, ok bool)

	// dead marks rings whose WQ died (disable window or device outage):
	// the drain redistributed their entries, and lanes skip them until
	// the drain observes the WQ healthy again.
	dead []bool

	// held/holding carry, per ring, an entry the drain popped but its WQ
	// has not accepted yet (full), retried on the next drain pass.
	held    []ringEntry
	holding []bool

	// drainFn is pl.drain, bound once so re-arming it allocates nothing;
	// drainOn is set while a drain pass is scheduled.
	drainFn func()
	drainOn bool
}

// Lane is one submission shard: lane-local admission bucket and routing
// cursor, shared nothing. A Lane belongs to exactly one submitting
// process.
type Lane struct {
	pl     *Plane
	bucket tokenBucket
	cursor int
}

// NewPlane attaches a sharded submission plane with nlanes lanes to the
// tenant. One plane per tenant, one ring per service WQ, sized to the
// WQ; the telemetry hub switches to periodic aggregation at the plane's
// cadence. Returns an error if the tenant already has a plane.
func (t *Tenant) NewPlane(nlanes int) (*Plane, error) {
	if nlanes < 1 {
		return nil, fmt.Errorf("offload: plane needs at least 1 lane, got %d", nlanes)
	}
	if t.plane != nil {
		return nil, fmt.Errorf("offload: tenant already has a submission plane")
	}
	wqs := t.S.wqs
	pl := &Plane{
		t:       t,
		wqs:     wqs,
		rings:   make([]submitRing, len(wqs)),
		ringTok: make([]*sim.Token, len(wqs)),
		occ:     make([]int32, len(wqs)),
		dead:    make([]bool, len(wqs)),
		held:    make([]ringEntry, len(wqs)),
		holding: make([]bool, len(wqs)),
	}
	pl.drainFn = pl.drain
	for i, wq := range wqs {
		pl.rings[i] = newSubmitRing(wq.Size)
		pl.ringTok[i] = sim.NewToken(1)
	}
	pl.lsCand, pl.bulkCand = pl.candidates()
	pl.all = make([]int, len(wqs))
	for i := range pl.all {
		pl.all[i] = i
	}
	count, _ := t.coalesceParams()
	pl.wakeEvery = 1
	if count > 1 {
		pl.wakeEvery = int64(count)
	}
	pl.lanes = make([]*Lane, nlanes)
	for i := range pl.lanes {
		// Cursors start strided so lanes spread across the candidate
		// set instead of all hammering ring 0 before the first publish.
		pl.lanes[i] = &Lane{pl: pl, cursor: i}
	}
	t.S.met.hub.SetSyncCadence(planeAggCadence)
	pl.publish(t.S.E.Now())
	t.plane = pl
	return pl, nil
}

// candidates precomputes the ring-index sets each QoS class may target,
// mirroring pickExpress: the tenant-socket pool when the socket has a
// local device (full set otherwise), partitioned into the express lane
// for latency-sensitive tenants and the rest for bulk — collapsing to
// the shared pool when priorities are uniform.
func (pl *Plane) candidates() (ls, bulk []int) {
	topo := pl.t.S.topo
	socket := pl.t.Core.Socket
	pool := topo.Local(socket)
	express, rest := topo.Split(socket)
	idx := make(map[*dsa.WQ]int, len(pl.wqs))
	for i, wq := range pl.wqs {
		idx[wq] = i
	}
	toIdx := func(wqs []*dsa.WQ) []int {
		out := make([]int, 0, len(wqs))
		for _, wq := range wqs {
			out = append(out, idx[wq])
		}
		return out
	}
	if len(rest) == 0 {
		shared := toIdx(pool)
		return shared, shared
	}
	return toIdx(express), toIdx(rest)
}

// Plane returns the tenant's submission plane, or nil before NewPlane.
func (t *Tenant) Plane() *Plane { return t.plane }

// Lane returns the i-th lane. Each submitting process must own its lane
// exclusively.
func (pl *Plane) Lane(i int) *Lane { return pl.lanes[i] }

// Lanes returns the lane count.
func (pl *Plane) Lanes() int { return len(pl.lanes) }

// WQs returns the work queues the plane feeds, indexed like its rings.
func (pl *Plane) WQs() []*dsa.WQ { return pl.wqs }

// OnCompletion registers fn to observe every plane op as it settles: once
// per accepted submission, at its terminal completion or failover shed,
// with the span from the submission's stamp (the submit instant, or the
// caller-provided stamp of SubmitStamped) to that instant. ok is false for
// a terminal fault after the retry budget or a shed entry; the tenant's
// SLOOk/SLOMiss score the same outcome by the same rule (the fleet driver
// scores failures against the SLO, not goodput). Install before traffic
// starts; the hook runs on the device completion path, so it must not
// block.
func (pl *Plane) OnCompletion(fn func(lat sim.Time, ok bool)) { pl.onLat = fn }

// Pending returns entries pushed to rings but not yet WQ-accepted.
func (pl *Plane) Pending() int64 { return pl.pending }

// Inflight returns WQ-accepted descriptors not yet completed.
func (pl *Plane) Inflight() int64 { return pl.inflight }

// publish refreshes the routing occupancy from live WQ occupancy. The
// drain calls it at the aggregation cadence.
func (pl *Plane) publish(now sim.Time) {
	for i, wq := range pl.wqs {
		pl.occ[i] = int32(wq.Occupancy())
	}
	pl.lastPub = now
}

// cands returns the ring indices the tenant's QoS class may target.
func (pl *Plane) cands() []int {
	if pl.t.class == LatencySensitive {
		return pl.lsCand
	}
	return pl.bulkCand
}

// healthy reports whether ring i can take work: not marked dead by a
// failover and its WQ not in a disable window or outage — the WQ flag
// routes around a failure the drain has not seen yet.
func (pl *Plane) healthy(i int) bool { return !pl.dead[i] && pl.wqs[i].Healthy() }

// pickRing routes one submission: among the lane's class candidates,
// the healthy ring whose published WQ occupancy plus live ring backlog
// is smallest, scanned from a lane-local strided cursor so equally
// loaded rings spread across lanes instead of herding. When the whole
// candidate pool is down it detours to the least-loaded healthy service
// ring (cross-socket beats shedding), and when everything is down it
// falls back to the plain rotation so the entry lands somewhere; the
// drain redistributes or sheds it. Allocation-free.
func (l *Lane) pickRing() int {
	cands := l.pl.cands()
	best := l.leastLoaded(cands, l.cursor)
	if best < 0 {
		best = l.leastLoaded(l.pl.all, 0)
	}
	if best < 0 {
		best = cands[l.cursor%len(cands)]
	}
	l.cursor++
	return best
}

// leastLoaded returns the healthy ring of set, scanned from offset, with
// the smallest published occupancy plus live ring length, or -1.
func (l *Lane) leastLoaded(set []int, offset int) int {
	best, bestLoad := -1, int32(0)
	for k := range set {
		i := set[(offset+k)%len(set)]
		if !l.pl.healthy(i) {
			continue
		}
		load := int32(l.pl.rings[i].length()) + l.pl.occ[i]
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// pushHealthy pushes one entry onto the first healthy ring that takes
// it: the tenant's class candidates first, then — a cross-socket detour
// beats failing the op — any service ring. It reports false when every
// ring is down or full.
func (pl *Plane) pushHealthy(d dsa.Descriptor, tag uint64) bool {
	for _, set := range [2][]int{pl.cands(), pl.all} {
		for _, i := range set {
			if pl.healthy(i) && pl.rings[i].push(d, tag) {
				return true
			}
		}
	}
	return false
}

// Submit admits d on the lane's share of the tenant's rate, routes it to
// the least-loaded healthy ring, and pushes it, charging virtual time the
// way hardware does: the ENQCMD issue in the submitter's own timeline
// (64 procs pay it in parallel, not in series) and the ring's
// slot-publish CAS as a capacity-1 token held for Timing.RingPush, the
// only serialization point left between submitters sharing a ring. A full
// ring makes the submitter wait a poll gap and retry. The drain is
// scheduled lazily and the submission completes through the normal
// device path. The completion is stamped with the submit instant (see
// SubmitStamped).
func (l *Lane) Submit(p *sim.Proc, d dsa.Descriptor) error {
	return l.SubmitStamped(p, d, p.Now())
}

// SubmitStamped is Submit with an explicit latency stamp: the instant the
// operation logically entered the system, carried through the ring to the
// completion path, where the op settles with the stamp-to-record span
// and the OnCompletion observer sees it. Admission is the tenant's admit
// on the lane's share (AdmitWait delays it as it delays an op). Open-loop
// drivers (internal/fleet) stamp the scheduled arrival time instead of
// the submit instant, so time an overloaded shard spends behind its own
// backlog counts against the SLO the way a waiting client would see it —
// the standard guard against coordinated omission.
func (l *Lane) SubmitStamped(p *sim.Proc, d dsa.Descriptor, stamp sim.Time) error {
	pl := l.pl
	if err := pl.t.admit(p, &l.bucket, len(pl.lanes)); err != nil {
		return err
	}
	pl.t.stamp(&d)
	tm := pl.wqs[0].Dev.Cfg.Timing
	idx := l.pickRing()
	// The slot-publish CAS: submitters racing into one ring serialize
	// for RingPush nanoseconds each, in arrival order.
	at := pl.ringTok[idx].Acquire(p.Now(), tm.RingPush)
	p.SleepUntil(at + tm.RingPush)
	// The portal write itself is per-submitter work: each lane's proc
	// pays it in its own virtual timeline.
	p.Sleep(tm.SubmitENQCMD)
	for !pl.rings[idx].push(d, stampTag(stamp)) {
		p.Sleep(tm.PollGap)
	}
	pl.t.accepted(d.Size)
	pl.pending++
	pl.ensureDrain()
	return nil
}

// ensureDrain schedules a drain pass at the current instant unless one is
// already scheduled. The drain stops re-arming when the rings empty,
// keeping the event loop free of perpetual timers.
func (pl *Plane) ensureDrain() {
	if pl.drainOn {
		return
	}
	pl.drainOn = true
	pl.t.S.E.After(0, pl.drainFn)
}

// drain is one pass of the engine callback that moves ring entries into
// the device WQs: pop, WQ.Submit (zero virtual cost — the submitter
// already paid the portal write in its own timeline), hook the completion
// for wakeup moderation. A full WQ holds the popped entry and retries
// after a poll gap; a *dead* WQ (disable window or device outage — Submit
// returns dsa.ErrWQDisabled or dsa.ErrDeviceOffline, not ErrWQFull)
// triggers failover: the drain marks the ring dead and redistributes its
// entries to healthy rings, then revives it once the WQ reports healthy
// again. The occupancy republishes at the aggregation cadence. While
// entries remain the pass re-arms itself, a poll gap later when blocked
// on a full WQ and at the same instant otherwise.
func (pl *Plane) drain() {
	progressed := false
	blocked := false
	for i := range pl.rings {
		if pl.dead[i] {
			if pl.wqs[i].Healthy() {
				// The WQ healed: resume feeding it.
				pl.dead[i] = false
			} else {
				// Sweep entries lanes raced into the dead ring while
				// every candidate was down.
				pl.sweepDead(i)
				continue
			}
		}
		for {
			if !pl.holding[i] {
				e, ok := pl.rings[i].pop()
				if !ok {
					break
				}
				pl.held[i], pl.holding[i] = e, true
			}
			comp, err := pl.wqs[i].Submit(pl.held[i].d)
			if err != nil {
				if errors.Is(err, dsa.ErrWQDisabled) || errors.Is(err, dsa.ErrDeviceOffline) {
					pl.failover(i)
					progressed = true
				} else {
					blocked = true
				}
				break
			}
			comp.SetOnDone(pl.completed, pl.held[i].tag)
			pl.holding[i] = false
			pl.inflight++
			pl.pending--
			progressed = true
		}
	}
	e := pl.t.S.E
	if now := e.Now(); progressed || now >= pl.lastPub+planeAggCadence {
		pl.publish(now)
	}
	switch {
	case pl.pending == 0:
		pl.drainOn = false
	case blocked:
		// Waiting on WQ slots: completions free them, paced by the
		// device; poll at the gap the submission retry loop uses.
		e.After(pl.wqs[0].Dev.Cfg.Timing.PollGap, pl.drainFn)
	default:
		// New pushes landed behind our scan at this instant.
		e.After(0, pl.drainFn)
	}
}

// failover handles a dead WQ discovered by the drain: mark its ring dead
// for the lanes and redistribute the held entry plus everything queued
// behind it onto healthy rings. Entries with nowhere to go are shed
// (counted as failures) rather than stranded behind a dead queue.
func (pl *Plane) failover(i int) {
	if !pl.dead[i] {
		pl.dead[i] = true
		pl.t.stats.Failovers++
		pl.t.S.met.failover()
	}
	if pl.holding[i] {
		pl.holding[i] = false
		pl.redistribute(pl.held[i])
	}
	pl.sweepDead(i)
}

// sweepDead drains a dead ring's entries onto healthy rings.
func (pl *Plane) sweepDead(i int) {
	for {
		e, ok := pl.rings[i].pop()
		if !ok {
			return
		}
		pl.redistribute(e)
	}
}

// redistribute re-queues one failed-over entry onto a healthy ring and
// sheds it when every ring is down or full: an accepted op that can no
// longer run, so it settles as a failure.
func (pl *Plane) redistribute(e ringEntry) {
	if pl.pushHealthy(e.d, e.tag) {
		return
	}
	pl.pending--
	pl.settle(e.tag, false)
}

// Ring tags carry the submission's latency stamp in the low 56 bits
// (2^56 ns is ~2 years of virtual time) and the fault-retry attempt count
// in the top 8, so recovery needs no per-operation state.
const (
	tagAttemptShift = 56
	tagStampMask    = uint64(1)<<tagAttemptShift - 1
)

// stampTag encodes a submission's latency stamp into the ring tag.
func stampTag(at sim.Time) uint64 { return uint64(at) & tagStampMask }

// tagStamp extracts the latency stamp.
func tagStamp(tag uint64) sim.Time { return sim.Time(tag & tagStampMask) }

// tagAttempt extracts the fault-retry attempt count.
func tagAttempt(tag uint64) int { return int(tag >> tagAttemptShift) }

// tagRetry returns the tag for the next attempt, stamp preserved.
func tagRetry(tag uint64) uint64 { return tag + 1<<tagAttemptShift }

// completed is the plane's completion hook (dsa.Completion.SetOnDone):
// recover faulted completions within the policy's retry budget, then
// settle the op, decrement inflight, and wake waiters — every
// wakeEvery-th completion, or immediately when the plane drains to zero,
// mirroring how interrupt coalescing amortizes delivery.
func (pl *Plane) completed(c *dsa.Completion, tag uint64) {
	rec := c.Record()
	ok := rec.Status == dsa.StatusSuccess
	if !ok {
		if _, retry := pl.t.retryFault(rec.Status, tagAttempt(tag)); retry && pl.requeue(c, rec, tag) {
			return // remainder re-queued; the op is still in flight
		}
	}
	pl.settle(tag, ok)
	pl.inflight--
	if pl.inflight > 0 {
		pl.compCount++
		if pl.compCount%pl.wakeEvery != 0 {
			return
		}
	}
	pl.doneSig.Broadcast(pl.t.S.E)
}

// settle ends one plane op: a terminal failure counts toward
// Stats.Failures, the stamp-to-now latency settles through the tenant's
// one outcome rule, and the OnCompletion observer sees the same outcome.
func (pl *Plane) settle(tag uint64, ok bool) {
	lat := pl.t.S.E.Now() - tagStamp(tag)
	if !ok {
		pl.t.stats.Failures++
	}
	pl.t.settle(lat, ok)
	if pl.onLat != nil {
		pl.onLat(lat, ok)
	}
}

// requeue re-queues the unfinished remainder of a faulted plane
// submission onto a healthy ring, carrying the original latency stamp so
// the recovered op's SLO span includes every retry round trip. Returns
// false when no ring can take it — the completion then surfaces as a
// failure.
func (pl *Plane) requeue(c *dsa.Completion, rec dsa.CompletionRecord, tag uint64) bool {
	if !pl.pushHealthy(remainderOf(*c.Desc(), rec), tagRetry(tag)) {
		return false
	}
	pl.t.retried()
	pl.inflight--
	pl.pending++
	pl.ensureDrain()
	return true
}

// WaitInflight parks the process until at most max operations remain
// outstanding (pending in rings plus inflight on devices). max 0 is a
// full barrier. Wakeups are moderated by the plane's completion hook,
// so deep pipelines pay one wakeup per coalescing window, not per op.
func (pl *Plane) WaitInflight(p *sim.Proc, max int64) {
	for pl.pending+pl.inflight > max {
		pl.ensureDrain()
		p.Wait(&pl.doneSig)
	}
}

// Close detaches the plane from its tenant, so the tenant may build a new
// one. It refuses while work is outstanding — WaitInflight(p, 0) first —
// because only this plane's drain and completion hook can settle it. The
// tenant is left planeless, not closed: Tenant.Close is the lifecycle
// call, this is its plane half.
func (pl *Plane) Close() error {
	if n := pl.pending + pl.inflight; n != 0 {
		return fmt.Errorf("offload: plane closed with %d operations outstanding", n)
	}
	pl.t.plane = nil
	return nil
}
