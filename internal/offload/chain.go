package offload

import (
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// chain is the one unit of portal submission. A single op is a one-node
// chain, a Batch.Submit or AutoBatcher flush is an unfenced chain, a
// pipeline level run is a fenced chain, and a fault-recovery retry is a
// one-node chain of the unfinished remainder. Every chain goes through
// submitChain.
type chain struct {
	descs []dsa.Descriptor

	// futs, when set, are AutoBatcher futures parallel to descs: each is
	// bound to the completion of the slice its descriptor lands in, or
	// resolved with the error when that slice fails to submit.
	futs []*Future

	// admit charges one admission token for the whole chain and refuses
	// a closed tenant. Pipeline levels and recovery retries are not
	// admitted again: they belong to work that already was.
	admit bool

	// split lets a data-aware scheduler shard the chain into per-socket
	// slices by data home (splitByHome).
	split bool

	// pinned sends every slice to a WQ on socket, wherever its data
	// lives: a pipeline's chains follow the socket its scratch
	// intermediates were placed on.
	pinned bool
	socket int
}

// submitChain admits the chain once, shards it by data home when allowed,
// and submits each slice to a WQ portal. It returns the slice's Future,
// or for a split chain a Future joining every slice. A slice that fails to
// submit does not stop the others; the first error is returned alongside
// the joined Future so the submitted slices can still be drained. descs
// is never retained (each batch parent gets its own copy): callers may
// reuse it, and a one-node chain built on the caller's stack stays there.
func (t *Tenant) submitChain(p *sim.Proc, c chain) (*Future, error) {
	if c.admit {
		// Admission runs before any WQ is picked, so a shed or delayed
		// chain never occupies a queue slot. One logical chain costs one
		// token, however many per-socket slices placement shards it
		// into: splitting is a placement decision, not extra work (a
		// shed chain counts once in Stats.Shed).
		if err := t.admit(p, &t.bucket, 1); err != nil {
			failAll(c.futs, err)
			return nil, err
		}
	}
	var groups [][]int
	if c.split {
		groups = t.splitByHome(c.descs)
	}
	if groups == nil {
		return t.portal(p, &c, c.descs, c.futs)
	}
	t.stats.Splits += int64(len(groups))
	parts := make([]*Future, 0, len(groups))
	sub := make([]dsa.Descriptor, 0, len(c.descs))
	var subFuts []*Future
	var firstErr error
	for _, idx := range groups {
		sub, subFuts = sub[:0], subFuts[:0]
		for _, i := range idx {
			sub = append(sub, c.descs[i])
			if c.futs != nil {
				subFuts = append(subFuts, c.futs[i])
			}
		}
		f, err := t.portal(p, &c, sub, subFuts)
		if err != nil {
			f = completed(Result{}, err)
			if firstErr == nil {
				firstErr = err
			}
		}
		parts = append(parts, f)
	}
	// Join the slices (always two or more: splitByHome never returns one
	// group); the join starts at the first slice's submission instant.
	return &Future{t: t, parts: parts, start: parts[0].start}, firstErr
}

// portal submits one slice to a WQ portal: a plain descriptor when alone
// (the device's ≥2 batch rule; a fence orders nothing there), otherwise a
// batch parent over a copy of descs. The WQ is the scheduler's pick, or a
// WQ on the pinned socket; the write goes through the tenant's per-WQ
// client and coalescer.
func (t *Tenant) portal(p *sim.Proc, c *chain, descs []dsa.Descriptor, futs []*Future) (*Future, error) {
	var d dsa.Descriptor
	var bytes int64
	if len(descs) == 1 {
		d = descs[0]
		d.Flags &^= dsa.FlagFence
		bytes = d.Size
	} else {
		t.stats.Batches++
		// The parent carries Size 0; its payload is the children's.
		d = dsa.Descriptor{Op: dsa.OpBatch, Descs: append([]dsa.Descriptor(nil), descs...)}
		for i := range descs {
			bytes += descs[i].Size
		}
	}
	t.stamp(&d)
	req := Request{Socket: c.socket, Class: t.class, Size: d.Size, Topo: t.S.topo}
	if !c.pinned {
		req = t.request(&d)
	}
	wq := t.S.sched.Pick(req, t.S.wqs)
	if wq == nil {
		err := fmt.Errorf("offload: scheduler %q returned no work queue", t.S.sched.Name())
		failAll(futs, err)
		return nil, err
	}
	cl := t.client(wq)
	// Re-resolve the moderation vector per submission so SetPolicy takes
	// effect on the next operation, as its contract promises.
	cl.Coal = t.Coalescer()
	cl.Prepare(p)
	start := p.Now()
	comp, err := cl.TrySubmit(p, d, t.policy.MaxRetries)
	if err != nil {
		t.stats.Failures++
		failAll(futs, err)
		return nil, err
	}
	t.accepted(bytes)
	if futs != nil {
		// Coalesced siblings resolve from this one record and pay its
		// wait once.
		shared := &batchWait{}
		for _, f := range futs {
			f.ab, f.cl, f.comp, f.sharedWait = nil, cl, comp, shared
		}
	}
	return &Future{t: t, cl: cl, comp: comp, op: d.Op, start: start, d: d}, nil
}

// failAll resolves AutoBatcher futures whose slice never reached a WQ.
func failAll(futs []*Future, err error) {
	for _, f := range futs {
		f.ab, f.done, f.err = nil, true, err
	}
}

// splitByHome groups descriptors into per-socket sub-batches by data home
// (Tenant.dataHome), returning index groups in first-seen order, with
// submission order preserved inside each group. Under Policy.LoadAware the
// grouping key is not the raw home but where the scheduler's cost model
// says the descriptor will actually run (loadRouter): a slice homed on a
// saturated socket detours with the rest of the traffic instead of being
// dutifully split out and submitted into the backlog, and slices whose
// routes coincide merge into one sub-batch. It returns nil — submit as
// one batch — when splitting is disabled (Policy.SplitBatches), the active
// scheduler is not data-aware (a blind policy would route every sub-batch
// to the same device, making the split pure parent overhead), the flush
// carries a Fence anywhere (fences order descriptors across the whole
// batch, which independent devices cannot honor), or every descriptor
// shares a target.
//
// The fence scan is a pure pre-pass, before any load-aware routing:
// routeSocket folds a sample into the placement cost EWMA and moves the
// hysteresis incumbent, so discovering a mid-chain fence only after
// routing earlier descriptors would leave phantom route state behind for a
// flush that is then never split — under a saturated socket those phantom
// samples can flip the detour decision for unrelated traffic.
func (t *Tenant) splitByHome(descs []dsa.Descriptor) [][]int {
	if !t.policy.SplitBatches || !t.S.dataAware {
		return nil
	}
	for i := range descs {
		if descs[i].Flags&dsa.FlagFence != 0 || descs[i].Op == dsa.OpNop {
			return nil
		}
	}
	var lr loadRouter
	if t.policy.LoadAware {
		lr, _ = t.S.sched.(loadRouter)
	}
	var groups [][]int
	bySocket := make(map[int]int, 2)
	// One logical flush is one routing decision per distinct home: the
	// cost model's EWMA folds one sample per route lookup, so pricing
	// every descriptor individually would compound the smoothing away
	// with flush width (and let the estimate drift mid-scan).
	var routed map[int]int
	for i := range descs {
		d := &descs[i]
		home := t.dataHome(d)
		if lr != nil {
			if routed == nil {
				routed = make(map[int]int, 2)
			}
			r, ok := routed[home]
			if !ok {
				r = lr.routeSocket(t.request(d), home)
				routed[home] = r
			}
			home = r
		}
		g, ok := bySocket[home]
		if !ok {
			g = len(groups)
			bySocket[home] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if len(groups) < 2 {
		return nil
	}
	return groups
}
