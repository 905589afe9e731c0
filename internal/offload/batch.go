package offload

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Batch accumulates work descriptors for one explicit batch submission
// (§3.4 F2, guideline G1). Submit returns a Future for the batch parent.
type Batch struct {
	t     *Tenant
	descs []dsa.Descriptor
}

// NewBatch starts an empty batch.
func (t *Tenant) NewBatch() *Batch { return &Batch{t: t} }

// Len returns the number of queued descriptors.
func (b *Batch) Len() int { return len(b.descs) }

func (b *Batch) add(d dsa.Descriptor) *Batch {
	b.descs = append(b.descs, d)
	return b
}

// Copy appends a copy operation.
func (b *Batch) Copy(dst, src mem.Addr, n int64) *Batch { return b.add(memmoveOp(dst, src, n)) }

// Fill appends a pattern-fill operation.
func (b *Batch) Fill(dst mem.Addr, n int64, pattern uint64) *Batch {
	return b.add(fillOp(dst, n, pattern))
}

// Compare appends a compare operation.
func (b *Batch) Compare(x, y mem.Addr, n int64) *Batch { return b.add(compareOp(x, y, n)) }

// CRC32 appends a CRC generation operation.
func (b *Batch) CRC32(src mem.Addr, n int64, seed uint32) *Batch { return b.add(crcOp(src, n, seed)) }

// Dualcast appends a dualcast operation.
func (b *Batch) Dualcast(dst1, dst2, src mem.Addr, n int64) *Batch {
	return b.add(dualcastOp(dst1, dst2, src, n))
}

// DIFInsert appends a DIF insert operation.
func (b *Batch) DIFInsert(dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags) *Batch {
	return b.add(difOp(dsa.OpDIFInsert, dst, src, n, bs, tags, dif.Tags{}))
}

// Fence appends a fence: descriptors after it wait for all before it.
func (b *Batch) Fence() *Batch {
	if len(b.descs) > 0 {
		b.add(dsa.Descriptor{Op: dsa.OpNop, Flags: dsa.FlagFence})
	}
	return b
}

// Submit sends the batch through the scheduler and returns the in-flight
// Future. A batch needs at least two descriptors (device rule);
// single-entry batches are submitted as plain descriptors.
//
// Under a data-aware scheduler (Placement), a batch whose descriptors are
// homed on different sockets is sharded into per-socket sub-batches, each
// submitted to a device local to its slice's data; the returned Future
// joins the sub-batch completions (Wait drains each once, the first error
// wins). When a sub-batch fails to submit, the others are still submitted
// and the Future is returned alongside the error so they can be drained.
func (b *Batch) Submit(p *sim.Proc) (*Future, error) {
	if len(b.descs) == 0 {
		return nil, fmt.Errorf("offload: empty batch")
	}
	descs := b.descs
	b.descs = nil
	return b.t.submitChain(p, chain{descs: descs, admit: true, split: len(descs) > 1})
}

// AutoBatcher transparently coalesces sub-threshold Auto-path copies and
// fills into batch descriptors (G1 as policy): each absorbed operation
// immediately returns a pending Future, and the accumulated batch flushes
// once Policy.AutoBatch operations queue — or earlier, when any pending
// Future is waited on or Flush is called. Only operations without result
// values (copy and fill) coalesce; result-producing operations keep their
// own descriptors.
//
// Failure semantics are batch-granular: the device writes one completion
// record for the whole batch, so if any coalesced operation fails, every
// sibling Future resolves with the batch error (conservative — a sibling's
// copy may in fact have completed). Callers that redo on error stay
// correct because coalesced copies and fills are idempotent; the failure
// counts once toward Stats.Failures.
type AutoBatcher struct {
	t       *Tenant
	pending []dsa.Descriptor
	futs    []*Future
}

// Batcher returns the tenant's AutoBatcher, creating it on first use. It
// is functional even when Policy.AutoBatch is zero (explicit Add/Flush);
// the transparent path only engages when the policy enables it.
func (t *Tenant) Batcher() *AutoBatcher {
	if t.batcher == nil {
		t.batcher = &AutoBatcher{t: t}
	}
	return t.batcher
}

// Pending returns the number of queued, unflushed operations.
func (ab *AutoBatcher) Pending() int { return len(ab.pending) }

// add queues one descriptor and returns its pending Future, flushing when
// the policy's batch size is reached.
func (ab *AutoBatcher) add(p *sim.Proc, d dsa.Descriptor) (*Future, error) {
	ab.pending = append(ab.pending, d)
	f := &Future{t: ab.t, op: d.Op, ab: ab, start: p.Now()}
	ab.futs = append(ab.futs, f)
	ab.t.stats.Coalesce++
	limit := ab.t.policy.AutoBatch
	if devMax := ab.t.S.maxBatch; limit > devMax {
		limit = devMax
	}
	if limit > 0 && len(ab.pending) >= limit {
		if err := ab.Flush(p); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Flush submits the queued operations and binds every pending Future to
// its batch completion. Under a data-aware scheduler a mixed-home flush is
// sharded into per-socket sub-batches (see Batch.Submit); each sub-batch's
// futures share one completion, so the wait cost is paid once per
// sub-batch and a failure resolves only that sub-batch's siblings. On a
// submission failure the affected futures resolve with the error, the
// remaining sub-batches are still submitted, and the first error is
// returned. A shed flush resolves every coalesced future with the error.
func (ab *AutoBatcher) Flush(p *sim.Proc) error {
	if len(ab.pending) == 0 {
		return nil
	}
	descs, futs := ab.pending, ab.futs
	ab.pending, ab.futs = nil, nil
	_, err := ab.t.submitChain(p, chain{descs: descs, futs: futs, admit: true, split: true})
	return err
}
