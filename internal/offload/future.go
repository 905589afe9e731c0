package offload

import (
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/sim"
)

// WaitMode aliases the device wait modes so callers need only this package:
// Poll spins, UMWait parks the core in the optimized wait state, Interrupt
// frees the core and pays delivery latency (§4.4).
type WaitMode = dsa.WaitMode

// Completion wait modes.
const (
	Poll      = dsa.Poll
	UMWait    = dsa.UMWait
	Interrupt = dsa.Interrupt
)

// Result is the outcome of one operation.
type Result struct {
	Record   dsa.CompletionRecord // completion record (the core's for a software run)
	CRC      uint32               // CRC32 / CopyCRC result
	Mismatch bool                 // Compare / ComparePattern mismatch
	Offset   int64                // first mismatch offset
	Size     int64                // delta-record bytes used
	Hardware bool                 // executed on DSA
	Duration sim.Time             // operation latency observed by the caller
}

// Future is one in-flight operation. Software-path operations complete
// before the Future is returned; hardware-path ones complete when the
// device writes the completion record; auto-batched ones complete when
// their batch flushes and finishes. Wait is idempotent: the first call
// resolves the result, later calls return it without re-accounting.
type Future struct {
	t     *Tenant
	cl    *dsa.Client
	comp  *dsa.Completion
	op    dsa.OpType
	start sim.Time
	ab    *AutoBatcher // non-nil while queued and unflushed

	// d is the submitted descriptor (PASID and flags resolved), kept so
	// fault recovery can re-submit the unfinished remainder. Set on every
	// future the portal path builds; recovery reads it only for plain
	// (non-batch, non-coalesced) hardware futures.
	d dsa.Descriptor

	// sharedWait links futures that resolve from one completion record
	// (coalesced batch siblings): the completion is physically observed —
	// and its wait cost paid — once, by the first waiter, and a batch
	// failure counts once toward Stats.Failures. Interrupt coalescing
	// (Policy.CoalesceCount) extends the same idea across *distinct*
	// completion records: every record announced by one moderated
	// interrupt is harvested by the first waiter's delivery, so sibling
	// futures in the same coalescing window drain for free whichever
	// record each one resolves from.
	sharedWait *batchWait

	// run, when non-nil, marks a pipeline future: the result is produced by
	// the pipeline driver process (pipeline.go), which walks the DAG's
	// chains on the sim timeline and broadcasts run.sig when the final
	// chain completes. Done and Wait read the run instead of a completion.
	run *pipeRun

	// parts joins the per-socket sub-batches of one split batch
	// submission (batch.go): the Future is done when every part is, and
	// Wait drains the parts in turn, paying the wait cost once per
	// sub-batch — or, under interrupt coalescing, once per moderation
	// window: the tenant's coalescer spans its per-WQ clients, so
	// sub-batch records finishing within one window share one delivery.
	parts []*Future

	// ownerRetries marks a pipeline chain, whose flush decides whether a
	// failed record is terminal and so counts toward Stats.Failures.
	ownerRetries bool

	done bool
	res  Result
	err  error
}

// Done reports whether the result is available without waiting. A queued
// auto-batched operation is not done until its batch flushes and finishes.
func (f *Future) Done() bool {
	if f.done {
		return true
	}
	if f.run != nil {
		return f.run.done
	}
	if f.parts != nil {
		for _, part := range f.parts {
			if !part.Done() {
				return false
			}
		}
		return true
	}
	return f.comp != nil && f.comp.Done()
}

// Wait blocks the calling process until the operation finishes, accounting
// the wait on the tenant's core per mode, and returns the result. Waiting
// on an operation still queued in the AutoBatcher flushes the batch first,
// so a dependent caller can never deadlock on an unflushed batch. The
// first Wait settles the operation, unless its flush refused it.
func (f *Future) Wait(p *sim.Proc, mode WaitMode) (Result, error) {
	if f.await(p, mode) {
		f.t.settle(f.res.Duration, f.err == nil)
	}
	return f.res, f.err
}

// await resolves the future without settling it, reporting whether this
// call resolved accepted work (not a done or flush-refused future).
// Internal waits — pipeline chains, split-batch parts — await alone.
func (f *Future) await(p *sim.Proc, mode WaitMode) bool {
	if f.done {
		return false
	}
	if f.run != nil {
		// The driver process pays the per-chain wait costs; the caller just
		// parks until the run resolves (event-driven, allocation-free).
		for !f.run.done {
			p.Wait(&f.run.sig)
		}
		f.done, f.res, f.err = true, f.run.res, f.run.err
		f.res.Duration = p.Now() - f.start
		return true
	}
	if f.parts != nil {
		return f.waitParts(p, mode)
	}
	if f.ab != nil {
		// Flush binds this future to its sub-batch parent, or resolves it
		// when that sub-batch failed to submit; a failure in a *different*
		// sub-batch of the same flush leaves this future submitted and
		// waitable, so only f.done decides.
		f.ab.Flush(p)
		if f.done {
			return false
		}
	}
	if f.sharedWait == nil || !f.sharedWait.paid || !f.comp.Done() {
		f.cl.Wait(p, f.comp, mode)
		if f.sharedWait != nil {
			f.sharedWait.paid = true
		}
	}
	// Fault recovery applies only to plain hardware futures: coalesced
	// siblings resolve from a batch parent's record (their fault surfaces
	// as BatchFail), and batch parents recover at the pipeline/batch
	// layer. A fallback resolves the future directly; a successful retry
	// swaps in the retried completion, which resolve() decodes below.
	if f.sharedWait == nil && f.op != dsa.OpBatch {
		f.t.recover(p, f, mode)
		if f.done {
			return true
		}
	}
	f.resolve(p.Now() - f.start)
	return true
}

// waitParts resolves a joined (split-batch) future: every sub-batch is
// drained — a later part is not abandoned because an earlier one failed —
// and the first error wins, keeping that part's completion record. On
// success the synthesized record counts completed work descriptors
// (Record.Result), matching what the device reports for an unsplit batch.
// The future is marked done only after the drain, so a concurrent waiter
// (or Done poller) never observes a premature success. It reports
// whether any part was accepted: a join of refused slices does not settle.
func (f *Future) waitParts(p *sim.Proc, mode WaitMode) bool {
	res := Result{Hardware: true}
	var firstErr error
	var completed uint64
	var accepted bool
	for _, part := range f.parts {
		accepted = part.await(p, mode) || accepted
		if part.err != nil {
			if firstErr == nil {
				firstErr = part.err
				res.Record = part.res.Record
			}
			continue
		}
		if part.op == dsa.OpBatch {
			// A sub-batch parent's record counts its succeeded children.
			completed += part.res.Record.Result
		} else {
			// A lone-descriptor part completed one work descriptor (its
			// Result field carries op-specific data, not a count).
			completed++
		}
	}
	if firstErr == nil {
		res.Record = dsa.CompletionRecord{Status: dsa.StatusSuccess, Result: completed}
	}
	res.Duration = p.Now() - f.start
	f.done, f.res, f.err = true, res, firstErr
	return accepted
}

// batchWait is the shared wait/accounting state of coalesced siblings.
type batchWait struct {
	paid        bool // wait cost charged by the first waiter
	failCounted bool // batch failure counted once toward Stats.Failures
}

// pipeRun is the driver-side state of one in-flight pipeline submission.
type pipeRun struct {
	done bool
	res  Result
	err  error
	sig  sim.Signal
}

// finish resolves the run and wakes every waiter.
func (r *pipeRun) finish(e *sim.Engine, res Result, err error) {
	r.res, r.err = res, err
	r.done = true
	r.sig.Broadcast(e)
}

// resolve decodes the completion record into the memoized result. A
// failed record counts toward Stats.Failures once (coalesced siblings
// share one record) unless the future's owner may still retry it:
// a pipeline chain counts only when its retry budget is spent.
func (f *Future) resolve(dur sim.Time) {
	f.done = true
	f.res, f.err = decode(f.op, f.comp.Record())
	f.res.Hardware, f.res.Duration = true, dur
	if f.err == nil || f.ownerRetries {
		return
	}
	// Coalesced siblings share one record: its failure counts once.
	if sw := f.sharedWait; sw == nil || !sw.failCounted {
		if sw != nil {
			sw.failCounted = true
		}
		f.t.stats.Failures++
	}
}

// decode maps op's completion record to its result fields, or to the
// error its status reports. It is the one decode for device completions
// (Future.resolve) and core runs (dsa.RunOnCore on the software path, the
// FallbackAfter fallback and the SoftCRC32 stage), so an op reports the
// same result and the same wrapped error on every path.
func decode(op dsa.OpType, rec dsa.CompletionRecord) (Result, error) {
	res := Result{Record: rec}
	switch rec.Status {
	case dsa.StatusSuccess:
	case dsa.StatusRecordFull:
		return res, fmt.Errorf("offload: delta record overflow: %w", rec.Err)
	case dsa.StatusDIFError:
		return res, fmt.Errorf("offload: DIF check failed at block %d: %w", rec.Result, rec.Err)
	case dsa.StatusBatchFail:
		return res, fmt.Errorf("offload: batch completed %d descriptors before failing: %w", rec.Result, rec.Err)
	case dsa.StatusPageFault, dsa.StatusWQError, dsa.StatusDeviceOffline:
		return res, faultError(rec)
	default:
		return res, fmt.Errorf("offload: %v: %w", rec.Status, rec.Err)
	}
	switch op {
	case dsa.OpCRCGen, dsa.OpCopyCRC:
		res.CRC = uint32(rec.Result)
	case dsa.OpCompare, dsa.OpComparePattern:
		res.Mismatch = rec.Mismatch
		res.Offset = int64(rec.Result)
	case dsa.OpCreateDelta:
		res.Size = int64(rec.Result)
	}
	return res, nil
}

// completed builds an already-resolved Future (software path and submission
// errors).
func completed(res Result, err error) *Future {
	return &Future{done: true, res: res, err: err}
}
