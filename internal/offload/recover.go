// Fault recovery: the software half of the failure plane. The device
// model reports faults through CompletionRecord.Status (page-fault
// partials, WQ disable windows, whole-device outages — internal/dsa's
// fault injector); this file decides what the service does about them.
// The Future path re-submits the unfinished remainder under
// Policy.RetryMax/RetryBackoff and degrades to the submitting core after
// FallbackAfter consecutive faults; the sharded plane re-queues
// remainders through its rings (plane.go) with the attempt count carried
// in the ring tag. Both paths share remainderOf, which continues
// byte-prefix operations from CompletionRecord.BytesCompleted instead of
// re-running work the device already finished.
package offload

import (
	"errors"
	"fmt"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ErrFaulted is wrapped by results whose hardware execution faulted
// (StatusPageFault) and was not recovered within the retry budget. The
// record's BytesCompleted and FaultAddr say how far the device got.
var ErrFaulted = errors.New("offload: operation faulted")

// ErrDeviceFailed is wrapped by results whose accepting queue or device
// died with the descriptor still queued (StatusWQError /
// StatusDeviceOffline) and recovery did not re-land the work in time.
var ErrDeviceFailed = errors.New("offload: device failed")

// recoverableStatus reports whether a completion status is a fault the
// recovery plane may retry, as opposed to a semantic failure (DIF
// mismatch, delta overflow) that would fail identically on any queue.
func recoverableStatus(s dsa.Status) bool {
	switch s {
	case dsa.StatusPageFault, dsa.StatusWQError, dsa.StatusDeviceOffline:
		return true
	}
	return false
}

// remainderOf returns the descriptor to re-submit after a faulted
// attempt. Byte-prefix operations (copy, fill, dualcast) continue from
// CompletionRecord.BytesCompleted — the partially completed prefix is
// already in place, so only the tail is re-run. Everything else re-runs
// whole: result-producing ops (CRC, compare, delta) accumulate state the
// record does not carry forward, and a queued-but-never-started fault
// (WQ error, outage) completed nothing anyway. The injector faults on
// page boundaries, so a continued fill never splits its 8-byte pattern.
func remainderOf(d dsa.Descriptor, rec dsa.CompletionRecord) dsa.Descriptor {
	done := rec.BytesCompleted
	if done <= 0 || done >= d.Size {
		return d
	}
	switch d.Op {
	case dsa.OpMemmove:
		d.Src += mem.Addr(done)
		d.Dst += mem.Addr(done)
	case dsa.OpFill:
		d.Dst += mem.Addr(done)
	case dsa.OpDualcast:
		d.Src += mem.Addr(done)
		d.Dst += mem.Addr(done)
		d.Dst2 += mem.Addr(done)
	default:
		return d
	}
	d.Size -= done
	return d
}

// retryFault is the one recovery decision, shared by Future.Wait, the
// plane's completion hook and the pipeline chain re-run. It reports
// whether status is a recoverable fault — counting it toward Stats.Faults
// and the service's fault stream — and whether an operation already
// retried prior times may be re-submitted within Policy.RetryMax.
func (t *Tenant) retryFault(status dsa.Status, prior int) (fault, retry bool) {
	if !recoverableStatus(status) {
		return false, false
	}
	t.stats.faults.Add(1)
	t.S.met.fault()
	return true, prior < t.policy.RetryMax
}

// retried counts one re-submission recovery issued.
func (t *Tenant) retried() {
	t.stats.retries.Add(1)
	t.S.met.retry()
}

// recover is the Future-path recovery loop, run by Future.Wait after the
// completion record lands and before it is decoded: while the record
// reports a recoverable fault and the retry budget lasts, re-submit the
// remainder (through the scheduler, which routes around unhealthy WQs)
// and wait again. After Policy.FallbackAfter consecutive faults the
// remainder runs on the submitting core instead — bounded worst-case
// latency under a fault storm — which resolves the future directly. A
// zero RetryMax disables recovery, the fallback included.
func (t *Tenant) recover(p *sim.Proc, f *Future, mode WaitMode) {
	for prior := 0; ; prior++ {
		rec := f.comp.Record()
		fault, retry := t.retryFault(rec.Status, prior)
		if !fault || t.policy.RetryMax <= 0 {
			return
		}
		rem := remainderOf(f.d, rec)
		if fa := t.policy.FallbackAfter; fa > 0 && prior+1 >= fa && t.fallback(p, f, rem) {
			return
		}
		if !retry {
			return // budget spent: resolve() surfaces the sentinel
		}
		if t.policy.RetryBackoff > 0 {
			p.Sleep(sim.Time(t.policy.RetryBackoff))
		}
		nf, err := t.submitChain(p, chain{descs: []dsa.Descriptor{rem}})
		if err != nil {
			return // resubmission refused: the faulted record stands
		}
		t.retried()
		f.cl, f.comp, f.d = nf.cl, nf.comp, nf.d
		f.cl.Wait(p, f.comp, mode)
	}
}

// fallback finishes the remainder of a faulted operation on the
// submitting core, resolving the future as a software completion whose
// Duration spans the whole operation — faulted hardware attempts
// included. Returns false for ops outside the fallback set — copies,
// fills, dualcasts, CRCs and compares; delta and DIF ops keep to the
// hardware retry loop.
func (t *Tenant) fallback(p *sim.Proc, f *Future, rem dsa.Descriptor) bool {
	switch rem.Op {
	case dsa.OpMemmove, dsa.OpFill, dsa.OpDualcast, dsa.OpCRCGen, dsa.OpCopyCRC,
		dsa.OpCompare, dsa.OpComparePattern:
	default:
		return false
	}
	rec, dur := dsa.RunOnCore(t.Core, &rem)
	res, err := decode(rem.Op, rec)
	if err != nil {
		return false // core path refused: let the hardware fault surface
	}
	t.coreDone(p, &res, dur, rem.Size, f.start)
	t.stats.fallbacks.Add(1)
	t.S.met.fallback()
	f.done, f.res, f.err = true, res, nil
	return true
}

// faultError maps a faulted terminal record to its sentinel-wrapped
// error. Shared by the Future resolve path and the pipeline driver so
// errors.Is(err, ErrFaulted/ErrDeviceFailed) holds wherever the fault
// surfaces; the device-level cause (dsa.ErrWQDisabled,
// dsa.ErrDeviceOffline, a mem page-fault error) stays wrapped alongside.
func faultError(rec dsa.CompletionRecord) error {
	switch rec.Status {
	case dsa.StatusPageFault:
		if rec.Err != nil {
			return fmt.Errorf("offload: page fault at %#x after %d bytes (%w): %w",
				uint64(rec.FaultAddr), rec.BytesCompleted, ErrFaulted, rec.Err)
		}
		return fmt.Errorf("offload: page fault at %#x after %d bytes: %w",
			uint64(rec.FaultAddr), rec.BytesCompleted, ErrFaulted)
	case dsa.StatusWQError, dsa.StatusDeviceOffline:
		if rec.Err != nil {
			return fmt.Errorf("offload: %v (%w): %w", rec.Status, ErrDeviceFailed, rec.Err)
		}
		return fmt.Errorf("offload: %v: %w", rec.Status, ErrDeviceFailed)
	}
	return nil
}
