package dsa

import (
	"errors"
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/delta"
	"dsasim/internal/dif"
	"dsasim/internal/isal"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// spansOf enumerates the ranges descriptor d touches into buf (no
// operation touches more than three), so the footprint lives in the
// caller's array and costs no allocation. Destination sizes for
// size-changing operations (DIF, delta) are derived from the transfer size.
// The device prices and fault-checks these ranges; RunOnCore charges a core
// over the same ones.
func spansOf(d *Descriptor, buf *[3]mem.Span) ([]mem.Span, error) {
	switch d.Op {
	case OpDIFInsert, OpDIFCheck, OpDIFStrip, OpDIFUpdate:
		if !d.DIFBlock.Valid() {
			return nil, fmt.Errorf("dsa: invalid DIF block size %d", d.DIFBlock)
		}
	}
	s := d.Size
	spans := buf[:0]
	switch d.Op {
	case OpNop, OpDrain, OpBatch:
		return nil, nil
	case OpMemmove, OpCopyCRC, OpDIFUpdate:
		return append(spans, rd(d.Src, s), wr(d.Dst, s)), nil
	case OpFill:
		return append(spans, wr(d.Dst, s)), nil
	case OpCompare:
		return append(spans, rd(d.Src, s), rd(d.Src2, s)), nil
	case OpComparePattern, OpCRCGen, OpCacheFlush, OpDIFCheck:
		return append(spans, rd(d.Src, s)), nil
	case OpCreateDelta:
		return append(spans, rd(d.Src, s), rd(d.Src2, s), wr(d.Dst, d.MaxDst)), nil
	case OpApplyDelta:
		// Src is the delta record (Size bytes); Dst is the buffer being
		// patched (MaxDst bytes).
		return append(spans, rd(d.Src, s), wr(d.Dst, d.MaxDst)), nil
	case OpDualcast:
		return append(spans, rd(d.Src, s), wr(d.Dst, s), wr(d.Dst2, s)), nil
	case OpDIFInsert:
		return append(spans, rd(d.Src, s), wr(d.Dst, s/int64(d.DIFBlock)*d.DIFBlock.Protected())), nil
	case OpDIFStrip:
		return append(spans, rd(d.Src, s), wr(d.Dst, s/d.DIFBlock.Protected()*int64(d.DIFBlock))), nil
	default:
		return nil, fmt.Errorf("dsa: unsupported opcode %v", d.Op)
	}
}

// rd and wr build a read and a write span.
func rd(a mem.Addr, n int64) mem.Span { return mem.Span{Addr: a, N: n} }
func wr(a mem.Addr, n int64) mem.Span { return mem.Span{Addr: a, N: n, Write: true} }

// coreOps maps each operation with a software baseline to the core routine
// that prices it (Table 1's ISA-L / glibc counterparts, §4.1).
var coreOps = map[OpType]cpu.Op{
	OpMemmove:        cpu.OpMemcpy,
	OpFill:           cpu.OpMemset,
	OpCompare:        cpu.OpMemcmp,
	OpComparePattern: cpu.OpComparePattern,
	OpCRCGen:         cpu.OpCRC32,
	OpCopyCRC:        cpu.OpCopyCRC,
	OpDualcast:       cpu.OpDualcast,
	OpCreateDelta:    cpu.OpDeltaCreate,
	OpApplyDelta:     cpu.OpDeltaApply,
	OpDIFInsert:      cpu.OpDIFInsert,
	OpDIFCheck:       cpu.OpDIFCheck,
	OpDIFStrip:       cpu.OpDIFStrip,
	OpDIFUpdate:      cpu.OpDIFUpdate,
}

// RunOnCore runs d's operation on core c as its software baseline: execute
// moves the bytes with the device's own kernel, and c is charged for the
// op's routine over the device's own footprint (spansOf). It returns the
// completion record the device would write and the modelled duration,
// which c counts as busy and the caller still has to wait out.
//
// The routine reads Size bytes, except a delta create, which reads both of
// its inputs (2×Size) and writes only the record bytes it used; a delta
// apply writes as many bytes as the record holds, not all of MaxDst. A
// failed op charges nothing, except a DIF check that finds a mismatch: it
// has read every block by then. Ops without a routine (nop, drain, batch,
// cache flush) fail with StatusBadOpcode.
func RunOnCore(c *cpu.Core, d *Descriptor) (CompletionRecord, sim.Time) {
	op, ok := coreOps[d.Op]
	if !ok {
		return CompletionRecord{Status: StatusBadOpcode, Err: fmt.Errorf("dsa: %v has no core equivalent", d.Op)}, 0
	}
	var buf [3]mem.Span
	spans, err := spansOf(d, &buf)
	if err != nil {
		return CompletionRecord{Status: StatusError, Err: err}, 0
	}
	rec := execute(c.AS, d, d.Size)
	if rec.Status != StatusSuccess && !(d.Op == OpDIFCheck && rec.Status == StatusDIFError) {
		return rec, 0
	}
	transfer := d.Size
	switch d.Op {
	case OpCreateDelta:
		transfer = 2 * d.Size
		spans[2].N = int64(rec.Result)
	case OpApplyDelta:
		spans[1].N = d.Size
	}
	return rec, c.Charge(op, transfer, spans...)
}

// execute performs descriptor d's operation on address space as, moving real
// bytes, and returns the completion record. upTo limits the bytes processed
// (partial completion after a page fault); pass d.Size for full execution.
func execute(as *mem.AddressSpace, d *Descriptor, upTo int64) CompletionRecord {
	rec := CompletionRecord{Status: StatusSuccess, BytesCompleted: upTo}
	fail := func(err error) CompletionRecord {
		return CompletionRecord{Status: StatusError, Err: err}
	}
	switch d.Op {
	case OpNop, OpDrain, OpCacheFlush:
		// CacheFlush's timing effect is modelled at the LLC level by the
		// engine; there is no byte-level effect to apply here.
		rec.BytesCompleted = 0
		return rec

	case OpMemmove:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(dst[:upTo], src[:upTo])
		return rec

	case OpFill:
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		isal.Fill(dst[:upTo], d.Pattern)
		return rec

	case OpCompare:
		a, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		b, err := as.View(d.Src2, d.Size)
		if err != nil {
			return fail(err)
		}
		off, eq := isal.Compare(a[:upTo], b[:upTo])
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpComparePattern:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		off, eq := isal.ComparePattern(src[:upTo], d.Pattern)
		rec.Mismatch = !eq
		rec.Result = uint64(off)
		return rec

	case OpCRCGen:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		rec.Result = uint64(isal.CRC32(d.CRCSeed, src[:upTo]))
		return rec

	case OpCopyCRC:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(dst[:upTo], src[:upTo])
		rec.Result = uint64(isal.CRC32(d.CRCSeed, src[:upTo]))
		return rec

	case OpDualcast:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		d1, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		d2, err := as.View(d.Dst2, d.Size)
		if err != nil {
			return fail(err)
		}
		copy(d1[:upTo], src[:upTo])
		copy(d2[:upTo], src[:upTo])
		return rec

	case OpCreateDelta:
		orig, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		mod, err := as.View(d.Src2, d.Size)
		if err != nil {
			return fail(err)
		}
		out, err := as.View(d.Dst, d.MaxDst)
		if err != nil {
			return fail(err)
		}
		used, err := delta.Create(out, orig, mod)
		if errors.Is(err, delta.ErrRecordFull) {
			return CompletionRecord{Status: StatusRecordFull, Err: err}
		}
		if err != nil {
			return fail(err)
		}
		rec.Result = uint64(used)
		return rec

	case OpApplyDelta:
		recBytes, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.MaxDst)
		if err != nil {
			return fail(err)
		}
		if err := delta.Apply(dst, recBytes, int(d.Size)); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFInsert:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		out := d.Size / int64(d.DIFBlock) * d.DIFBlock.Protected()
		dst, err := as.View(d.Dst, out)
		if err != nil {
			return fail(err)
		}
		if err := dif.Insert(dst, src, d.DIFBlock, d.DIFTags); err != nil {
			return fail(err)
		}
		return rec

	case OpDIFCheck:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		if err := dif.Check(src, d.DIFBlock, d.DIFTags); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	case OpDIFStrip:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		out := d.Size / d.DIFBlock.Protected() * int64(d.DIFBlock)
		dst, err := as.View(d.Dst, out)
		if err != nil {
			return fail(err)
		}
		if err := dif.Strip(dst, src, d.DIFBlock, d.DIFTags); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	case OpDIFUpdate:
		src, err := as.View(d.Src, d.Size)
		if err != nil {
			return fail(err)
		}
		dst, err := as.View(d.Dst, d.Size)
		if err != nil {
			return fail(err)
		}
		if err := dif.Update(dst, src, d.DIFBlock, d.DIFTags, d.DIFTags2); err != nil {
			var ce *dif.CheckError
			if errors.As(err, &ce) {
				return CompletionRecord{Status: StatusDIFError, Err: err, Result: uint64(ce.Block)}
			}
			return fail(err)
		}
		return rec

	default:
		return CompletionRecord{Status: StatusBadOpcode, Err: fmt.Errorf("dsa: opcode %v", d.Op)}
	}
}
