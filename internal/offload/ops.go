package offload

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// The op table. Every operation's descriptor is built in one place below,
// whichever front end issues it: the constructors serve the Tenant
// methods, the Batch builder and the Pipeline stages (which leave the
// addresses zero and bind them from Refs); ops only a Tenant issues build
// theirs inline. The device runs the descriptor, or dsa.RunOnCore runs it
// on the submitting core through the same kernel and footprint, and decode
// reads the completion record either way, so an op's hardware, software
// and fallback semantics live in one place.

func memmoveOp(dst, src mem.Addr, n int64) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpMemmove, Src: src, Dst: dst, Size: n}
}

func fillOp(dst mem.Addr, n int64, pattern uint64) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpFill, Dst: dst, Size: n, Pattern: pattern}
}

func compareOp(a, b mem.Addr, n int64) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpCompare, Src: a, Src2: b, Size: n}
}

func crcOp(src mem.Addr, n int64, seed uint32) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpCRCGen, Src: src, Size: n, CRCSeed: seed}
}

func copyCRCOp(dst, src mem.Addr, n int64, seed uint32) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpCopyCRC, Src: src, Dst: dst, Size: n, CRCSeed: seed}
}

func dualcastOp(dst1, dst2, src mem.Addr, n int64) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpDualcast, Src: src, Dst: dst1, Dst2: dst2, Size: n}
}

func createDeltaOp(record, orig, mod mem.Addr, n, maxRecord int64) dsa.Descriptor {
	return dsa.Descriptor{Op: dsa.OpCreateDelta, Src: orig, Src2: mod, Dst: record, Size: n, MaxDst: maxRecord}
}

func difOp(op dsa.OpType, dst, src mem.Addr, n int64, bs dif.BlockSize, tags, tags2 dif.Tags) dsa.Descriptor {
	return dsa.Descriptor{Op: op, Src: src, Dst: dst, Size: n, DIFBlock: bs, DIFTags: tags, DIFTags2: tags2}
}

// Copy moves n bytes from src to dst.
func (t *Tenant) Copy(p *sim.Proc, dst, src mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, memmoveOp(dst, src, n), opts)
}

// Fill writes the repeating 8-byte pattern over n bytes at dst.
func (t *Tenant) Fill(p *sim.Proc, dst mem.Addr, n int64, pattern uint64, opts ...OpOption) (*Future, error) {
	return t.do(p, fillOp(dst, n, pattern), opts)
}

// Compare checks n bytes at a and b for equality.
func (t *Tenant) Compare(p *sim.Proc, a, b mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, compareOp(a, b, n), opts)
}

// ComparePattern checks n bytes at src against the repeating pattern.
func (t *Tenant) ComparePattern(p *sim.Proc, src mem.Addr, n int64, pattern uint64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpComparePattern, Src: src, Size: n, Pattern: pattern}, opts)
}

// CRC32 computes the seeded CRC-32 of n bytes at src.
func (t *Tenant) CRC32(p *sim.Proc, src mem.Addr, n int64, seed uint32, opts ...OpOption) (*Future, error) {
	return t.do(p, crcOp(src, n, seed), opts)
}

// CopyCRC copies n bytes and returns the CRC-32 of the data.
func (t *Tenant) CopyCRC(p *sim.Proc, dst, src mem.Addr, n int64, seed uint32, opts ...OpOption) (*Future, error) {
	return t.do(p, copyCRCOp(dst, src, n, seed), opts)
}

// Dualcast copies n bytes from src to both destinations.
func (t *Tenant) Dualcast(p *sim.Proc, dst1, dst2, src mem.Addr, n int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dualcastOp(dst1, dst2, src, n), opts)
}

// CreateDelta writes a delta record of orig→mod differences into record.
func (t *Tenant) CreateDelta(p *sim.Proc, record, orig, mod mem.Addr, n, maxRecord int64, opts ...OpOption) (*Future, error) {
	return t.do(p, createDeltaOp(record, orig, mod, n, maxRecord), opts)
}

// ApplyDelta replays a recordLen-byte delta record onto dst (dstLen bytes).
func (t *Tenant) ApplyDelta(p *sim.Proc, dst, record mem.Addr, recordLen, dstLen int64, opts ...OpOption) (*Future, error) {
	return t.do(p, dsa.Descriptor{Op: dsa.OpApplyDelta, Src: record, Dst: dst, Size: recordLen, MaxDst: dstLen}, opts)
}

// DIFInsert generates protected blocks from n raw bytes at src.
func (t *Tenant) DIFInsert(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, difOp(dsa.OpDIFInsert, dst, src, n, bs, tags, dif.Tags{}), opts)
}

// DIFCheck verifies n protected bytes at src.
func (t *Tenant) DIFCheck(p *sim.Proc, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, difOp(dsa.OpDIFCheck, 0, src, n, bs, tags, dif.Tags{}), opts)
}

// DIFStrip verifies and removes protection information.
func (t *Tenant) DIFStrip(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, tags dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, difOp(dsa.OpDIFStrip, dst, src, n, bs, tags, dif.Tags{}), opts)
}

// DIFUpdate rewrites protection information from old to new tags.
func (t *Tenant) DIFUpdate(p *sim.Proc, dst, src mem.Addr, n int64, bs dif.BlockSize, old, new dif.Tags, opts ...OpOption) (*Future, error) {
	return t.do(p, difOp(dsa.OpDIFUpdate, dst, src, n, bs, old, new), opts)
}

// do issues one op: on hardware as a one-node chain when forced or at
// least the effective (possibly pressure-adapted) G2 threshold; into the
// AutoBatcher when an Auto-path copy or fill falls below it (G1 over G2:
// batching amortizes the offload overhead that otherwise makes a small
// transfer a core job, Fig 3; only ops without a result value coalesce);
// otherwise on the core.
func (t *Tenant) do(p *sim.Proc, d dsa.Descriptor, opts []OpOption) (*Future, error) {
	var c submitCfg
	for _, o := range opts {
		o(&c)
	}
	if c.path == Hardware || c.path != Software && d.Size >= t.EffectiveThreshold() {
		return t.submitChain(p, chain{descs: []dsa.Descriptor{d}, admit: true})
	}
	if c.path == Auto && !c.noBatch && t.policy.AutoBatch > 0 && (d.Op == dsa.OpMemmove || d.Op == dsa.OpFill) {
		d.Flags = t.policy.Flags
		return t.Batcher().add(p, d)
	}
	return t.runSW(p, d)
}

// runSW is the software path: run d on the core and return an already
// resolved Future, charging the core time. A delta create reads both of
// its inputs, so it counts 2n software bytes.
func (t *Tenant) runSW(p *sim.Proc, d dsa.Descriptor) (*Future, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("offload: %w", ErrTenantClosed)
	}
	start := p.Now()
	rec, dur := dsa.RunOnCore(t.Core, &d)
	res, err := decode(d.Op, rec)
	if err != nil {
		t.stats.failures.Add(1)
		t.settle(dur, false)
		res.Duration = dur
		return completed(res, err), err
	}
	bytes := d.Size
	if d.Op == dsa.OpCreateDelta {
		bytes *= 2
	}
	t.coreDone(p, &res, dur, bytes, start)
	t.settle(res.Duration, true)
	return completed(res, nil), nil
}

// coreDone charges a finished core run: the core is busy for dur, the run
// counts toward the software stats, and the result carries the op's
// latency since start.
func (t *Tenant) coreDone(p *sim.Proc, res *Result, dur sim.Time, bytes int64, start sim.Time) {
	p.Sleep(dur)
	t.stats.swOps.Add(1)
	t.stats.swBytes.Add(bytes)
	res.Duration = p.Now() - start
}
