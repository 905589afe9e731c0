package dsa

import (
	"bytes"
	"errors"
	"testing"

	"dsasim/internal/cpu"
	"dsasim/internal/delta"
	"dsasim/internal/dif"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

const (
	coreN       = int64(4 << 10)
	corePattern = uint64(0x0123456789ABCDEF)
	coreSeed    = uint32(0x1EDC6F41)
)

var (
	coreTags  = dif.Tags{AppTag: 7, RefTag: 100, IncrementRef: true}
	coreTags2 = dif.Tags{AppTag: 9, RefTag: 300, IncrementRef: true}
)

// coreFixture is one op's operands on a fresh rig, so every run starts
// cache-cold with idle memory: src holds coreN seeded random bytes, mod is
// src with two bytes flipped, pat is the pattern with one byte flipped,
// prot is src DIF-protected under coreTags, rec holds the src→mod delta
// record (recLen bytes), and dst/dst2 are zeroed outputs.
type coreFixture struct {
	r                                   *rig
	core                                *cpu.Core
	src, mod, pat, prot, rec, dst, dst2 *mem.Buffer
	recLen                              int64
}

func newCoreFixture(t *testing.T) *coreFixture {
	t.Helper()
	r := newRig(t)
	f := &coreFixture{
		r:    r,
		core: cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel()),
		src:  r.alloc(coreN),
		mod:  r.alloc(coreN),
		pat:  r.alloc(coreN),
		prot: r.alloc(coreN / int64(dif.Block512) * dif.Block512.Protected()),
		rec:  r.alloc(2 * coreN),
		dst:  r.alloc(2 * coreN),
		dst2: r.alloc(coreN),
	}
	sim.NewRand(41).Bytes(f.src.Bytes())
	copy(f.mod.Bytes(), f.src.Bytes())
	f.mod.Bytes()[1000] ^= 0xA5
	f.mod.Bytes()[3000] ^= 0x5A
	pat := f.pat.Bytes()
	for i := range pat {
		pat[i] = byte(corePattern >> (8 * (i % 8)))
	}
	pat[2000] ^= 0xFF
	if err := dif.Insert(f.prot.Bytes(), f.src.Bytes(), dif.Block512, coreTags); err != nil {
		t.Fatal(err)
	}
	used, err := delta.Create(f.rec.Bytes(), f.src.Bytes(), f.mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f.recLen = int64(used)
	return f
}

// coreCase is one operation with a core equivalent: its descriptor over a
// fixture, the buffers it writes, and cold, RunOnCore's duration on a
// fresh fixture. The cold values were recorded from the per-op cpu.Core
// routines RunOnCore replaced (Memcpy, Memset, Memcmp, ComparePattern,
// CRC32, CopyCRC, Dualcast, DeltaCreate, DeltaApply and the four DIF
// routines) on the same fixtures, so they pin that the core is charged
// exactly what those routines charged.
type coreCase struct {
	name string
	desc func(f *coreFixture) Descriptor
	out  func(f *coreFixture) []*mem.Buffer
	cold sim.Time // ns
}

func coreDst(f *coreFixture) []*mem.Buffer { return []*mem.Buffer{f.dst} }
func coreNone(*coreFixture) []*mem.Buffer  { return nil }

var coreCases = []coreCase{
	{"memmove", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpMemmove, Src: f.src.Addr(0), Dst: f.dst.Addr(0), Size: coreN}
	}, coreDst, 1280},
	{"fill", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpFill, Dst: f.dst.Addr(0), Size: coreN, Pattern: corePattern}
	}, coreDst, 841},
	{"compare", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpCompare, Src: f.src.Addr(0), Src2: f.mod.Addr(0), Size: coreN}
	}, coreNone, 1486},
	{"compare_pattern", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpComparePattern, Src: f.pat.Addr(0), Size: coreN, Pattern: corePattern}
	}, coreNone, 890},
	{"crc_gen", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpCRCGen, Src: f.src.Addr(0), Size: coreN, CRCSeed: coreSeed}
	}, coreNone, 1010},
	{"copy_crc", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpCopyCRC, Src: f.src.Addr(0), Dst: f.dst.Addr(0), Size: coreN, CRCSeed: coreSeed}
	}, coreDst, 1572},
	{"dualcast", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpDualcast, Src: f.src.Addr(0), Dst: f.dst.Addr(0), Dst2: f.dst2.Addr(0), Size: coreN}
	}, func(f *coreFixture) []*mem.Buffer { return []*mem.Buffer{f.dst, f.dst2} }, 2060},
	{"create_delta", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpCreateDelta, Src: f.src.Addr(0), Src2: f.mod.Addr(0), Dst: f.dst.Addr(0), Size: coreN, MaxDst: f.dst.Size}
	}, coreDst, 2710},
	{"apply_delta", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpApplyDelta, Src: f.rec.Addr(0), Dst: f.src.Addr(0), Size: f.recLen, MaxDst: coreN}
	}, func(f *coreFixture) []*mem.Buffer { return []*mem.Buffer{f.src} }, 126},
	{"dif_insert", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpDIFInsert, Src: f.src.Addr(0), Dst: f.dst.Addr(0), Size: coreN, DIFBlock: dif.Block512, DIFTags: coreTags}
	}, coreDst, 1781},
	{"dif_check", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpDIFCheck, Src: f.prot.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: coreTags}
	}, coreNone, 1422},
	{"dif_strip", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpDIFStrip, Src: f.prot.Addr(0), Dst: f.dst.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: coreTags}
	}, coreDst, 1586},
	{"dif_update", func(f *coreFixture) Descriptor {
		return Descriptor{Op: OpDIFUpdate, Src: f.prot.Addr(0), Dst: f.dst.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: coreTags, DIFTags2: coreTags2}
	}, coreDst, 1926},
}

// TestRunOnCoreMatchesDevice pins one definition per op: for every op with
// a core equivalent, RunOnCore and the device write the same bytes and the
// same completion record, and RunOnCore charges the core what the op's
// cpu.Core routine charged before it.
func TestRunOnCoreMatchesDevice(t *testing.T) {
	if len(coreCases) != len(coreOps) {
		t.Fatalf("%d cases for %d ops with a core equivalent", len(coreCases), len(coreOps))
	}
	for _, c := range coreCases {
		t.Run(c.name, func(t *testing.T) {
			hw := newCoreFixture(t)
			d := c.desc(hw)
			if d.Op.String() != c.name {
				t.Fatalf("case %s builds a %v descriptor", c.name, d.Op)
			}
			d.PASID = hw.r.as.PASID
			hwRec := hw.r.runSync(t, d)

			sw := newCoreFixture(t)
			swRec, dur := RunOnCore(sw.core, ptr(c.desc(sw)))
			if swRec.Status != StatusSuccess || hwRec.Status != StatusSuccess {
				t.Fatalf("status: core %v (%v), device %v (%v)", swRec.Status, swRec.Err, hwRec.Status, hwRec.Err)
			}
			if swRec.Result != hwRec.Result || swRec.Mismatch != hwRec.Mismatch || swRec.BytesCompleted != hwRec.BytesCompleted {
				t.Errorf("core record {result %#x mismatch %v bytes %d}, device {result %#x mismatch %v bytes %d}",
					swRec.Result, swRec.Mismatch, swRec.BytesCompleted, hwRec.Result, hwRec.Mismatch, hwRec.BytesCompleted)
			}
			hwOut, swOut := c.out(hw), c.out(sw)
			for i := range hwOut {
				if !bytes.Equal(swOut[i].Bytes(), hwOut[i].Bytes()) {
					t.Errorf("output %d differs between core and device", i)
				}
			}
			if dur != c.cold || sw.core.BusyTime() != c.cold {
				t.Errorf("cold duration %d ns (busy %d ns), want %d ns", dur, sw.core.BusyTime(), c.cold)
			}
		})
	}
}

func ptr(d Descriptor) *Descriptor { return &d }

// TestRunOnCoreFailureCharges pins what a failed core run costs: a DIF
// check reads every block before it reports a mismatch, so it is charged
// in full; a DIF strip or update that fails, a delta record that
// overflows, an unmapped buffer and an op without a core routine charge
// nothing. The errors stay matchable.
func TestRunOnCoreFailureCharges(t *testing.T) {
	bad := dif.Tags{AppTag: 8, RefTag: 100, IncrementRef: true}
	cases := []struct {
		name   string
		desc   func(f *coreFixture) Descriptor
		status Status
		cold   sim.Time // ns
	}{
		{"dif_check", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpDIFCheck, Src: f.prot.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: bad}
		}, StatusDIFError, 1422},
		{"dif_strip", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpDIFStrip, Src: f.prot.Addr(0), Dst: f.dst.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: bad}
		}, StatusDIFError, 0},
		{"dif_update", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpDIFUpdate, Src: f.prot.Addr(0), Dst: f.dst.Addr(0), Size: f.prot.Size, DIFBlock: dif.Block512, DIFTags: bad, DIFTags2: coreTags2}
		}, StatusDIFError, 0},
		{"create_delta", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpCreateDelta, Src: f.src.Addr(0), Src2: f.pat.Addr(0), Dst: f.dst.Addr(0), Size: coreN, MaxDst: 64}
		}, StatusRecordFull, 0},
		{"unmapped", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpMemmove, Src: f.src.Addr(0), Dst: 0x10, Size: coreN}
		}, StatusError, 0},
		{"cache_flush", func(f *coreFixture) Descriptor {
			return Descriptor{Op: OpCacheFlush, Src: f.src.Addr(0), Size: coreN}
		}, StatusBadOpcode, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newCoreFixture(t)
			rec, dur := RunOnCore(f.core, ptr(c.desc(f)))
			if rec.Status != c.status || rec.Err == nil {
				t.Fatalf("status %v (%v), want %v with an error", rec.Status, rec.Err, c.status)
			}
			if dur != c.cold || f.core.BusyTime() != c.cold {
				t.Errorf("charged %d ns (busy %d ns), want %d ns", dur, f.core.BusyTime(), c.cold)
			}
			var ce *dif.CheckError
			if c.status == StatusDIFError && !errors.As(rec.Err, &ce) {
				t.Errorf("DIF failure %v is not a *dif.CheckError", rec.Err)
			}
			if c.status == StatusRecordFull && !errors.Is(rec.Err, delta.ErrRecordFull) {
				t.Errorf("overflow %v is not delta.ErrRecordFull", rec.Err)
			}
		})
	}
}

// TestOpFactorsOrderingOnCore: a dualcast writes two destinations, so on
// the core it runs slower than a copy of the same size.
func TestOpFactorsOrderingOnCore(t *testing.T) {
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	n := int64(256 << 10)
	a, b, c2 := r.alloc(n), r.alloc(n), r.alloc(n)
	dCopy, err := core.Memcpy(b.Addr(0), a.Addr(0), n)
	if err != nil {
		t.Fatal(err)
	}
	rec, dDual := RunOnCore(core, &Descriptor{Op: OpDualcast, Src: a.Addr(0), Dst: b.Addr(0), Dst2: c2.Addr(0), Size: n})
	if rec.Status != StatusSuccess {
		t.Fatal(rec.Err)
	}
	if dDual <= dCopy {
		t.Fatalf("dualcast %v not slower than memcpy %v", dDual, dCopy)
	}
}

func TestCRCAndCompareResults(t *testing.T) {
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	a, b := r.alloc(1024), r.alloc(1024)
	sim.NewRand(9).Bytes(a.Bytes())
	copy(b.Bytes(), a.Bytes())

	crc, _, err := core.CRC32(a.Addr(0), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	crc2, _, _ := core.CRC32(b.Addr(0), 1024, 0)
	if crc != crc2 {
		t.Fatal("CRC of identical buffers differs")
	}
	if rec, _ := RunOnCore(core, &Descriptor{Op: OpCRCGen, Src: a.Addr(0), Size: 1024}); uint32(rec.Result) != crc {
		t.Fatalf("crc_gen on the core = %#x, CRC32 = %#x", rec.Result, crc)
	}
	cmp := &Descriptor{Op: OpCompare, Src: a.Addr(0), Src2: b.Addr(0), Size: 1024}
	if rec, _ := RunOnCore(core, cmp); rec.Status != StatusSuccess || rec.Mismatch {
		t.Fatalf("compare of identical buffers: %v mismatch=%v", rec.Status, rec.Mismatch)
	}
	b.Bytes()[17] ^= 1
	if rec, _ := RunOnCore(core, cmp); !rec.Mismatch || rec.Result != 17 {
		t.Fatalf("compare = (%d,%v), want (17,true)", rec.Result, rec.Mismatch)
	}
}

func TestDIFRoundTripOnCore(t *testing.T) {
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	raw := r.alloc(4096)
	prot := r.alloc(dif.Block512.Protected() * 8)
	out := r.alloc(4096)
	sim.NewRand(11).Bytes(raw.Bytes())
	tags := dif.Tags{AppTag: 7, RefTag: 3, IncrementRef: true}

	for _, d := range []Descriptor{
		{Op: OpDIFInsert, Src: raw.Addr(0), Dst: prot.Addr(0), Size: 4096},
		{Op: OpDIFCheck, Src: prot.Addr(0), Size: prot.Size},
		{Op: OpDIFStrip, Src: prot.Addr(0), Dst: out.Addr(0), Size: prot.Size},
	} {
		d.DIFBlock, d.DIFTags = dif.Block512, tags
		if rec, _ := RunOnCore(core, &d); rec.Status != StatusSuccess {
			t.Fatalf("%v: %v (%v)", d.Op, rec.Status, rec.Err)
		}
	}
	if !bytes.Equal(out.Bytes(), raw.Bytes()) {
		t.Fatal("DIF round trip lost data")
	}
}

func TestDeltaOnCore(t *testing.T) {
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	orig, mod, rec := r.alloc(1024), r.alloc(1024), r.alloc(2048)
	sim.NewRand(13).Bytes(orig.Bytes())
	copy(mod.Bytes(), orig.Bytes())
	mod.Bytes()[64] ^= 0xFF

	cr, _ := RunOnCore(core, &Descriptor{Op: OpCreateDelta, Src: orig.Addr(0), Src2: mod.Addr(0), Dst: rec.Addr(0), Size: 1024, MaxDst: 2048})
	if cr.Status != StatusSuccess {
		t.Fatal(cr.Err)
	}
	ar, _ := RunOnCore(core, &Descriptor{Op: OpApplyDelta, Src: rec.Addr(0), Dst: orig.Addr(0), Size: int64(cr.Result), MaxDst: 1024})
	if ar.Status != StatusSuccess {
		t.Fatal(ar.Err)
	}
	if !bytes.Equal(orig.Bytes(), mod.Bytes()) {
		t.Fatal("delta round trip failed")
	}
}

// TestRunOnCoreZeroAllocs: a 4 KB software copy through the descriptor
// path allocates nothing — the footprint lives on the stack and the core
// caches its LLC owner tag.
func TestRunOnCoreZeroAllocs(t *testing.T) {
	r := newRig(t)
	core := cpu.NewCore(0, 0, r.sys, r.as, cpu.SPRModel())
	src, dst := r.alloc(coreN), r.alloc(coreN)
	d := &Descriptor{Op: OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: coreN}
	if n := testing.AllocsPerRun(1000, func() {
		if rec, _ := RunOnCore(core, d); rec.Status != StatusSuccess {
			t.Fatal(rec.Err)
		}
	}); n != 0 {
		t.Fatalf("RunOnCore 4 KB copy allocates %.1f/op, want 0", n)
	}
}
