package offload_test

import (
	"bytes"
	"errors"
	"testing"

	"dsasim/internal/delta"
	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// opBufs are one op-table run's operands: src holds seeded random bytes,
// mod is src with two bytes flipped, pat is src's size filled with the
// test pattern except one byte, prot is src DIF-protected under difTags,
// rec is the src→mod delta record (recLen bytes used), and dst/dst2 are
// zeroed outputs large enough for every op.
type opBufs struct {
	src, mod, pat, prot, rec, dst, dst2 *mem.Buffer
	recLen                              int64
}

const (
	opN       = int64(16 << 10)
	opPattern = uint64(0x0123456789ABCDEF)
	opSeed    = uint32(0x1EDC6F41)
)

var (
	difTags  = dif.Tags{AppTag: 7, RefTag: 100, IncrementRef: true}
	difTags2 = dif.Tags{AppTag: 9, RefTag: 300, IncrementRef: true}
)

// opCase is one row of the Tenant op table: how to issue the op, which
// buffers it writes, and whether fault recovery can finish it on the core.
type opCase struct {
	name     string
	fallback bool // the op has a software fallback under FallbackAfter
	outputs  func(b *opBufs) []*mem.Buffer
	issue    func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error)
	// want, when set, is what every output must start with on every path.
	want func(b *opBufs) []byte
}

func dstOnly(b *opBufs) []*mem.Buffer { return []*mem.Buffer{b.dst} }
func noOutput(*opBufs) []*mem.Buffer  { return nil }
func srcBytes(b *opBufs) []byte       { return b.src.Bytes() }

var opTable = []opCase{
	{"Copy", true, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.Copy(p, b.dst.Addr(0), b.src.Addr(0), opN, o)
	}, srcBytes},
	{"Fill", true, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.Fill(p, b.dst.Addr(0), opN, opPattern, o)
	}, func(b *opBufs) []byte {
		want := append([]byte(nil), b.pat.Bytes()...)
		want[5000] ^= 0xFF
		return want
	}},
	{"Compare", true, noOutput, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.Compare(p, b.src.Addr(0), b.mod.Addr(0), opN, o)
	}, nil},
	{"ComparePattern", true, noOutput, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.ComparePattern(p, b.pat.Addr(0), opN, opPattern, o)
	}, nil},
	{"CRC32", true, noOutput, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.CRC32(p, b.src.Addr(0), opN, opSeed, o)
	}, nil},
	{"CopyCRC", true, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.CopyCRC(p, b.dst.Addr(0), b.src.Addr(0), opN, opSeed, o)
	}, srcBytes},
	{"Dualcast", true, func(b *opBufs) []*mem.Buffer { return []*mem.Buffer{b.dst, b.dst2} },
		func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.Dualcast(p, b.dst.Addr(0), b.dst2.Addr(0), b.src.Addr(0), opN, o)
		}, srcBytes},
	{"CreateDelta", false, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.CreateDelta(p, b.dst.Addr(0), b.src.Addr(0), b.mod.Addr(0), opN, b.dst.Size, o)
	}, func(b *opBufs) []byte { return b.rec.Bytes()[:b.recLen] }},
	{"ApplyDelta", false, func(b *opBufs) []*mem.Buffer { return []*mem.Buffer{b.src} },
		func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.ApplyDelta(p, b.src.Addr(0), b.rec.Addr(0), b.recLen, opN, o)
		}, func(b *opBufs) []byte { return b.mod.Bytes() }},
	{"DIFInsert", false, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.DIFInsert(p, b.dst.Addr(0), b.src.Addr(0), opN, dif.Block512, difTags, o)
	}, func(b *opBufs) []byte { return b.prot.Bytes() }},
	{"DIFCheck", false, noOutput, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.DIFCheck(p, b.prot.Addr(0), b.prot.Size, dif.Block512, difTags, o)
	}, nil},
	{"DIFStrip", false, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.DIFStrip(p, b.dst.Addr(0), b.prot.Addr(0), b.prot.Size, dif.Block512, difTags, o)
	}, srcBytes},
	{"DIFUpdate", false, dstOnly, func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
		return tn.DIFUpdate(p, b.dst.Addr(0), b.prot.Addr(0), b.prot.Size, dif.Block512, difTags, difTags2, o)
	}, nil},
}

// opOutcome is what an op-table run produced: the op-specific result
// fields and the bytes of every buffer the op writes.
type opOutcome struct {
	crc      uint32
	mismatch bool
	offset   int64
	size     int64
	hardware bool
	out      [][]byte
	stats    offload.Stats
}

// runOp issues one op-table row on a fresh single-device rig. faults arms
// a fault storm (every 4 KB page faults) under a FallbackAfter 1 policy,
// so the first hardware fault finishes the op on the core.
func runOp(t *testing.T, c opCase, o offload.OpOption, faults bool) opOutcome {
	t.Helper()
	r := newRig(t, 1)
	pol := offload.DefaultPolicy()
	if faults {
		if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{Seed: 5, PageFaultPer4K: 1}); err != nil {
			t.Fatal(err)
		}
		pol.RetryMax, pol.FallbackAfter = 1, 1
	}
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	b := newOpBufs(t, tn)

	var out opOutcome
	r.run(func(p *sim.Proc) {
		f, err := c.issue(p, tn, b, o)
		if err != nil {
			t.Errorf("%s: submit: %v", c.name, err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Errorf("%s: wait: %v", c.name, err)
			return
		}
		out.crc, out.mismatch, out.offset, out.size, out.hardware = res.CRC, res.Mismatch, res.Offset, res.Size, res.Hardware
	})
	for i, buf := range c.outputs(b) {
		if c.want != nil {
			if want := c.want(b); !bytes.Equal(buf.Bytes()[:len(want)], want) {
				t.Errorf("%s: output %d does not hold the expected bytes", c.name, i)
			}
		}
		out.out = append(out.out, append([]byte(nil), buf.Bytes()...))
	}
	out.stats = tn.Stats()
	return out
}

// newOpBufs allocates and seeds one op-table run's operands in tn's
// address space.
func newOpBufs(t *testing.T, tn *offload.Tenant) *opBufs {
	t.Helper()
	protLen := opN / int64(dif.Block512) * dif.Block512.Protected()
	b := &opBufs{
		src:  tn.Alloc(opN),
		mod:  tn.Alloc(opN),
		pat:  tn.Alloc(opN),
		prot: tn.Alloc(protLen),
		rec:  tn.Alloc(2 * opN),
		dst:  tn.Alloc(2 * opN),
		dst2: tn.Alloc(opN),
	}
	sim.NewRand(41).Bytes(b.src.Bytes())
	copy(b.mod.Bytes(), b.src.Bytes())
	b.mod.Bytes()[1000] ^= 0xA5
	b.mod.Bytes()[9000] ^= 0x5A
	pat := b.pat.Bytes()
	for i := range pat {
		pat[i] = byte(opPattern >> (8 * (i % 8)))
	}
	pat[5000] ^= 0xFF
	if err := dif.Insert(b.prot.Bytes(), b.src.Bytes(), dif.Block512, difTags); err != nil {
		t.Fatal(err)
	}
	used, err := delta.Create(b.rec.Bytes(), b.src.Bytes(), b.mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b.recLen = int64(used)
	return b
}

// TestOpTableMatchesAcrossPaths pins every Tenant op's semantics across
// execution paths: the hardware path, the software path, and — for the
// ops with a software equivalent — the fault-recovery fallback must agree
// on every result field and on every byte written.
func TestOpTableMatchesAcrossPaths(t *testing.T) {
	for _, c := range opTable {
		t.Run(c.name, func(t *testing.T) {
			hw := runOp(t, c, offload.On(offload.Hardware), false)
			sw := runOp(t, c, offload.On(offload.Software), false)
			if !hw.hardware || sw.hardware {
				t.Fatalf("paths: hardware run Hardware=%v, software run Hardware=%v", hw.hardware, sw.hardware)
			}
			if hw.stats.HWOps != 1 || sw.stats.SWOps != 1 {
				t.Fatalf("accounting: hw run HWOps=%d, sw run SWOps=%d", hw.stats.HWOps, sw.stats.SWOps)
			}
			switch c.name {
			case "Compare":
				if !hw.mismatch || hw.offset != 1000 {
					t.Fatalf("compare: mismatch=%v at %d, want true at 1000", hw.mismatch, hw.offset)
				}
			case "ComparePattern":
				if !hw.mismatch || hw.offset != 5000 {
					t.Fatalf("pattern compare: mismatch=%v at %d, want true at 5000", hw.mismatch, hw.offset)
				}
			case "CreateDelta":
				if hw.size == 0 {
					t.Fatal("delta record is empty")
				}
			}
			runs := map[string]opOutcome{"software": sw}
			if c.fallback {
				fb := runOp(t, c, offload.On(offload.Hardware), true)
				if fb.stats.Fallbacks != 1 || fb.hardware {
					t.Fatalf("fallback run: Fallbacks=%d Hardware=%v, want 1 and false", fb.stats.Fallbacks, fb.hardware)
				}
				runs["fallback"] = fb
			}
			for name, got := range runs {
				if got.crc != hw.crc || got.mismatch != hw.mismatch || got.offset != hw.offset || got.size != hw.size {
					t.Errorf("%s result {crc %#x mismatch %v offset %d size %d}, hardware {crc %#x mismatch %v offset %d size %d}",
						name, got.crc, got.mismatch, got.offset, got.size, hw.crc, hw.mismatch, hw.offset, hw.size)
				}
				for i := range hw.out {
					if !bytes.Equal(got.out[i], hw.out[i]) {
						t.Errorf("%s output %d differs from hardware", name, i)
					}
				}
			}
		})
	}
}

// TestOpTableFailuresMatchAcrossPaths pins that a failing op reports the
// same matchable error on the hardware and the software path, and counts
// one failure on either: a delta record overflow wraps
// delta.ErrRecordFull, and a DIF mismatch carries a *dif.CheckError.
func TestOpTableFailuresMatchAcrossPaths(t *testing.T) {
	bad := dif.Tags{AppTag: 8, RefTag: 100, IncrementRef: true}
	recordFull := func(err error) bool { return errors.Is(err, delta.ErrRecordFull) }
	checkError := func(err error) bool {
		var ce *dif.CheckError
		return errors.As(err, &ce)
	}
	cases := []struct {
		name  string
		issue func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error)
		match func(error) bool
	}{
		{"CreateDeltaOverflow", func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.CreateDelta(p, b.dst.Addr(0), b.src.Addr(0), b.pat.Addr(0), opN, 64, o)
		}, recordFull},
		{"DIFCheckMismatch", func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.DIFCheck(p, b.prot.Addr(0), b.prot.Size, dif.Block512, bad, o)
		}, checkError},
		{"DIFStripMismatch", func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.DIFStrip(p, b.dst.Addr(0), b.prot.Addr(0), b.prot.Size, dif.Block512, bad, o)
		}, checkError},
		{"DIFUpdateMismatch", func(p *sim.Proc, tn *offload.Tenant, b *opBufs, o offload.OpOption) (*offload.Future, error) {
			return tn.DIFUpdate(p, b.dst.Addr(0), b.prot.Addr(0), b.prot.Size, dif.Block512, bad, difTags2, o)
		}, checkError},
	}
	for _, c := range cases {
		for _, path := range []struct {
			name string
			p    offload.Path
		}{{"Hardware", offload.Hardware}, {"Software", offload.Software}} {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				r := newRig(t, 1)
				tn, err := r.service(t).NewTenant()
				if err != nil {
					t.Fatal(err)
				}
				b := newOpBufs(t, tn)
				var got error
				r.run(func(p *sim.Proc) {
					f, err := c.issue(p, tn, b, offload.On(path.p))
					if err == nil {
						_, err = f.Wait(p, offload.Poll)
					}
					got = err
				})
				if !c.match(got) {
					t.Errorf("error %v does not match its cause", got)
				}
				if n := tn.Stats().Failures; n != 1 {
					t.Errorf("Failures = %d, want 1", n)
				}
			})
		}
	}
}
