package offload_test

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

func TestAutoPathRouting(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant() // threshold 4096
	if err != nil {
		t.Fatal(err)
	}
	small, dstS := tn.Alloc(1024), tn.Alloc(1024)
	big, dstB := tn.Alloc(64<<10), tn.Alloc(64<<10)
	r.run(func(p *sim.Proc) {
		for _, op := range []struct {
			dst, src *mem.Buffer
		}{{dstS, small}, {dstB, big}} {
			f, err := tn.Copy(p, op.dst.Addr(0), op.src.Addr(0), op.src.Size)
			if err == nil {
				_, err = f.Wait(p, offload.Poll)
			}
			if err != nil {
				t.Error(err)
			}
		}
	})
	st := tn.Stats()
	if st.SWOps != 1 || st.HWOps != 1 {
		t.Fatalf("routing = %d sw, %d hw; want 1,1", st.SWOps, st.HWOps)
	}
	if st.SWBytes != 1024 || st.HWBytes != 64<<10 {
		t.Fatalf("bytes = %d sw, %d hw", st.SWBytes, st.HWBytes)
	}
}

func TestBatchSubmit(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(4096)
	src, dst := tn.Alloc(n*4), tn.Alloc(n*4)
	sim.NewRand(3).Bytes(src.Bytes())
	crcSrc := tn.Alloc(n)
	sim.NewRand(4).Bytes(crcSrc.Bytes())
	r.run(func(p *sim.Proc) {
		b := tn.NewBatch()
		for i := int64(0); i < 4; i++ {
			b.Copy(dst.Addr(i*n), src.Addr(i*n), n)
		}
		b.CRC32(crcSrc.Addr(0), n, 0)
		if b.Len() != 5 {
			t.Errorf("batch len = %d", b.Len())
		}
		f, err := b.Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := f.Wait(p, offload.Poll)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Record.Result != 5 {
			t.Errorf("batch completed %d of 5", res.Record.Result)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("batch copies incomplete")
	}
	if st := tn.Stats(); st.Batches != 1 || st.HWOps != 1 || st.HWBytes != 5*n {
		t.Fatalf("stats = %d batches, %d hw ops, %d hw bytes; want 1, 1, %d", st.Batches, st.HWOps, st.HWBytes, 5*n)
	}
}

// A one-descriptor batch is submitted plain (the device's ≥2 rule) and
// is not counted as a batch parent.
func TestBatchSingleDescriptorFallsBack(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(4096), tn.Alloc(4096)
	sim.NewRand(5).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.NewBatch().Copy(dst.Addr(0), src.Addr(0), 4096).Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("single-descriptor batch copy incomplete")
	}
	if st := tn.Stats(); st.Batches != 0 || st.HWOps != 1 {
		t.Fatalf("stats = %d batches, %d hw ops; want 0, 1", st.Batches, st.HWOps)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	r.run(func(p *sim.Proc) {
		if _, err := tn.NewBatch().Submit(p); err == nil {
			t.Error("empty batch accepted")
		}
	})
}

// A DIF check over garbage fails on both paths: at Wait on hardware, at
// submission on the core.
func TestDIFErrorSurfaceAsError(t *testing.T) {
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	prot := tn.Alloc(dif.Block512.Protected())
	sim.NewRand(7).Bytes(prot.Bytes())
	tags := dif.Tags{AppTag: 1}
	r.run(func(p *sim.Proc) {
		for _, path := range []offload.Path{offload.Hardware, offload.Software} {
			f, err := tn.DIFCheck(p, prot.Addr(0), prot.Size, dif.Block512, tags, offload.On(path))
			if err == nil {
				_, err = f.Wait(p, offload.Poll)
			}
			if err == nil {
				t.Errorf("path %v: DIF check passed on garbage", path)
			}
		}
	})
	if st := tn.Stats(); st.Failures != 2 {
		t.Fatalf("failures = %d, want 2", st.Failures)
	}
}

// Round-robin over two single-WQ devices alternates between them.
func TestLoadBalancingRoundRobin(t *testing.T) {
	r := newRig(t, 1)
	dev := dsa.New(r.e, r.sys, dsa.DefaultConfig("dsa1", 0))
	if _, err := dev.AddGroup(dsa.GroupConfig{Engines: 4, WQs: []dsa.WQConfig{{Mode: dsa.Dedicated, Size: 32}}}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Enable(); err != nil {
		t.Fatal(err)
	}
	r.devs = append(r.devs, dev)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tn.Alloc(8192), tn.Alloc(8192)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 8192, offload.On(offload.Hardware))
			if err == nil {
				_, err = f.Wait(p, offload.Poll)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if a, b := r.devs[0].Stats().Submitted, r.devs[1].Stats().Submitted; a != 5 || b != 5 {
		t.Fatalf("load balance = %d / %d, want 5 / 5", a, b)
	}
}

func TestServiceRequiresWQs(t *testing.T) {
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets:  1,
		LLC:      mem.LLCConfig{Capacity: 105 << 20},
		NodeDefs: []mem.NodeConfig{{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75}},
	})
	if _, err := offload.NewService(e, sys, nil); err == nil {
		t.Fatal("service without work queues accepted")
	}
}

// tenantRig is a one-device rig with a default-policy tenant.
func tenantRig(t *testing.T) (*rig, *offload.Tenant) {
	t.Helper()
	r := newRig(t, 1)
	tn, err := r.service(t).NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	return r, tn
}

// await(p)(tn.Op(...)) waits on a submitted op, passing a submission
// error through.
func await(p *sim.Proc) func(*offload.Future, error) (offload.Result, error) {
	return func(f *offload.Future, err error) (offload.Result, error) {
		if err != nil {
			return offload.Result{}, err
		}
		return f.Wait(p, offload.Poll)
	}
}

func TestForcedPaths(t *testing.T) {
	r, tn := tenantRig(t)
	src, dst := tn.Alloc(512), tn.Alloc(512)
	r.run(func(p *sim.Proc) {
		if res, err := await(p)(tn.Copy(p, dst.Addr(0), src.Addr(0), 512, offload.On(offload.Hardware))); err != nil || !res.Hardware {
			t.Errorf("forced hardware: %+v, %v", res, err)
		}
		if res, err := await(p)(tn.Copy(p, dst.Addr(0), src.Addr(0), 512, offload.On(offload.Software))); err != nil || res.Hardware {
			t.Errorf("forced software: %+v, %v", res, err)
		}
	})
}

func TestResultsMatchAcrossPaths(t *testing.T) {
	r, tn := tenantRig(t)
	n := int64(32 << 10)
	src := tn.Alloc(n)
	sim.NewRand(1).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		hw, err := await(p)(tn.CRC32(p, src.Addr(0), n, 0, offload.On(offload.Hardware)))
		if err != nil {
			t.Error(err)
			return
		}
		sw, err := await(p)(tn.CRC32(p, src.Addr(0), n, 0, offload.On(offload.Software)))
		if err != nil {
			t.Error(err)
			return
		}
		if hw.CRC != sw.CRC {
			t.Errorf("hardware CRC %#x != software %#x", hw.CRC, sw.CRC)
		}
	})
}

// A 256 KB hardware copy is still in flight right after submission and
// done once Wait returns.
func TestAsyncJob(t *testing.T) {
	r, tn := tenantRig(t)
	n := int64(256 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(2).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		if err != nil {
			t.Error(err)
			return
		}
		if f.Done() {
			t.Error("256KB copy completed instantaneously")
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		if !f.Done() {
			t.Error("future not done after Wait")
		}
	})
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("async copy incomplete")
	}
}

func TestDeltaAndDIFViaTenant(t *testing.T) {
	r, tn := tenantRig(t)
	n := int64(8192)
	orig, mod, record := tn.Alloc(n), tn.Alloc(n), tn.Alloc(n*2)
	sim.NewRand(5).Bytes(orig.Bytes())
	copy(mod.Bytes(), orig.Bytes())
	mod.Bytes()[100] ^= 0xFF

	raw := tn.Alloc(4096)
	prot := tn.Alloc(dif.Block512.Protected() * 8)
	sim.NewRand(6).Bytes(raw.Bytes())
	tags := dif.Tags{AppTag: 3, RefTag: 12, IncrementRef: true}
	hw := offload.On(offload.Hardware)

	r.run(func(p *sim.Proc) {
		res, err := await(p)(tn.CreateDelta(p, record.Addr(0), orig.Addr(0), mod.Addr(0), n, n*2, hw))
		if err != nil {
			t.Error(err)
			return
		}
		if res.Size == 0 {
			t.Error("no delta bytes")
		}
		if _, err := await(p)(tn.ApplyDelta(p, orig.Addr(0), record.Addr(0), res.Size, n, hw)); err != nil {
			t.Error(err)
		}
		if _, err := await(p)(tn.DIFInsert(p, prot.Addr(0), raw.Addr(0), 4096, dif.Block512, tags, hw)); err != nil {
			t.Error(err)
		}
		if _, err := await(p)(tn.DIFCheck(p, prot.Addr(0), prot.Size, dif.Block512, tags, hw)); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(orig.Bytes(), mod.Bytes()) {
		t.Fatal("delta round trip via tenant failed")
	}
}

func TestFillAndCompareViaTenant(t *testing.T) {
	r, tn := tenantRig(t)
	buf := tn.Alloc(16 << 10)
	pat := uint64(0x5A5A5A5A5A5A5A5A)
	hw := offload.On(offload.Hardware)
	r.run(func(p *sim.Proc) {
		if _, err := await(p)(tn.Fill(p, buf.Addr(0), buf.Size, pat, hw)); err != nil {
			t.Error(err)
		}
		res, err := await(p)(tn.ComparePattern(p, buf.Addr(0), buf.Size, pat, hw))
		if err != nil || res.Mismatch {
			t.Errorf("pattern verify: %+v, %v", res, err)
		}
		buf.Bytes()[9999] = 0
		res, err = await(p)(tn.ComparePattern(p, buf.Addr(0), buf.Size, pat, hw))
		if err != nil || !res.Mismatch || res.Offset != 9999 {
			t.Errorf("mismatch detect: %+v, %v", res, err)
		}
	})
}

func TestDualcastViaTenant(t *testing.T) {
	r, tn := tenantRig(t)
	n := int64(8192)
	src, d1, d2 := tn.Alloc(n), tn.Alloc(n), tn.Alloc(n)
	sim.NewRand(8).Bytes(src.Bytes())
	r.run(func(p *sim.Proc) {
		if _, err := await(p)(tn.Dualcast(p, d1.Addr(0), d2.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(d1.Bytes(), src.Bytes()) || !bytes.Equal(d2.Bytes(), src.Bytes()) {
		t.Fatal("dualcast incomplete")
	}
}
