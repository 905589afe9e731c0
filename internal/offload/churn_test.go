package offload_test

// Tenant churn: fleet-scale services retire and replace tenants while
// operations are still in flight. These tests pin the lifecycle contract
// Close promises — queued work flushes, in-flight futures stay waitable
// (including under interrupt coalescing, whose last window must still
// deliver for a closed tenant), and every later submission path fails
// with ErrTenantClosed.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

func TestCloseWithInflightFuturesUnderCoalescing(t *testing.T) {
	r := newRig(t, 1)
	svc := r.service(t)
	pol := offload.DefaultPolicy()
	pol.Wait = offload.Interrupt
	pol.CoalesceCount = 4
	pol.CoalesceWindow = 8 * time.Microsecond
	pol.AutoBatch = 4
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)
	small := int64(1 << 10)

	r.run(func(p *sim.Proc) {
		var futs []*offload.Future
		// Hardware copies left in flight across Close.
		for i := 0; i < 6; i++ {
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		// Sub-threshold Auto copies queued unflushed in the AutoBatcher:
		// Close must flush them so their futures are not stranded.
		for i := 0; i < 3; i++ {
			f, err := tn.Copy(p, dst.Addr(small), src.Addr(small), small)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		if err := tn.Close(p); err != nil {
			t.Fatalf("Close with in-flight futures: %v", err)
		}
		if !tn.Closed() {
			t.Fatal("Closed() false after Close")
		}
		if err := tn.Close(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("second Close = %v, want ErrTenantClosed", err)
		}
		// Every submission path is shut: hardware, software, pipeline.
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware)); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("hardware Copy after Close = %v, want ErrTenantClosed", err)
		}
		if _, err := tn.Copy(p, dst.Addr(0), src.Addr(0), small, offload.NoBatch()); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("software Copy after Close = %v, want ErrTenantClosed", err)
		}
		pl := tn.NewPipeline()
		pl.CRC32(offload.At(src.Addr(0)), n, 0)
		if _, err := pl.Submit(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("pipeline Submit after Close = %v, want ErrTenantClosed", err)
		}
		// The in-flight and flushed futures all still resolve.
		for i, f := range futs {
			if _, err := f.Wait(p, offload.Interrupt); err != nil {
				t.Fatalf("future %d after Close: %v", i, err)
			}
		}
	})
}

func TestPlaneCloseDetachesRingsForSuccessor(t *testing.T) {
	r := newRig(t, 1, dsa.WQConfig{Mode: dsa.Shared, Size: 32})
	svc := r.service(t)
	tn, err := svc.NewTenant(offload.WithClass(offload.Bulk))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tn.NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(32 << 10)
	src, dst := tn.Alloc(n), tn.Alloc(n)

	var lats []sim.Time
	pl.OnCompletion(func(lat sim.Time, ok bool) { lats = append(lats, lat) })

	r.run(func(p *sim.Proc) {
		lane := pl.Lane(0)
		arrival := p.Now()
		p.Sleep(3 * time.Microsecond)
		for i := 0; i < 4; i++ {
			err := lane.SubmitStamped(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n,
			}, arrival)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.Close(); err == nil {
			t.Fatal("Close with work outstanding succeeded")
		}
		pl.WaitInflight(p, 0)
		if len(lats) != 4 {
			t.Fatalf("observer saw %d completions, want 4", len(lats))
		}
		// Stamped latency spans arrival→record, so it includes the 3µs
		// the submitter sat on the ops before submitting.
		for _, lat := range lats {
			if lat < 3*time.Microsecond {
				t.Fatalf("stamped latency %v shorter than the pre-submit delay", lat)
			}
		}
		if err := tn.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := lane.Submit(p, dsa.Descriptor{
			Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n,
		}); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("lane Submit after Close = %v, want ErrTenantClosed", err)
		}
		if err := pl.Close(); err != nil {
			t.Fatalf("drained plane Close: %v", err)
		}
		// A replacement tenant attaches its own plane over the same WQs.
		tn2, err := svc.NewTenant(offload.WithClass(offload.Bulk))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn2.NewPlane(1); err != nil {
			t.Fatalf("successor NewPlane after Close: %v", err)
		}
	})
}

// Tenant retirement racing the recovery plane: one tenant closes while
// its fused pipeline is mid-fault-retry inside a page-fault storm, and a
// second tenant's submission plane rides a whole-device outage through
// drain failover at the same instant. Close's contract must hold under
// fire — the in-flight future stays waitable and resolves through the
// retry, the failed-over plane drains fully, and every post-close
// submission path still reports ErrTenantClosed.
func TestCloseRacesFaultingPipelineWithFailover(t *testing.T) {
	r := newRig(t, 2, dsa.WQConfig{Mode: dsa.Shared, Size: 16})
	if _, err := r.devs[0].InjectFaults(dsa.FaultConfig{
		Seed:    31,
		Bursts:  []dsa.FaultBurst{{At: 0, Dur: sim.Time(4 * time.Microsecond), Per4K: 1}},
		Outages: []dsa.Outage{{At: sim.Time(10 * time.Microsecond), Dur: sim.Time(60 * time.Microsecond)}},
	}); err != nil {
		t.Fatal(err)
	}
	svc := r.service(t)
	pol := offload.DefaultPolicy()
	pol.RetryMax = 3
	pol.RetryBackoff = 3 * time.Microsecond
	ptn, err := svc.NewTenant(offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	btn, err := svc.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(32 << 10)
	psrc, pdst := ptn.Alloc(n), ptn.Alloc(n)
	sim.NewRand(5).Bytes(psrc.Bytes())
	big := int64(256 << 10)
	bsrc, bdst := btn.Alloc(24*big), btn.Alloc(24*big)

	pl := ptn.NewPipeline()
	tmp := pl.Scratch(n)
	s1 := pl.Copy(tmp, offload.At(psrc.Addr(0)), n)
	pl.Copy(offload.At(pdst.Addr(0)), tmp, n, offload.After(s1))

	plane, err := btn.NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	var done, failed int
	plane.OnCompletion(func(lat sim.Time, ok bool) {
		if ok {
			done++
		} else {
			failed++
		}
	})

	r.run(func(p *sim.Proc) {
		// The chain submits into the storm: its first attempt faults and
		// the retry is pending when Close lands.
		f, err := pl.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ptn.Close(p); err != nil {
			t.Fatalf("Close with a faulting chain in flight: %v", err)
		}
		if _, err := pl.Submit(p); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("pipeline Submit after Close = %v, want ErrTenantClosed", err)
		}
		// Meanwhile the bulk tenant's plane runs head-on into the outage.
		lane := plane.Lane(0)
		for i := int64(0); i < 24; i++ {
			if err := lane.SubmitStamped(p, dsa.Descriptor{
				Op: dsa.OpMemmove, Src: bsrc.Addr(i * big), Dst: bdst.Addr(i * big), Size: big,
			}, p.Now()); err != nil {
				t.Fatalf("plane submit %d: %v", i, err)
			}
		}
		// The closed tenant's future still resolves — through the retry.
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Fatalf("closed tenant's in-flight chain: %v", err)
		}
		plane.WaitInflight(p, 0)
		if err := btn.Close(p); err != nil {
			t.Fatalf("bulk Close after failover drain: %v", err)
		}
		if err := lane.Submit(p, dsa.Descriptor{
			Op: dsa.OpMemmove, Src: bsrc.Addr(0), Dst: bdst.Addr(0), Size: big,
		}); !errors.Is(err, offload.ErrTenantClosed) {
			t.Fatalf("lane Submit after Close = %v, want ErrTenantClosed", err)
		}
	})
	if !bytes.Equal(pdst.Bytes(), psrc.Bytes()) {
		t.Fatal("closed tenant's recovered chain is not byte-correct")
	}
	if st := ptn.Stats(); st.Retries == 0 {
		t.Fatalf("pipeline tenant retries=%d, want nonzero (the storm covers attempt 1)", st.Retries)
	}
	if st := btn.Stats(); st.Failovers == 0 {
		t.Fatalf("bulk tenant failovers=%d, want >=1", st.Failovers)
	}
	if done+failed != 24 {
		t.Fatalf("plane accounted %d+%d completions, want 24", done, failed)
	}
}

// TestSLOBudgetAccounting pins the one outcome rule across front ends:
// every accepted, caller-visible operation settles exactly once, as SLOOk
// when it succeeded within budget and SLOMiss when it failed. Internal
// waits (pipeline chains, split-batch parts) do not settle, and an
// attempt recovery retried successfully is not a failure.
func TestSLOBudgetAccounting(t *testing.T) {
	const n = int64(64 << 10)
	hwCopy := func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
		src, dst := tn.Alloc(n), tn.Alloc(n)
		f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n, offload.On(offload.Hardware))
		waitTwice(t, p, f, err)
	}
	cases := []struct {
		name      string
		sockets   int
		placement bool             // data-aware scheduler, so batches split by home
		faults    *dsa.FaultConfig // injected on every device
		recovery  bool             // RetryMax 3 with a 3µs backoff
		budget    time.Duration    // SLOBudget; zero means one second
		run       func(t *testing.T, p *sim.Proc, tn *offload.Tenant)
		ok, miss  int64
		failures  int64
	}{
		{name: "hardware op", run: hwCopy, ok: 1},
		{name: "late hardware op", budget: time.Nanosecond, run: hwCopy, miss: 1},
		{name: "software op", run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			src, dst := tn.Alloc(256), tn.Alloc(256)
			f, err := tn.Copy(p, dst.Addr(0), src.Addr(0), 256, offload.On(offload.Software))
			waitTwice(t, p, f, err)
		}, ok: 1},
		{name: "hardware DIF failure", run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			if difCheckGarbage(p, tn, offload.Hardware) == nil {
				t.Error("DIF check passed on garbage")
			}
		}, miss: 1, failures: 1},
		{name: "software DIF failure", run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			if difCheckGarbage(p, tn, offload.Software) == nil {
				t.Error("DIF check passed on garbage")
			}
		}, miss: 1, failures: 1},
		{name: "split batch", sockets: 2, placement: true, run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			b := tn.NewBatch()
			for node := 0; node < 2; node++ {
				b.Copy(tn.AllocOn(node, n).Addr(0), tn.AllocOn(node, n).Addr(0), n)
				b.Copy(tn.AllocOn(node, n).Addr(0), tn.AllocOn(node, n).Addr(0), n)
			}
			f, err := b.Submit(p)
			waitTwice(t, p, f, err)
			if got := tn.Stats().Splits; got != 2 {
				t.Errorf("Splits = %d, want 2 (the batch must split for this case to mean anything)", got)
			}
		}, ok: 1},
		{name: "two-chain pipeline", run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			src, dst := tn.Alloc(n), tn.Alloc(n)
			pl := tn.NewPipeline()
			tmp := pl.Scratch(n)
			in := pl.Copy(tmp, offload.At(src.Addr(0)), n)
			crc := pl.Exec(offload.SoftCRC32{}, offload.Ref{}, tmp, n, 0, offload.After(in))
			pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(crc))
			f, err := pl.Submit(p)
			waitTwice(t, p, f, err)
		}, ok: 1},
		{name: "recovered pipeline", recovery: true,
			faults: &dsa.FaultConfig{Seed: 23, Bursts: []dsa.FaultBurst{{At: 0, Dur: sim.Time(2 * time.Microsecond), Per4K: 1}}},
			run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
				src, dst := tn.Alloc(n), tn.Alloc(n)
				pl := tn.NewPipeline()
				tmp := pl.Scratch(n)
				in := pl.Copy(tmp, offload.At(src.Addr(0)), n)
				pl.Copy(offload.At(dst.Addr(0)), tmp, n, offload.After(in))
				f, err := pl.Submit(p)
				waitTwice(t, p, f, err)
				if got := tn.Stats().Retries; got == 0 {
					t.Error("no chain retry: the storm must fault the first attempt")
				}
			}, ok: 1},
		{name: "plane success", run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
			planeCopy(t, p, tn, n)
		}, ok: 1},
		{name: "plane terminal failure", faults: &dsa.FaultConfig{Seed: 3, PageFaultPer4K: 1},
			run: func(t *testing.T, p *sim.Proc, tn *offload.Tenant) {
				planeCopy(t, p, tn, n)
			}, miss: 1, failures: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, max(tc.sockets, 1))
			if tc.faults != nil {
				for _, dev := range r.devs {
					if _, err := dev.InjectFaults(*tc.faults); err != nil {
						t.Fatal(err)
					}
				}
			}
			var opts []offload.ServiceOption
			if tc.placement {
				opts = append(opts, offload.WithScheduler(offload.NewPlacement()))
			}
			pol := offload.DefaultPolicy()
			if tc.recovery {
				pol = recoveryPolicy(3, 3*time.Microsecond, 0)
			}
			pol.SLOBudget = time.Second
			if tc.budget > 0 {
				pol.SLOBudget = tc.budget
			}
			tn, err := r.service(t, opts...).NewTenant(offload.TenantPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
			r.run(func(p *sim.Proc) { tc.run(t, p, tn) })
			if s := tn.Stats(); s.SLOOk != tc.ok || s.SLOMiss != tc.miss || s.Failures != tc.failures {
				t.Fatalf("ok=%d miss=%d failures=%d, want %d/%d/%d",
					s.SLOOk, s.SLOMiss, s.Failures, tc.ok, tc.miss, tc.failures)
			}
		})
	}
}

// difCheckGarbage runs a DIF check over random bytes on path and returns
// its error, from submission (software) or Wait (hardware).
func difCheckGarbage(p *sim.Proc, tn *offload.Tenant, path offload.Path) error {
	prot := tn.Alloc(dif.Block512.Protected())
	sim.NewRand(7).Bytes(prot.Bytes())
	f, err := tn.DIFCheck(p, prot.Addr(0), prot.Size, dif.Block512, dif.Tags{AppTag: 1}, offload.On(path))
	if err == nil {
		_, err = f.Wait(p, offload.Poll)
	}
	return err
}

// waitTwice waits on a submitted op twice: the second Wait returns the
// memoized result and must not settle the op again.
func waitTwice(t *testing.T, p *sim.Proc, f *offload.Future, err error) {
	for i := 0; err == nil && i < 2; i++ {
		_, err = f.Wait(p, offload.Poll)
	}
	if err != nil {
		t.Error(err)
	}
}

// planeCopy submits one copy through a one-lane plane and drains it.
func planeCopy(t *testing.T, p *sim.Proc, tn *offload.Tenant, n int64) {
	pl, err := tn.NewPlane(1)
	if err != nil {
		t.Error(err)
		return
	}
	src, dst := tn.Alloc(n), tn.Alloc(n)
	if err := pl.Lane(0).Submit(p, dsa.Descriptor{Op: dsa.OpMemmove, Src: src.Addr(0), Dst: dst.Addr(0), Size: n}); err != nil {
		t.Error(err)
	}
	pl.WaitInflight(p, 0)
}
