package offload_test

import (
	"bytes"
	"testing"

	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// Regression: a fenced chain must never be split into per-socket
// sub-batches, even when LoadAware routing is pricing a saturated home
// socket — a fence orders descriptors across the WHOLE batch, which two
// independent devices cannot honor.
func TestFencedChainUnsplitUnderSaturatedSocket(t *testing.T) {
	pol := offload.DefaultPolicy()
	pol.LoadAware = true
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()), offload.WithPolicy(pol))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	// The fenced chain's data straddles sockets: an unfenced version of
	// this flush WOULD split (that's asserted below).
	a := tn.AllocOn(0, n)
	b := tn.AllocOn(0, n)
	c := tn.AllocOn(1, n)
	sim.NewRand(6).Bytes(a.Bytes())
	busySrc := tn.AllocOn(0, n)
	busyDst := tn.AllocOn(0, n)

	r.run(func(p *sim.Proc) {
		// Saturate socket 0's device so load-aware routing has every
		// incentive to move work off it.
		var futs []*offload.Future
		for i := 0; i < 24; i++ {
			f, err := tn.Copy(p, busyDst.Addr(0), busySrc.Addr(0), n, offload.On(offload.Hardware))
			if err != nil {
				t.Error(err)
				return
			}
			futs = append(futs, f)
		}
		// a→b on socket 0, FENCE, b→c onto socket 1: the second copy
		// reads the first one's output, so splitting is a correctness
		// bug, not a tuning choice.
		f, err := tn.NewBatch().Copy(b.Addr(0), a.Addr(0), n).Fence().Copy(c.Addr(0), b.Addr(0), n).Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				t.Error(err)
			}
		}
	})
	if got := tn.Stats().Splits; got != 0 {
		t.Errorf("fenced chain produced %d sub-batches, want 0", got)
	}
	if !bytes.Equal(c.Bytes(), a.Bytes()) {
		t.Error("fence ordering lost across the chain")
	}
}

// Counterpart sanity: the SAME mixed-home flush without the fence does
// split — proving the test above exercises the fence suppression, not a
// flush that would never have sharded anyway.
func TestUnfencedMixedHomeChainStillSplits(t *testing.T) {
	r := newRig(t, 2)
	svc := r.service(t, offload.WithScheduler(offload.NewPlacement()))
	tn, err := svc.NewTenant(offload.OnSocket(0))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64 << 10)
	a := tn.AllocOn(0, n)
	b := tn.AllocOn(0, n)
	c := tn.AllocOn(1, n)
	d := tn.AllocOn(1, n)
	sim.NewRand(7).Bytes(a.Bytes())
	sim.NewRand(8).Bytes(c.Bytes())
	r.run(func(p *sim.Proc) {
		f, err := tn.NewBatch().
			Copy(b.Addr(0), a.Addr(0), n).
			Copy(d.Addr(0), c.Addr(0), n).
			Submit(p)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Wait(p, offload.Poll); err != nil {
			t.Error(err)
		}
	})
	if got := tn.Stats().Splits; got != 2 {
		t.Fatalf("mixed-home unfenced flush produced %d sub-batches, want 2", got)
	}
	if !bytes.Equal(b.Bytes(), a.Bytes()) || !bytes.Equal(d.Bytes(), c.Bytes()) {
		t.Fatal("split flush dropped data")
	}
}
