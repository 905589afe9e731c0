// Quickstart: build an SPR platform, create an offload tenant, and run the
// basic DSA operations through the unified offload API — futures for every
// operation, policy-driven path selection, explicit batches, and the
// transparent AutoBatcher — printing the modelled timings.
package main

import (
	"fmt"

	"dsasim"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

func main() {
	pl, err := dsasim.NewPlatform(dsasim.SPR())
	if err != nil {
		panic(err)
	}
	tn := pl.NewTenant()

	const n = 1 << 20
	src := tn.Alloc(n)
	dst := tn.Alloc(n)
	sim.NewRand(1).Bytes(src.Bytes())

	pl.Run(func(p *sim.Proc) {
		// Synchronous copy: submit and wait. The policy picks DSA for 1 MB
		// (≥ the G2 threshold).
		fut, err := tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			panic(err)
		}
		res, err := fut.Wait(p, offload.Poll)
		if err != nil {
			panic(err)
		}
		fmt.Printf("sync copy 1MB:      %-12v hardware=%v\n", res.Duration, res.Hardware)

		// Small copy: routed to the core per guideline G2. The future is
		// already resolved when it returns.
		fut, err = tn.Copy(p, dst.Addr(0), src.Addr(0), 1024)
		if err != nil {
			panic(err)
		}
		res, _ = fut.Wait(p, offload.Poll)
		fmt.Printf("sync copy 1KB:      %-12v hardware=%v\n", res.Duration, res.Hardware)

		// CRC32 on both paths gives bit-identical results.
		hwF, _ := tn.CRC32(p, src.Addr(0), n, 0, offload.On(offload.Hardware))
		hw, _ := hwF.Wait(p, offload.Poll)
		swF, _ := tn.CRC32(p, src.Addr(0), n, 0, offload.On(offload.Software))
		sw, _ := swF.Wait(p, offload.Poll)
		fmt.Printf("crc32 hw=%08x sw=%08x match=%v (hw %v vs sw %v)\n",
			hw.CRC, sw.CRC, hw.CRC == sw.CRC, hw.Duration, sw.Duration)

		// Asynchronous offload: submit, do other work, then wait — in any
		// completion mode (Poll, UMWait, Interrupt).
		fut, err = tn.Copy(p, dst.Addr(0), src.Addr(0), n)
		if err != nil {
			panic(err)
		}
		fmt.Printf("async submitted; core free while DSA copies (done=%v)\n", fut.Done())
		if _, err := fut.Wait(p, offload.UMWait); err != nil {
			panic(err)
		}

		// Explicit batch: eight 4KB copies in one batch descriptor (G1).
		b := tn.NewBatch()
		for i := int64(0); i < 8; i++ {
			b.Copy(dst.Addr(i*4096), src.Addr(i*4096), 4096)
		}
		bf, err := b.Submit(p)
		if err != nil {
			panic(err)
		}
		bres, err := bf.Wait(p, offload.Poll)
		if err != nil {
			panic(err)
		}
		fmt.Printf("batch of 8x4KB:     %-12v completed=%d\n", bres.Duration, bres.Record.Result)

		// AutoBatcher: with coalescing enabled, sub-threshold copies queue
		// transparently and flush as one batch — G1 applied as policy
		// instead of hand-built batches.
		pol := tn.Policy()
		pol.AutoBatch = 16
		tn.SetPolicy(pol)
		var futs []*offload.Future
		start := p.Now()
		for i := int64(0); i < 16; i++ {
			f, err := tn.Copy(p, dst.Addr(i*1024), src.Addr(i*1024), 1024)
			if err != nil {
				panic(err)
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			if _, err := f.Wait(p, offload.Poll); err != nil {
				panic(err)
			}
		}
		fmt.Printf("auto-batch 16x1KB:  %-12v coalesced=%d\n", p.Now()-start, tn.Stats().Coalesce)
	})

	st := pl.Devices[0].Stats()
	fmt.Printf("device counters: %d descriptors, %d bytes read, %d bytes written\n",
		st.Completed, st.BytesRead, st.BytesWritten)
	fmt.Printf("scheduler: %s over %d WQs\n", pl.Offload.Scheduler().Name(), len(pl.Offload.WQs()))
}
