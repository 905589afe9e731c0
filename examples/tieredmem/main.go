// Tieredmem: guideline G4 in practice — a tiered-memory manager demoting
// cold pages from DRAM to CXL-attached memory and promoting hot ones back,
// comparing core-driven page migration (load/store copies that saturate the
// LSQ on CXL, §5) against DSA batch offload through the offload service.
// Tier placement uses the tenant allocator's node selection (AllocOn), so
// the migrator never touches the platform memory system directly.
//
// Migrations ride the SPR-Placement platform: one DSA per socket and the
// data-home-aware Placement scheduler, so each batch lands on the device
// local to the pages it moves — and a mixed-home flush (the final row) is
// split into per-socket sub-batches that run on both devices in parallel.
package main

import (
	"fmt"

	"dsasim"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

const (
	pages    = 256
	pageSize = int64(2 << 20) // migrate 2MB huge pages
)

// migrate moves n pages between tiers — page i from nodes(i)'s first node
// to its second — and returns the total virtual time.
func migrate(useDSA bool, nodes func(i int) (src, dst int)) sim.Time {
	pl, err := dsasim.NewPlatform(dsasim.SPRPlacement())
	if err != nil {
		panic(err)
	}
	// Page migration is background traffic: declare it Bulk so a QoS-aware
	// scheduler would keep it off any reserved WQ, and let the adaptive
	// threshold shed sub-threshold stragglers to the core if the device
	// saturates mid-migration.
	pol := offload.DefaultPolicy()
	pol.AdaptiveThreshold = true
	tn := pl.NewTenant(offload.WithClass(offload.Bulk), offload.TenantPolicy(pol))

	src := make([]*mem.Buffer, pages)
	dst := make([]*mem.Buffer, pages)
	for i := range src {
		from, to := nodes(i)
		src[i] = tn.AllocOn(from, pageSize, mem.WithPageSize(mem.Page2M))
		dst[i] = tn.AllocOn(to, pageSize, mem.WithPageSize(mem.Page2M))
		sim.NewRand(uint64(i)).Bytes(src[i].Bytes()[:64])
	}

	var elapsed sim.Time
	pl.Run(func(p *sim.Proc) {
		start := p.Now()
		if useDSA {
			// Batch 32 page copies per batch descriptor, pipelined (G1+G2).
			// The placement scheduler routes each flush — or each of its
			// per-socket sub-batches — to the device local to its pages.
			const batch = 32
			var futs []*offload.Future
			for base := 0; base < pages; base += batch {
				b := tn.NewBatch()
				for i := base; i < base+batch && i < pages; i++ {
					b.Copy(dst[i].Addr(0), src[i].Addr(0), pageSize)
				}
				f, err := b.Submit(p)
				if err != nil {
					panic(err)
				}
				futs = append(futs, f)
				if len(futs) > 4 {
					if _, err := futs[0].Wait(p, offload.Poll); err != nil {
						panic(err)
					}
					futs = futs[1:]
				}
			}
			for _, f := range futs {
				if _, err := f.Wait(p, offload.Poll); err != nil {
					panic(err)
				}
			}
		} else {
			for i := range src {
				f, err := tn.Copy(p, dst[i].Addr(0), src[i].Addr(0), pageSize, offload.On(offload.Software))
				if err != nil {
					panic(err)
				}
				if _, err := f.Wait(p, offload.Poll); err != nil {
					panic(err)
				}
			}
		}
		elapsed = p.Now() - start
	})

	// Verify the migration moved real bytes.
	for i := range src {
		for j := 0; j < 64; j++ {
			if dst[i].Bytes()[j] != src[i].Bytes()[j] {
				panic("page corrupted during migration")
			}
		}
	}
	return elapsed
}

func main() {
	total := int64(pages) * pageSize
	fmt.Printf("migrating %d x 2MB pages (%d MB total) between memory tiers\n\n", pages, total>>20)
	fmt.Printf("%-28s %12s %12s %8s\n", "direction", "CPU", "DSA", "speedup")
	uniform := func(from, to int) func(int) (int, int) {
		return func(int) (int, int) { return from, to }
	}
	for _, dir := range []struct {
		name  string
		nodes func(i int) (int, int)
	}{
		{"DRAM -> CXL (demote)", uniform(0, 2)},
		{"CXL -> DRAM (promote)", uniform(2, 0)},
		{"DRAM -> remote DRAM", uniform(0, 1)},
		// A realistic rebalance cycle mixes homes in one flush: even pages
		// demote socket-0 DRAM to CXL while odd pages compact within
		// socket-1 DRAM. The placement scheduler splits each batch across
		// both devices.
		{"mixed demote + rebalance", func(i int) (int, int) {
			if i%2 == 0 {
				return 0, 2
			}
			return 1, 1
		}},
	} {
		cpu := migrate(false, dir.nodes)
		dsa := migrate(true, dir.nodes)
		fmt.Printf("%-28s %12v %12v %7.1fx\n", dir.name, cpu, dsa, float64(cpu)/float64(dsa))
	}
	fmt.Println("\npromotion beats demotion on DSA: CXL reads are faster than CXL writes (G4)")
	fmt.Println("the mixed flush splits per socket, so both devices migrate in parallel (G4)")
}
