package cpu

import (
	"bytes"
	"testing"
	"time"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

func testRig(t *testing.T) (*sim.Engine, *mem.System, *Core) {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 2,
		LLC:     mem.LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: mem.CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
	})
	as := mem.NewAddressSpace(1)
	core := NewCore(0, 0, sys, as, SPRModel())
	return e, sys, core
}

func TestCurveInterpolation(t *testing.T) {
	c := Curve{{256, 1}, {1024, 3}, {4096, 5}}
	if got := c.At(100); got != 1 {
		t.Fatalf("below range = %v, want clamp to 1", got)
	}
	if got := c.At(100000); got != 5 {
		t.Fatalf("above range = %v, want clamp to 5", got)
	}
	if got := c.At(512); got <= 1 || got >= 3 {
		t.Fatalf("midpoint = %v, want in (1,3)", got)
	}
	if got := c.At(1024); got != 3 {
		t.Fatalf("anchor = %v, want 3", got)
	}
	// Monotone between anchors.
	prev := 0.0
	for n := int64(256); n <= 4096; n *= 2 {
		v := c.At(n)
		if v < prev {
			t.Fatalf("curve not monotone at %d: %v < %v", n, v, prev)
		}
		prev = v
	}
}

func TestMemcpyFunctionalAndTimed(t *testing.T) {
	_, _, core := testRig(t)
	node := core.Sys.Node(0)
	src := core.AS.Alloc(4096, mem.OnNode(node))
	dst := core.AS.Alloc(4096, mem.OnNode(node))
	sim.NewRand(3).Bytes(src.Bytes())

	d, err := core.Memcpy(dst.Addr(0), src.Addr(0), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("Memcpy did not copy bytes")
	}
	// Calibration anchor: cold 4KB memcpy ≈ 1.2µs + access latency.
	if d < 800*time.Nanosecond || d > 2*time.Microsecond {
		t.Fatalf("cold 4KB memcpy = %v, want ~1.2µs", d)
	}
	if core.BusyTime() != d {
		t.Fatalf("BusyTime = %v, want %v", core.BusyTime(), d)
	}
}

func TestColdBandwidthGrowsWithSize(t *testing.T) {
	_, _, core := testRig(t)
	node := core.Sys.Node(0)
	prev := 0.0
	for _, n := range []int64{256, 4096, 65536, 1 << 20} {
		src := core.AS.Alloc(n, mem.OnNode(node))
		dst := core.AS.Alloc(n, mem.OnNode(node))
		d, err := core.Memcpy(dst.Addr(0), src.Addr(0), n)
		if err != nil {
			t.Fatal(err)
		}
		bw := sim.Rate(n, d)
		if bw <= prev {
			t.Fatalf("effective bandwidth not increasing: %v GB/s at %d bytes (prev %v)", bw, n, prev)
		}
		prev = bw
	}
	// Large-copy plateau ~10.5 GB/s (Fig 2 CPU baseline).
	if prev < 8 || prev > 13 {
		t.Fatalf("1MB cold copy bandwidth = %.1f GB/s, want ~10.5", prev)
	}
}

func TestWarmBuffersFaster(t *testing.T) {
	_, _, core := testRig(t)
	node := core.Sys.Node(0)
	n := int64(4096)
	cold1 := core.AS.Alloc(n, mem.OnNode(node))
	cold2 := core.AS.Alloc(n, mem.OnNode(node))
	warm1 := core.AS.Alloc(n, mem.OnNode(node))
	warm2 := core.AS.Alloc(n, mem.OnNode(node))
	warm1.CacheResident = true
	warm2.CacheResident = true

	dCold, _ := core.Memcpy(cold2.Addr(0), cold1.Addr(0), n)
	dWarm, _ := core.Memcpy(warm2.Addr(0), warm1.Addr(0), n)
	if dWarm >= dCold {
		t.Fatalf("warm copy %v not faster than cold %v", dWarm, dCold)
	}
}

func TestRemoteAndCXLPenalties(t *testing.T) {
	_, _, core := testRig(t)
	local := core.Sys.Node(0)
	remote := core.Sys.Node(1)
	cxl := core.Sys.Node(2)
	n := int64(64 << 10)

	mk := func(node *mem.Node) (mem.Addr, mem.Addr) {
		s := core.AS.Alloc(n, mem.OnNode(node))
		d := core.AS.Alloc(n, mem.OnNode(local))
		return d.Addr(0), s.Addr(0)
	}
	dl, sl := mk(local)
	tLocal, _ := core.Memcpy(dl, sl, n)
	dr, sr := mk(remote)
	tRemote, _ := core.Memcpy(dr, sr, n)
	dc, sc := mk(cxl)
	tCXL, _ := core.Memcpy(dc, sc, n)

	if tRemote <= tLocal {
		t.Fatalf("remote copy %v not slower than local %v", tRemote, tLocal)
	}
	if tCXL <= tRemote {
		t.Fatalf("CXL copy %v not slower than remote %v", tCXL, tRemote)
	}
}

func TestPollutionChargesLLC(t *testing.T) {
	_, sys, core := testRig(t)
	node := core.Sys.Node(0)
	n := int64(1 << 20)
	src := core.AS.Alloc(n, mem.OnNode(node))
	dst := core.AS.Alloc(n, mem.OnNode(node))
	if _, err := core.Memcpy(dst.Addr(0), src.Addr(0), n); err != nil {
		t.Fatal(err)
	}
	occ := sys.SocketOf(0).LLC.Occupancy(core.Owner())
	if occ != 2*n {
		t.Fatalf("LLC occupancy = %d, want %d (src+dst)", occ, 2*n)
	}
	core.NoPollute = true
	before := occ
	if _, err := core.Memcpy(dst.Addr(0), src.Addr(0), n); err != nil {
		t.Fatal(err)
	}
	if got := sys.SocketOf(0).LLC.Occupancy(core.Owner()); got != before {
		t.Fatalf("NoPollute still changed occupancy: %d -> %d", before, got)
	}
}

func TestOpFactorsOrdering(t *testing.T) {
	_, _, core := testRig(t)
	node := core.Sys.Node(0)
	n := int64(256 << 10)
	a := core.AS.Alloc(n, mem.OnNode(node))
	b := core.AS.Alloc(n, mem.OnNode(node))

	dCopy, _ := core.Memcpy(b.Addr(0), a.Addr(0), n)
	dSet, _ := core.Memset(b.Addr(0), n, 0)
	if dSet >= dCopy {
		t.Fatalf("memset %v not faster than memcpy %v", dSet, dCopy)
	}
}

func TestUMWaitAccounting(t *testing.T) {
	_, _, core := testRig(t)
	core.UMWait(10 * time.Microsecond)
	core.ChargeBusy(5 * time.Microsecond)
	if core.UMWaitTime() != 10*time.Microsecond {
		t.Fatalf("UMWaitTime = %v", core.UMWaitTime())
	}
	if core.BusyTime() != 5*time.Microsecond {
		t.Fatalf("BusyTime = %v", core.BusyTime())
	}
}

// TestMemcpyZeroAllocs: a 4 KB core copy allocates nothing (the LLC owner
// tag is built once, in NewCore).
func TestMemcpyZeroAllocs(t *testing.T) {
	_, _, core := testRig(t)
	node := core.Sys.Node(0)
	src := core.AS.Alloc(4096, mem.OnNode(node))
	dst := core.AS.Alloc(4096, mem.OnNode(node))
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := core.Memcpy(dst.Addr(0), src.Addr(0), 4096); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Memcpy 4 KB allocates %.1f/op, want 0", n)
	}
}
