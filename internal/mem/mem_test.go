package mem

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dsasim/internal/sim"
)

func testSystem(e *sim.Engine) *System {
	return NewSystem(e, SystemConfig{
		Sockets: 2,
		LLC:     LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2},
		UPILat:  70 * time.Nanosecond,
		UPIGBps: 62,
		NodeDefs: []NodeConfig{
			{Socket: 0, Kind: DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 1, Kind: DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
			{Socket: 0, Kind: CXL, ReadLat: 250 * time.Nanosecond, WriteLat: 400 * time.Nanosecond, ReadGBps: 16, WriteGBps: 10},
		},
	})
}

func TestAllocAndRoundTrip(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(4096)
	msg := []byte("hello, dsa")
	if err := as.Write(b.Addr(100), msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.Read(b.Addr(100), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, want %q", got, msg)
	}
}

func TestNodeAtResolvesHomeNode(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := NewAddressSpace(1)
	dram := as.Alloc(8192, OnNode(sys.Node(1)))
	cxl := as.Alloc(4096, OnNode(sys.Node(2)))
	bare := as.Alloc(4096) // no placement
	if n := as.NodeAt(dram.Addr(0)); n != sys.Node(1) {
		t.Fatalf("NodeAt(dram base) = %v, want node 1", n)
	}
	if n := as.NodeAt(dram.Addr(8191)); n != sys.Node(1) {
		t.Fatalf("NodeAt(dram last byte) = %v, want node 1", n)
	}
	if n := as.NodeAt(cxl.Addr(100)); n != sys.Node(2) {
		t.Fatalf("NodeAt(cxl) = %v, want node 2", n)
	}
	if n := as.NodeAt(bare.Addr(0)); n != nil {
		t.Fatalf("NodeAt(unplaced buffer) = %v, want nil", n)
	}
	if n := as.NodeAt(Addr(0x10)); n != nil {
		t.Fatalf("NodeAt(unmapped) = %v, want nil", n)
	}
}

func TestNodeAtZeroAllocs(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	as := NewAddressSpace(1)
	var addrs []Addr
	for i := 0; i < 16; i++ {
		addrs = append(addrs, as.Alloc(4096, OnNode(sys.Node(i%3))).Addr(1))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			if as.NodeAt(a) == nil {
				t.Fatal("mapped address resolved to nil node")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("NodeAt allocated %.1f times per run, want 0", allocs)
	}
}

func TestNodeBandwidthAccessors(t *testing.T) {
	e := sim.New()
	sys := testSystem(e)
	if got := sys.Node(0).WriteGBps(); got != 75 {
		t.Fatalf("DRAM WriteGBps = %v, want 75", got)
	}
	if got := sys.Node(2).ReadGBps(); got != 16 {
		t.Fatalf("CXL ReadGBps = %v, want 16", got)
	}
}

func TestLookupUnmappedFails(t *testing.T) {
	as := NewAddressSpace(1)
	as.Alloc(4096)
	if _, _, err := as.Lookup(Addr(0x10)); err == nil {
		t.Fatal("Lookup of unmapped address succeeded")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace(1)
	var bufs []*Buffer
	sizes := []int64{1, 4095, 4096, 4097, 1 << 20, 3}
	for _, sz := range sizes {
		bufs = append(bufs, as.Alloc(sz))
	}
	for i, a := range bufs {
		for j, b := range bufs {
			if i == j {
				continue
			}
			if a.Base < b.Base+Addr(b.Size) && b.Base < a.Base+Addr(a.Size) {
				t.Fatalf("buffers %d and %d overlap", i, j)
			}
		}
	}
}

func TestAllocRespectsPageAlignment(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(100, WithPageSize(Page2M))
	if uint64(b.Base)%uint64(Page2M) != 0 {
		t.Fatalf("2M buffer base %#x not 2M-aligned", b.Base)
	}
	b2 := as.Alloc(100, WithPageSize(Page1G))
	if uint64(b2.Base)%uint64(Page1G) != 0 {
		t.Fatalf("1G buffer base %#x not 1G-aligned", b2.Base)
	}
}

func TestCrossBufferAccessRejected(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(4096)
	if err := as.Write(b.Addr(4090), make([]byte, 100)); err == nil {
		t.Fatal("overrunning write succeeded")
	}
	if _, err := as.View(b.Addr(0), 8192); err == nil {
		t.Fatal("overrunning view succeeded")
	}
}

func TestLazyBufferFaultsForDevice(t *testing.T) {
	as := NewAddressSpace(7)
	b := as.Alloc(3*Page4K, Lazy())
	err := as.CheckMapped(b.Addr(0), b.Size)
	var pf *PageFaultError
	if !errors.As(err, &pf) {
		t.Fatalf("CheckMapped = %v, want PageFaultError", err)
	}
	if pf.PASID != 7 {
		t.Fatalf("fault PASID = %d, want 7", pf.PASID)
	}
	if err := as.ResolveFault(pf.Addr); err != nil {
		t.Fatal(err)
	}
	// Next fault is the second page.
	err = as.CheckMapped(b.Addr(0), b.Size)
	if !errors.As(err, &pf) {
		t.Fatalf("second CheckMapped = %v, want PageFaultError", err)
	}
	if pf.Addr != b.Addr(Page4K) {
		t.Fatalf("second fault at %#x, want %#x", pf.Addr, b.Addr(Page4K))
	}
	b.TouchAll()
	if err := as.CheckMapped(b.Addr(0), b.Size); err != nil {
		t.Fatalf("CheckMapped after TouchAll = %v", err)
	}
}

func TestViewAliasesBackingStore(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(64)
	v, err := as.View(b.Addr(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 0xAB
	if b.Bytes()[8] != 0xAB {
		t.Fatal("View did not alias backing store")
	}
}

func TestReadWriteRoundTripQuick(t *testing.T) {
	as := NewAddressSpace(1)
	b := as.Alloc(1 << 16)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		o := int64(off) % (b.Size - int64(len(payload)))
		if o < 0 {
			o = 0
		}
		if err := as.Write(b.Addr(o), payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := as.Read(b.Addr(o), got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemAccessLatency(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	local := s.Node(0)
	remote := s.Node(1)
	cxl := s.Node(2)
	if got := s.AccessLat(0, local, false); got != 110*time.Nanosecond {
		t.Fatalf("local read lat = %v", got)
	}
	if got := s.AccessLat(0, remote, false); got != 180*time.Nanosecond {
		t.Fatalf("remote read lat = %v, want 180ns", got)
	}
	if got := s.AccessLat(0, cxl, true); got != 400*time.Nanosecond {
		t.Fatalf("CXL write lat = %v, want 400ns", got)
	}
	if s.AccessLat(0, cxl, true) <= s.AccessLat(0, cxl, false) {
		t.Fatal("CXL writes must be slower than reads (Fig 6b asymmetry)")
	}
}

func TestRemoteTrafficBoundByUPI(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	remote := s.Node(1)
	// 62 GB/s UPI < 120 GB/s node read: UPI must dominate.
	done := s.ReserveTraffic(0, remote, 62_000_000, false) // 1ms at 62 GB/s
	if done < 990*time.Microsecond || done > 1010*time.Microsecond {
		t.Fatalf("remote transfer done at %v, want ~1ms (UPI bound)", done)
	}
}

func TestLocalTrafficBoundByNode(t *testing.T) {
	e := sim.New()
	s := testSystem(e)
	local := s.Node(0)
	done := s.ReserveTraffic(0, local, 120_000_000, false) // 1ms at 120 GB/s
	if done < 990*time.Microsecond || done > 1010*time.Microsecond {
		t.Fatalf("local transfer done at %v, want ~1ms", done)
	}
}

func TestLLCInsertAndEviction(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1000, Ways: 10, DDIOWays: 2})
	c.Insert("a", 600)
	c.Insert("b", 300)
	if c.Total() != 900 {
		t.Fatalf("Total = %d, want 900", c.Total())
	}
	evicted := c.Insert("b", 400) // overflows by 300, evicted from a
	if evicted == 0 {
		t.Fatal("overflow evicted nothing from other owners")
	}
	if c.Total() > 1000 {
		t.Fatalf("Total = %d exceeds capacity", c.Total())
	}
	if c.Occupancy("a") >= 600 {
		t.Fatalf("a's occupancy %d not reduced by pollution", c.Occupancy("a"))
	}
}

func TestLLCDDIOPartitionCapsStreamingWrites(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1500, Ways: 15, DDIOWays: 2}) // DDIO = 200
	c.Insert("app", 1200)
	leaked := c.InsertDDIO("dsa", 10_000)
	if got := c.Occupancy("dsa"); got != 200 {
		t.Fatalf("DDIO occupancy = %d, want 200 (partition cap)", got)
	}
	if leaked != 9800 {
		t.Fatalf("leaked = %d, want 9800", leaked)
	}
	// The app keeps nearly all of its footprint: only the DDIO share is at risk.
	if c.Occupancy("app") < 1200-200 {
		t.Fatalf("app occupancy %d, DDIO displaced too much", c.Occupancy("app"))
	}
}

func TestLLCEvictExplicit(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 1000, Ways: 10, DDIOWays: 2})
	c.Insert("a", 500)
	if got := c.Evict("a", 200); got != 200 {
		t.Fatalf("Evict = %d, want 200", got)
	}
	if got := c.Evict("a", 1000); got != 300 {
		t.Fatalf("Evict clamped = %d, want 300", got)
	}
	if c.Total() != 0 {
		t.Fatalf("Total = %d, want 0", c.Total())
	}
}

func TestLLCInvariantNeverExceedsCapacity(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 4096, Ways: 16, DDIOWays: 2})
	r := sim.NewRand(42)
	owners := []string{"a", "b", "c", "d"}
	for i := 0; i < 5000; i++ {
		o := owners[r.Intn(len(owners))]
		switch r.Intn(3) {
		case 0:
			c.Insert(o, int64(r.Intn(1000)+1))
		case 1:
			c.InsertDDIO(o, int64(r.Intn(1000)+1))
		case 2:
			c.Evict(o, int64(r.Intn(500)))
		}
		if c.Total() > c.Capacity() {
			t.Fatalf("iteration %d: total %d exceeds capacity %d", i, c.Total(), c.Capacity())
		}
		var sum int64
		for _, name := range c.Owners() {
			occ := c.Occupancy(name)
			if occ < 0 {
				t.Fatalf("iteration %d: negative occupancy for %s", i, name)
			}
			sum += occ
		}
		if sum != c.Total() {
			t.Fatalf("iteration %d: owner sum %d != total %d", i, sum, c.Total())
		}
	}
}

func TestIOMMUCounters(t *testing.T) {
	e := sim.New()
	m := NewIOMMU(e, IOMMUConfig{})
	if m.WalkLat() <= 0 || m.FaultLat() <= 0 {
		t.Fatal("default latencies must be positive")
	}
	if m.FaultLat() <= m.WalkLat() {
		t.Fatal("fault handling must cost more than a walk")
	}
	if m.Walks() != 2 || m.Faults() != 2 {
		t.Fatalf("counters = %d walks, %d faults; want 2, 2", m.Walks(), m.Faults())
	}
}

func TestDDIOCapacityScalesWithWays(t *testing.T) {
	c := NewLLC(LLCConfig{Capacity: 15000, Ways: 15, DDIOWays: 2})
	if got := c.DDIOCapacity(); got != 2000 {
		t.Fatalf("DDIOCapacity = %d, want 2000", got)
	}
	c = NewLLC(LLCConfig{Capacity: 15000, Ways: 15, DDIOWays: 4})
	if got := c.DDIOCapacity(); got != 4000 {
		t.Fatalf("DDIOCapacity with 4 ways = %d, want 4000", got)
	}
}

// refLLC is the map-keyed LLC the dense-id LLC replaced, kept as the
// reference TestLLCMatchesReference compares against. residualTrims counts
// the inserts that reached the inserter trim and belowZero those that
// trimmed it below zero, so the test can show the sequence covered both.
type refLLC struct {
	capacity, ddioCap int64
	occ, evictions    map[string]int64
	total             int64
	residualTrims     int
	belowZero         int
}

func newRefLLC(capacity, ddioCap int64) *refLLC {
	return &refLLC{capacity: capacity, ddioCap: ddioCap, occ: map[string]int64{}, evictions: map[string]int64{}}
}

func (c *refLLC) Insert(owner string, n int64) int64 {
	if n <= 0 {
		return 0
	}
	c.occ[owner] += n
	c.total += n
	return c.shrinkTo(c.capacity, owner)
}

func (c *refLLC) InsertDDIO(owner string, n int64) int64 {
	if n <= 0 {
		return 0
	}
	fit := c.ddioCap - c.occ[owner]
	if fit <= 0 {
		return n
	}
	if fit > n {
		fit = n
	}
	c.occ[owner] += fit
	c.total += fit
	c.shrinkTo(c.capacity, owner)
	return n - fit
}

func (c *refLLC) Evict(owner string, n int64) int64 {
	cur := c.occ[owner]
	if n > cur {
		n = cur
	}
	c.occ[owner] = cur - n
	c.total -= n
	if c.occ[owner] == 0 {
		delete(c.occ, owner)
	}
	return n
}

func (c *refLLC) Owners() []string {
	names := make([]string, 0, len(c.occ))
	for k := range c.occ {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (c *refLLC) shrinkTo(limit int64, inserter string) int64 {
	if c.total <= limit {
		return 0
	}
	excess := c.total - limit
	othersTotal := c.total - c.occ[inserter]
	var victims int64
	if othersTotal > 0 {
		for _, name := range c.Owners() {
			if name == inserter {
				continue
			}
			share := float64(c.occ[name]) / float64(othersTotal)
			take := int64(share * float64(excess))
			if take > c.occ[name] {
				take = c.occ[name]
			}
			c.occ[name] -= take
			c.total -= take
			c.evictions[name] += take
			victims += take
			if c.occ[name] == 0 {
				delete(c.occ, name)
			}
		}
	}
	if c.total > limit {
		over := c.total - limit
		c.residualTrims++
		if c.occ[inserter] < over {
			c.belowZero++
		}
		c.occ[inserter] -= over
		c.total -= over
		c.evictions[inserter] += over
		if c.occ[inserter] <= 0 {
			delete(c.occ, inserter)
		}
	}
	return victims
}

// TestLLCMatchesReference drives one seeded sequence of inserts, DDIO
// inserts and evictions through the LLC and the map-keyed reference, and
// compares every return value and every observable after each step.
func TestLLCMatchesReference(t *testing.T) {
	const capacity = 1 << 16
	c := NewLLC(LLCConfig{Capacity: capacity, Ways: 16, DDIOWays: 2})
	ref := newRefLLC(capacity, c.DDIOCapacity())
	// Ten owners drawn at random, "tiny" used only after a negative
	// Evict, and one name that is only ever queried.
	owners := []string{"xmem0", "xmem1", "xmem2", "xmem3", "core10", "core11", "core12", "core13", "dsa0", "big", "tiny", "never"}
	check := func(step int, what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Fatalf("step %d: %s = %d, reference %d", step, what, got, want)
		}
	}
	r := sim.NewRand(20261017)
	for step := 0; step < 5000; step++ {
		o := owners[r.Intn(len(owners)-2)]
		var what string
		var got, want int64
		switch k := r.Intn(40); {
		case k < 16: // overflowing or filling insert
			n := int64(r.Intn(capacity/4) + 1)
			what, got, want = "Insert("+o+")", c.Insert(o, n), ref.Insert(o, n)
		case k < 24:
			n := int64(r.Intn(capacity/8) + 1)
			what, got, want = "InsertDDIO("+o+")", c.InsertDDIO(o, n), ref.InsertDDIO(o, n)
		case k < 32:
			n := int64(r.Intn(capacity / 4))
			what, got, want = "Evict("+o+")", c.Evict(o, n), ref.Evict(o, n)
		case k < 34:
			// Evict takes a negative count as an insert with no shrink,
			// so the cache can run over capacity. A 1-byte insert by an
			// empty owner then loses the victims' rounding to its own
			// trim and goes below zero, which must read as absent.
			n := -int64(r.Intn(capacity) + 1)
			check(step, "Evict("+o+", negative)", c.Evict(o, n), ref.Evict(o, n))
			check(step, "Evict(tiny)", c.Evict("tiny", capacity), ref.Evict("tiny", capacity))
			what, got, want = "Insert(tiny)", c.Insert("tiny", 1), ref.Insert("tiny", 1)
		default:
			// A dominant owner fills nearly the whole cache, then a tiny
			// insert by it leaves a rounding residual the inserter trim
			// removes.
			n := capacity - ref.occ["big"] - 3
			check(step, "Insert(big)", c.Insert("big", n), ref.Insert("big", n))
			tiny := 1 + int64(r.Intn(3))
			what, got, want = "tiny Insert(big)", c.Insert("big", tiny), ref.Insert("big", tiny)
		}
		check(step, what, got, want)
		check(step, "Total", c.Total(), ref.total)
		for _, name := range owners {
			check(step, "Occupancy("+name+")", c.Occupancy(name), ref.occ[name])
			check(step, "Evicted("+name+")", c.Evicted(name), ref.evictions[name])
		}
		if got, want := c.Owners(), ref.Owners(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Owners = %v, reference %v", step, got, want)
		}
	}
	if ref.residualTrims == 0 || ref.belowZero == 0 {
		t.Fatalf("the sequence trimmed an inserter %d times, %d of them below zero; want both > 0",
			ref.residualTrims, ref.belowZero)
	}
}

// TestLLCOverflowZeroAllocs pins the overflow path at zero allocations with
// the thirteen owners of the xmem-colocate workload.
func TestLLCOverflowZeroAllocs(t *testing.T) {
	c, owners := llcWith13Owners()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		o := owners[i%len(owners)]
		i++
		if c.Insert(o, 1<<20) == 0 {
			t.Fatal("Insert did not overflow")
		}
		if leaked := c.InsertDDIO("dsa0", 1<<20); leaked == 1<<20 || c.Total() != c.Capacity() {
			t.Fatalf("InsertDDIO did not overflow: leaked %d, total %d", leaked, c.Total())
		}
	})
	if allocs != 0 {
		t.Fatalf("overflowing inserts allocated %.1f times per run, want 0", allocs)
	}
}

// llcWith13Owners returns a full 105 MB LLC shared by the xmem-colocate
// owners: eight X-Mem probes, four copier cores and one DSA device.
func llcWith13Owners() (*LLC, []string) {
	c := NewLLC(LLCConfig{Capacity: 105 << 20, Ways: 15, DDIOWays: 2})
	var owners []string
	for i := 0; i < 8; i++ {
		owners = append(owners, fmt.Sprintf("xmem%d", i))
	}
	for i := 0; i < 4; i++ {
		owners = append(owners, fmt.Sprintf("core%d", 10+i))
	}
	for _, o := range owners {
		c.Insert(o, 15<<20)
	}
	c.InsertDDIO("dsa0", 8<<20)
	return c, owners
}

func BenchmarkLLCInsertOverflow(b *testing.B) {
	c, owners := llcWith13Owners()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(owners[i%len(owners)], 64<<10)
	}
}
