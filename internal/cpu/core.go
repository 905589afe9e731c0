package cpu

import (
	"fmt"
	"time"

	"dsasim/internal/isal"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Core is one simulated CPU core executing software baseline routines. Every
// routine performs the real operation on simulated memory and returns the
// modelled execution time; it also charges LLC occupancy (cache pollution)
// and memory-node bandwidth, which is how software copies degrade co-running
// applications in Figs 12/13. The routines here are the ones callers run
// without a descriptor; dsa.RunOnCore runs any other Table 1 operation on a
// core through Charge.
type Core struct {
	ID     int
	Socket int
	Sys    *mem.System
	AS     *mem.AddressSpace
	M      Model

	// NoPollute disables LLC allocation for this core's accesses, e.g. to
	// model non-temporal (streaming) load/store variants.
	NoPollute bool

	owner  string
	busy   sim.Time
	umwait sim.Time
}

// NewCore creates a core on the given socket running address space as.
func NewCore(id, socket int, sys *mem.System, as *mem.AddressSpace, m Model) *Core {
	return &Core{ID: id, Socket: socket, Sys: sys, AS: as, M: m, owner: fmt.Sprintf("core%d", id)}
}

// Owner returns the LLC occupancy owner tag for this core.
func (c *Core) Owner() string { return c.owner }

// BusyTime returns cumulative modelled execution time.
func (c *Core) BusyTime() sim.Time { return c.busy }

// UMWaitTime returns cumulative time spent in the UMWAIT optimized wait
// state (§3.3, Fig 11).
func (c *Core) UMWaitTime() sim.Time { return c.umwait }

// ChargeBusy adds d to the core's busy time (for workload-level costs that
// are not memory routines).
func (c *Core) ChargeBusy(d sim.Time) { c.busy += d }

// UMWait accounts d spent parked in UMWAIT. The core burns almost no dynamic
// power and frees pipeline resources; it is *not* busy time.
func (c *Core) UMWait(d sim.Time) { c.umwait += d }

// UMWaitWake is the latency to exit the UMWAIT wait state once the monitored
// line is written (C0.2 exit, ~order of a hundred ns).
const UMWaitWake = 150 * time.Nanosecond

// Charge computes the modelled duration of routine op moving transfer
// bytes over the given spans, charges LLC pollution and node bandwidth, and
// accumulates busy time. When the memory pipes are contended (other cores
// or devices streaming), the returned duration stretches to the booked
// traffic's completion: a core cannot copy faster than the memory system
// serves it. Every span must be mapped.
func (c *Core) Charge(op Op, transfer int64, spans ...mem.Span) sim.Time {
	warm := true
	mult := c.M.factor(op)
	var lat time.Duration
	start := c.Sys.E.Now()
	var trafficDone sim.Time
	for _, sp := range spans {
		buf, _, err := c.AS.Lookup(sp.Addr)
		if err != nil {
			panic(fmt.Sprintf("cpu: routine on unmapped address: %v", err))
		}
		if !buf.CacheResident {
			warm = false
		}
		if buf.Node != nil {
			// Medium penalties: the LD/ST path tolerates remote DRAM
			// moderately but saturates the load-store queue on CXL (§5).
			switch {
			case buf.Node.Kind == mem.CXL && sp.Write:
				mult *= 0.22
			case buf.Node.Kind == mem.CXL:
				mult *= 0.35
			case buf.Node.Socket != c.Socket && sp.Write:
				mult *= 0.75
			case buf.Node.Socket != c.Socket:
				mult *= 0.85
			}
			if l := c.Sys.AccessLat(c.Socket, buf.Node, sp.Write); l > lat && !buf.CacheResident {
				lat = l
			}
			if !buf.CacheResident {
				done := c.Sys.ReserveTraffic(c.Socket, buf.Node, sp.N, sp.Write)
				if done > trafficDone {
					trafficDone = done
				}
			}
		}
		if !c.NoPollute {
			// Core loads and stores allocate into the LLC: this is the
			// pollution DSA avoids (§4.5).
			c.Sys.SocketOf(c.Socket).LLC.Insert(c.owner, sp.N)
		}
	}
	curve := c.M.Cold
	if warm {
		curve = c.M.Warm
		lat = 0
	}
	bw := curve.At(transfer) * mult
	d := lat + sim.GBps(transfer, bw)
	if trafficDone > start+d {
		d = trafficDone - start
	}
	c.busy += d
	return d
}

// Memcpy copies n bytes from src to dst and returns the modelled duration.
func (c *Core) Memcpy(dst, src mem.Addr, n int64) (sim.Time, error) {
	s, err := c.AS.View(src, n)
	if err != nil {
		return 0, err
	}
	d, err := c.AS.View(dst, n)
	if err != nil {
		return 0, err
	}
	copy(d, s)
	return c.Charge(OpMemcpy, n, mem.Span{Addr: src, N: n}, mem.Span{Addr: dst, N: n, Write: true}), nil
}

// Memset fills n bytes at dst with the repeating 8-byte pattern.
func (c *Core) Memset(dst mem.Addr, n int64, pattern uint64) (sim.Time, error) {
	d, err := c.AS.View(dst, n)
	if err != nil {
		return 0, err
	}
	isal.Fill(d, pattern)
	return c.Charge(OpMemset, n, mem.Span{Addr: dst, N: n, Write: true}), nil
}

// CRC32 computes the seeded CRC-32 of n bytes at src (ISA-L style baseline).
func (c *Core) CRC32(src mem.Addr, n int64, seed uint32) (crc uint32, d sim.Time, err error) {
	sv, err := c.AS.View(src, n)
	if err != nil {
		return 0, 0, err
	}
	crc = isal.CRC32(seed, sv)
	d = c.Charge(OpCRC32, n, mem.Span{Addr: src, N: n})
	return crc, d, nil
}

// Decompress inflates the n-byte compressed image at src into dst (at most
// maxDst bytes), returning the produced length. The functional kernel is
// internal/isal's RLE inflate; the cost is charged per *output* byte — an
// igzip-style decoder streams the decoded data through the store pipe, so
// the produced size, not the compressed size, bounds its bandwidth.
func (c *Core) Decompress(dst, src mem.Addr, n, maxDst int64) (int64, sim.Time, error) {
	sv, err := c.AS.View(src, n)
	if err != nil {
		return 0, 0, err
	}
	dv, err := c.AS.View(dst, maxDst)
	if err != nil {
		return 0, 0, err
	}
	m, err := isal.Decompress(dv, sv)
	if err != nil {
		return 0, 0, err
	}
	d := c.Charge(OpDecompress, int64(m),
		mem.Span{Addr: src, N: n}, mem.Span{Addr: dst, N: int64(m), Write: true})
	return int64(m), d, nil
}
