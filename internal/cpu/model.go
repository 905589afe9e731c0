// Package cpu models the software baselines the paper compares DSA against:
// simulated cores executing optimized library routines (glibc-style memcpy /
// memset / memcmp, ISA-L-style CRC32) with empirically shaped cost curves,
// LLC pollution side effects, and UMONITOR/UMWAIT wait-state accounting.
//
// The package prices routines; it does not define operations. Core.Charge
// is the one cost function: a routine (Op) over the memory spans it
// touches. Core keeps only the routines callers run without a descriptor
// (Memcpy, Memset, CRC32, Decompress); every other Table 1 operation runs
// on a core through dsa.RunOnCore, which moves the bytes with the device's
// own kernel and charges Charge over the device's own footprint, so CPU
// and DSA outputs are bit-identical and only the timing differs.
package cpu

import (
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise log-linear interpolation of effective bandwidth
// (GB/s) over transfer size. Anchor points are calibrated to the paper's CPU
// baseline lines (Figs 2, 6, 15): small transfers are latency-bound, large
// ones stream-bound.
type Curve []CurvePoint

// CurvePoint anchors the effective bandwidth at one transfer size.
type CurvePoint struct {
	Size int64
	GBps float64
}

// At returns the interpolated bandwidth for a transfer of n bytes. Sizes
// outside the anchored range clamp to the end points.
func (c Curve) At(n int64) float64 {
	if len(c) == 0 {
		panic("cpu: empty bandwidth curve")
	}
	if n <= c[0].Size {
		return c[0].GBps
	}
	if n >= c[len(c)-1].Size {
		return c[len(c)-1].GBps
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].Size >= n }) // first >= n
	lo, hi := c[i-1], c[i]
	// Linear interpolation in log2(size) keeps decade sweeps smooth.
	frac := (math.Log2(float64(n)) - math.Log2(float64(lo.Size))) /
		(math.Log2(float64(hi.Size)) - math.Log2(float64(lo.Size)))
	return lo.GBps + frac*(hi.GBps-lo.GBps)
}

// Op identifies a software baseline routine. The set mirrors Table 1.
type Op int

// Software counterparts of the DSA operations (Table 1).
const (
	OpMemcpy Op = iota
	OpMemset
	OpMemcmp
	OpComparePattern
	OpCRC32
	OpCopyCRC
	OpDualcast
	OpDIFCheck
	OpDIFInsert
	OpDIFStrip
	OpDIFUpdate
	OpDeltaCreate
	OpDeltaApply
	OpDecompress
)

// String returns the routine name.
func (o Op) String() string {
	names := [...]string{"memcpy", "memset", "memcmp", "compare_pattern", "crc32",
		"copy_crc", "dualcast", "dif_check", "dif_insert", "dif_strip", "dif_update",
		"delta_create", "delta_apply", "decompress"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Model holds the software cost model for one platform generation.
type Model struct {
	// FreqGHz is the core clock, used to convert durations to cycles.
	FreqGHz float64
	// Cold is the effective bandwidth curve for cache-cold buffers (the
	// paper flushes descriptors and data between iterations, §4.1).
	Cold Curve
	// Warm is the curve when the buffers are LLC-resident (Fig 15 "L").
	Warm Curve
	// OpFactor scales the memcpy curve per operation: write-only routines
	// run faster, dual-destination and per-block-CRC routines slower.
	OpFactor map[Op]float64
}

// factor returns the op's bandwidth multiplier (default 1).
func (m Model) factor(op Op) float64 {
	if f, ok := m.OpFactor[op]; ok {
		return f
	}
	return 1
}

// SPRModel returns the Sapphire Rapids software baseline (Table 2: 56 cores,
// DDR5). Anchors are calibrated so that a cold 4 KB memcpy costs ~1.2 µs and
// a 1 MB memcpy ~10.5 GB/s, matching the paper's CPU lines in Figs 2/6.
func SPRModel() Model {
	return Model{
		FreqGHz: 2.0,
		Cold: Curve{
			{256, 1.2}, {512, 2.0}, {1 << 10, 2.8}, {4 << 10, 3.5},
			{16 << 10, 5.5}, {64 << 10, 8.0}, {256 << 10, 9.5},
			{1 << 20, 10.5}, {4 << 20, 11.0},
		},
		Warm: Curve{
			{256, 8}, {512, 12}, {1 << 10, 16}, {4 << 10, 25},
			{16 << 10, 30}, {64 << 10, 30}, {256 << 10, 27},
			{1 << 20, 22}, {4 << 20, 14},
		},
		OpFactor: map[Op]float64{
			OpMemset:         1.6,  // write-only, no source reads
			OpMemcmp:         0.85, // two source streams
			OpComparePattern: 1.5,  // single stream, no writes
			OpCRC32:          1.3,  // ISA-L PCLMUL-style, read-only
			OpCopyCRC:        0.8,
			OpDualcast:       0.6, // two destination streams
			OpDIFCheck:       0.9,
			OpDIFInsert:      0.7,
			OpDIFStrip:       0.8,
			OpDIFUpdate:      0.65,
			OpDeltaCreate:    0.7,
			OpDeltaApply:     1.0,
			OpDecompress:     0.45, // igzip-style inflate: branchy decode per output byte
		},
	}
}

// ICXModel returns the Ice Lake software baseline (Table 2: 40 cores, DDR4);
// roughly 15% lower streaming bandwidth than SPR.
func ICXModel() Model {
	m := SPRModel()
	scaled := make(Curve, len(m.Cold))
	for i, p := range m.Cold {
		scaled[i] = CurvePoint{p.Size, p.GBps * 0.85}
	}
	m.Cold = scaled
	return m
}
