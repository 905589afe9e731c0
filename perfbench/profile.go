package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into host-time shares per
// layer. The profile is gzip-compressed protobuf (profile.proto); the
// decoder below reads only the fields the bucketing needs: each sample's
// location ids and first value, each location's inlined function ids, and
// each function's name.

// Layer names the bucketing can return.
const (
	layerGC      = "runtime.gc"
	layerHandoff = "sim.handoff"
	layerBench   = "bench"
	layerOther   = "other"
)

// gcFrames marks a sample as garbage-collector work wherever it appears
// in the stack: background marking and sweeping, and the mark assist an
// allocating goroutine is drafted into.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.sweepone",
}

// handoffFrames are the runtime's channel, park and scheduler entry
// points. The sim engine hands control between Proc goroutines over
// unbuffered channels, so this is the cost of a Proc switch.
var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.gosched", "runtime.goexit0", "runtime.newproc",
	"runtime.execute", "runtime.gogo", "runtime.send", "runtime.recv",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.wakep", "runtime.startm", "runtime.stopm",
}

// hasFramePrefix reports whether name is one of frames or a variant of
// one (runtime.chanrecv1, runtime.chanrecv2, runtime.futexsleep, ...).
func hasFramePrefix(name string, frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(name, f) {
			return true
		}
	}
	return false
}

// layerOf buckets one sampled stack (leaf first) into a layer:
//   - runtime.gc when any frame is garbage-collector work;
//   - sim.handoff when a runtime channel, park or scheduler frame sits
//     below the first non-runtime frame;
//   - otherwise the package of the leaf-most frame in this module:
//     dsasim/internal/<pkg> gives <pkg>, the benchmark's own code gives
//     bench;
//   - other when no frame belongs to the module.
//
// Runtime and standard-library work (allocation, memmove, hashing) is
// thereby charged to the module package that called it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if hasFramePrefix(fn, gcFrames) {
			return layerGC
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			break
		}
		if hasFramePrefix(fn, handoffFrames) {
			return layerHandoff
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "dsasim/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "dsasim/perfbench") {
			return layerBench
		}
	}
	return layerOther
}

// layerShares buckets every sample of a gzip'd pprof CPU profile and
// returns each layer's share of the sampled host time, and the sample
// count.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for i, st := range stacks {
		byLayer[layerOf(st)] += weights[i]
		total += weights[i]
	}
	shares := map[string]float64{}
	for l, w := range byLayer {
		if total > 0 {
			shares[l] = float64(w) / float64(total)
		}
	}
	return shares, total, nil
}

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("pprof: truncated protobuf")

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflow")
	return 0
}

// field reads the next key and, for length-delimited fields, the payload.
// Scalars of wire type 0 come back in val; fixed-width ones are skipped.
func (p *pbuf) field() (num int, wire int, val uint64, data []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.err = errTruncated
			return
		}
		p.b = p.b[n:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = errTruncated
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return
}

// uints appends a repeated uint64 field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// decodeProfile returns each sample's stack as function names (leaf
// first, inlined frames expanded) and its first value.
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, data := p.field()
		if p.err != nil {
			break
		}
		q := pbuf{b: data}
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			for len(q.b) > 0 && q.err == nil {
				n, w, v, d := q.field()
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					vals, err = uints(vals, w, v, d)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			if len(vals) > 0 {
				s.val = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, d := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{b: d}
					for len(l.b) > 0 && l.err == nil {
						if ln, _, lv, _ := l.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, nil, l.err
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		if q.err != nil {
			return nil, nil, q.err
		}
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strs) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = s.val
	}
	return stacks, weights, nil
}
