package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dsasim/internal/sim"
)

// maxSpans caps the virtual-time spans one traced repetition keeps; spans
// past the cap are counted, not stored.
const maxSpans = 400_000

// span is one virtual-time interval around a call the benchmark makes
// into a layer. Spans of one operation share op; parent is the id of the
// enclosing span (0 for a root).
type span struct {
	id, parent, op int32
	name           string
	start, end     sim.Time
}

// tracer collects the traced run's spans in memory. A nil *tracer is the
// untraced run: every method is a no-op, so the simulated work is the
// same either way.
type tracer struct {
	spans   []span
	dropped int64

	// Host spans, taken only around calls that never yield to the engine
	// (a wall-clock span around a parking call would cover every other
	// Proc's events too).
	memcpyHost []int64 // cpu.Core.Memcpy, ns
	stepHost   []int64 // xmem.Probe.Step, ns
}

// span records one virtual-time span and returns its id (0 when untraced
// or over the cap).
func (t *tracer) span(name string, op, parent int32, start, end sim.Time) int32 {
	if t == nil {
		return 0
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	return id
}

// hostStart returns the wall clock for a host span, or the zero time when
// untraced.
func (t *tracer) hostStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// host appends the wall-clock nanoseconds since start to *dst.
func (t *tracer) host(dst *[]int64, start time.Time) {
	if t == nil {
		return
	}
	*dst = append(*dst, int64(time.Since(start)))
}

// write saves the spans as Chrome trace-event JSON (timestamps are
// virtual microseconds; one row per operation), which Perfetto and
// chrome://tracing open.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[", t.dropped)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}",
			s.name, s.op, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
