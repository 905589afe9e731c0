package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Leaf-most module frame wins; runtime work is charged to it.
		{[]string{"dsasim/internal/isal.CRC32"}, "isal"},
		{[]string{"runtime.memmove", "dsasim/internal/dsa.(*Engine).execute", "dsasim/internal/offload.(*Tenant).submit"}, "dsa"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "dsasim/internal/mem.(*LLC).shrinkTo"}, "mem"},
		{[]string{"hash/crc32.ieeeCLMUL", "main.(*olRun).resolve"}, "bench"},
		{[]string{"dsasim/perfbench.helper"}, "bench"},
		// Channel handoff below the sim engine is a Proc switch.
		{[]string{"runtime.futex", "runtime.chanrecv", "runtime.chanrecv1", "dsasim/internal/sim.(*Proc).park"}, "sim.handoff"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim.handoff"},
		// A scheduler frame above a module frame is not a handoff.
		{[]string{"dsasim/internal/telemetry.(*Hub).merge", "runtime.goexit"}, "telemetry"},
		// Garbage collection anywhere in the stack.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "dsasim/internal/offload.(*Tenant).Copy"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestDecodeProfile round-trips a real CPU profile: the busy loop must
// show up under its own function name, and every stack through it must
// land in the bench layer.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("decoded %d stacks, %d weights", len(stacks), len(weights))
	}
	found := 0
	for _, st := range stacks {
		for _, fn := range st {
			if strings.HasSuffix(fn, "spinForProfile") {
				found++
				if l := layerOf(st); l != layerBench {
					t.Errorf("stack %v bucketed as %q, want %q", st, l, layerBench)
				}
				break
			}
		}
	}
	if found == 0 {
		t.Fatal("the spinning function is in no sampled stack")
	}
	if _, total, err := layerShares(buf.Bytes()); err != nil || total == 0 {
		t.Fatalf("layerShares: %d samples, %v", total, err)
	}
}
