// Command perfbench is the repository's benchmark: it drives the DSA model
// through the public APIs of sim, mem, dsa, cpu, xmem and offload and
// reports simulated service quality (deterministic for a seed) and the
// host cost of the simulator (noisy). See README.md for the workloads,
// every metric and the layer map.
//
//	perfbench --workload switch-plane --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any verification, conservation
// or determinism failure makes the run exit non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Seeds: the default seed, and one held out for confirming later claims
// (never used while tuning a change).
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// profileHz is the CPU profile's sampling rate in traced runs.
const profileHz = 500

// workload is one benchmark input: a repetition function run with the
// same seed until the time budget is spent.
type workload struct {
	name string
	run  func(seed uint64, tr *tracer) (*repOut, error)
}

var workloads = []workload{
	{"switch-plane", func(seed uint64, tr *tracer) (*repOut, error) { return runOpenLoop(switchPlane(), seed, tr) }},
	{"broker-pipeline", func(seed uint64, tr *tracer) (*repOut, error) { return runOpenLoop(brokerPipeline(), seed, tr) }},
	{"xmem-colocate", func(seed uint64, tr *tracer) (*repOut, error) { return runColocate(seed, tr) }},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"slo_attained_kops", "kops/s"},
	{"goodput_kops", "kops/s"},
	{"copy_gbps", "GB/s"},
	{"fg_p50_us", "us"},
	{"fg_p99_us", "us"},
	{"bg_p50_us", "us"},
	{"bg_p99_us", "us"},
	{"host_ops_per_s", "ops/s"},
	{"host_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"sim.host_share", "share"},
	{"sim.handoff_host_share", "share"},
	{"isal.host_share", "share"},
	{"isal.crc_mb", "MB"},
	{"mem.host_share", "share"},
	{"mem.llc_evicted_mb", "MB"},
	{"mem.ddio_leaked_mb", "MB"},
	{"mem.dram_read_gb", "GB"},
	{"mem.dram_write_gb", "GB"},
	{"cpu.host_share", "share"},
	{"cpu.memcpy_host_ns_p50", "ns"},
	{"cpu.memcpy_host_ns_p99", "ns"},
	{"cpu.memcpy_us_p50", "us"},
	{"xmem.host_share", "share"},
	{"xmem.step_host_ns_p50", "ns"},
	{"xmem.step_host_ns_p99", "ns"},
	{"dsa.host_share", "share"},
	{"dsa.queue_us_p50", "us"},
	{"dsa.queue_us_p99", "us"},
	{"dsa.exec_us_p50", "us"},
	{"dsa.exec_us_p99", "us"},
	{"dsa.enqcmd_retries", "count"},
	{"dsa.completed", "count"},
	{"dsa.batches_fetched", "count"},
	{"dsa.atc_miss_ratio", "ratio"},
	{"dsa.page_faults", "count"},
	{"offload.host_share", "share"},
	{"offload.fg_submit_us_p99", "us"},
	{"offload.bg_submit_us_p99", "us"},
	{"offload.fg_resolve_us_p99", "us"},
	{"offload.bg_resolve_us_p99", "us"},
	{"offload.shed", "count"},
	{"offload.delayed", "count"},
	{"offload.faults", "count"},
	{"offload.retries", "count"},
	{"offload.fallbacks", "count"},
	{"offload.sw_ratio", "ratio"},
	{"offload.slo_miss_ratio", "ratio"},
	{"offload.pipelines", "count"},
	{"telemetry.host_share", "share"},
	{"telemetry.drifts", "count"},
	{"runtime.gc_host_share", "share"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"bench.host_share", "share"},
	{"bench.gen_late_us_p99", "us"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_ratio", "ratio"},
}

// repOut is one repetition's outcome. sim and layer hold values that are
// deterministic for the seed; the rest is host cost.
type repOut struct {
	sim   map[string]float64
	layer map[string]float64

	attempted, ops, shed, failed   int64 // ops: completed ok
	mismatches, violations, checks int64
	err                            error // first verification failure

	notes []string // human-readable detail (ramp steps)

	setup, run          time.Duration
	mallocs, allocBytes uint64
}

func newRepOut() *repOut {
	return &repOut{sim: map[string]float64{}, layer: map[string]float64{}}
}

// timed runs fn (a simulation) and adds its wall time and allocations.
func (out *repOut) timed(fn func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	t0 := time.Now()
	fn()
	out.run += time.Since(t0)
	runtime.ReadMemStats(&ms)
	out.mallocs += ms.Mallocs - m0
	out.allocBytes += ms.TotalAlloc - b0
}

// addLedger folds one simulation's ledger into the repetition.
func (out *repOut) addLedger(l *ledger, shed, failed int64) {
	out.attempted += int64(len(l.states))
	out.shed += shed
	out.failed += failed
	out.mismatches += l.mismatches
	out.violations += l.violations
	out.checks += l.checked
	if out.err == nil {
		out.err = l.firstErr
	}
}

// model is every deterministic value of a repetition: what the model
// fingerprint covers.
func (out *repOut) model() map[string]float64 {
	m := map[string]float64{
		"attempted": float64(out.attempted), "ok": float64(out.ops),
		"shed": float64(out.shed), "failed": float64(out.failed),
	}
	for k, v := range out.sim {
		m[k] = v
	}
	for k, v := range out.layer {
		m[k] = v
	}
	return m
}

// verify fails the repetition on any verification or conservation error.
func (out *repOut) verify() error {
	if out.err != nil {
		return out.err
	}
	if out.violations > 0 || out.mismatches > 0 {
		return fmt.Errorf("%d conservation violations, %d mismatches", out.violations, out.mismatches)
	}
	if out.checks == 0 {
		return errors.New("no copy was checked byte for byte")
	}
	if out.ops+out.shed+out.failed != out.attempted {
		return fmt.Errorf("ok %d + shed %d + failed %d != attempted %d", out.ops, out.shed, out.failed, out.attempted)
	}
	return nil
}

// result is what one benchmark invocation reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	units     map[string]string
}

func main() {
	wl := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", defaultSeed,
		fmt.Sprintf("workload seed (%d is held out for confirming claims)", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var todo []workload
	for _, w := range workloads {
		if *wl == w.name || *wl == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *wl, names())
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	final := result{correct: true, metrics: map[string]float64{}, units: map[string]string{}}
	for _, w := range todo {
		res, err := measure(w, *seed, budget, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.correct = final.correct && res.correct
		final.attempted += res.attempted
		final.failed += res.failed
		for k, v := range res.metrics {
			name := k
			if len(todo) > 1 {
				name = w.name + "/" + k
			}
			final.metrics[name], final.units[name] = v, res.units[k]
		}
	}
	line, err := final.json()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !final.correct {
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// measure repeats one workload with one seed until the budget is spent
// (at least once) and reports its metrics. A traced invocation spends
// half the budget untraced, for the host baseline and trace overhead,
// and half traced under a CPU profile.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	start := time.Now()
	plain := budget
	if traced {
		plain = budget / 2
	}
	var reps []*repOut
	for len(reps) == 0 || time.Since(start) < plain {
		// Each repetition starts from a collected heap returned to the OS,
		// so every set-up pays for fresh memory the same way instead of
		// inheriting whatever the previous repetition left mapped.
		debug.FreeOSMemory()
		out, err := w.run(seed, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, out)
	}
	var (
		tracedReps []*repOut
		tr         *tracer
		prof       bytes.Buffer
	)
	if traced {
		// 500 Hz instead of the default 100 gives the layer shares five
		// times the samples. StartCPUProfile keeps a rate already set; the
		// runtime notes that on stderr.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		for len(tracedReps) == 0 || time.Since(start) < budget {
			tr = &tracer{}
			debug.FreeOSMemory()
			out, err := w.run(seed, tr)
			if err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
			tracedReps = append(tracedReps, out)
		}
		pprof.StopCPUProfile()
	}

	// Every repetition must reproduce the first one's model exactly,
	// traced or not, and pass its own output checks.
	first := reps[0]
	fp := fingerprint(first.model())
	for i, out := range append(append([]*repOut{}, reps...), tracedReps...) {
		if err := out.verify(); err != nil {
			return failedResult(w, first, fmt.Errorf("repetition %d: %w", i, err)), nil
		}
		if got := fingerprint(out.model()); got != fp {
			return failedResult(w, first, fmt.Errorf("repetition %d: model fingerprint %s, first was %s", i, got, fp)), nil
		}
	}

	res := &result{correct: true, attempted: first.attempted, failed: first.failed + first.mismatches,
		metrics: map[string]float64{}, units: map[string]string{}}
	var opsPerS, setupS, allocs, allocBytes, runS []float64
	for _, out := range reps {
		opsPerS = append(opsPerS, float64(out.ops)/out.run.Seconds())
		setupS = append(setupS, out.setup.Seconds())
		allocs = append(allocs, float64(out.mallocs)/float64(out.ops))
		allocBytes = append(allocBytes, float64(out.allocBytes)/float64(out.ops))
		runS = append(runS, out.run.Seconds())
	}
	e2e := map[string]float64{}
	for k, v := range first.sim {
		e2e[k] = v
	}
	e2e["host_ops_per_s"] = median(opsPerS)
	e2e["setup_s"] = median(setupS)
	e2e["host_peak_mb"] = peakRSSMB()

	fmt.Printf("== %s  seed %d  repetitions %d untraced, %d traced\n", w.name, seed, len(reps), len(tracedReps))
	fmt.Printf("model fingerprint %s\n", fp)
	fmt.Printf("ops attempted %d  ok %d  shed %d  failed %d  copies checked %d  fail_ratio %.6g\n",
		first.attempted, first.ops, first.shed, first.failed, first.checks,
		failRatio(first.attempted, first.shed, first.failed, first.mismatches))
	for _, n := range first.notes {
		fmt.Println(n)
	}
	printTable(endToEnd, e2e)
	if !traced {
		for _, m := range endToEnd {
			res.metrics[m.name], res.units[m.name] = e2e[m.name], m.unit
		}
		return res, nil
	}

	layer, err := layerMetrics(first, tr, prof.Bytes())
	if err != nil {
		return nil, err
	}
	var tracedS []float64
	for _, out := range tracedReps {
		tracedS = append(tracedS, out.run.Seconds())
	}
	layer["bench.trace_overhead"] = median(tracedS)/median(runS) - 1
	layer["runtime.allocs_per_op"] = median(allocs)
	layer["runtime.alloc_bytes_per_op"] = median(allocBytes)
	printTable(perLayer, layer)
	for _, m := range perLayer {
		res.metrics[m.name], res.units[m.name] = layer[m.name], m.unit
	}
	dir := ".bench_build/trace"
	base := fmt.Sprintf("%s/%s-seed%d", dir, w.name, seed)
	if err := tr.write(base + ".json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d (dropped %d) written to %s.json, CPU profile to %s.pprof\n",
		len(tr.spans), tr.dropped, base, base)
	return res, nil
}

// failedResult reports a run whose outputs failed a check.
func failedResult(w workload, first *repOut, err error) *result {
	fmt.Printf("== %s FAILED: %v\n", w.name, err)
	return &result{correct: false, attempted: first.attempted, failed: max(first.failed+first.mismatches, 1),
		metrics: map[string]float64{}, units: map[string]string{}}
}

// layerMetrics assembles the per-layer metrics of a traced run from the
// deterministic layer values, the last traced repetition's host spans and
// the CPU profile's layer shares.
func layerMetrics(first *repOut, tr *tracer, prof []byte) (map[string]float64, error) {
	l := first.layer
	out := map[string]float64{}
	for _, k := range []string{
		"cpu.memcpy_us_p50", "dsa.queue_us_p50", "dsa.queue_us_p99", "dsa.exec_us_p50", "dsa.exec_us_p99",
		"dsa.enqcmd_retries", "dsa.completed", "dsa.batches_fetched", "dsa.page_faults",
		"offload.fg_submit_us_p99", "offload.bg_submit_us_p99", "offload.fg_resolve_us_p99", "offload.bg_resolve_us_p99",
		"offload.shed", "offload.delayed", "offload.faults", "offload.retries", "offload.fallbacks", "offload.pipelines",
		"telemetry.drifts", "bench.gen_late_us_p99",
	} {
		out[k] = l[k]
	}
	out["isal.crc_mb"] = l["isal.crc_bytes"] / (1 << 20)
	out["mem.llc_evicted_mb"] = l["mem.llc_evicted_bytes"] / (1 << 20)
	out["mem.ddio_leaked_mb"] = l["mem.ddio_leaked_bytes"] / (1 << 20)
	out["mem.dram_read_gb"] = l["mem.dram_read_bytes"] / 1e9
	out["mem.dram_write_gb"] = l["mem.dram_write_bytes"] / 1e9
	out["dsa.atc_miss_ratio"] = ratio(l["dsa.atc_misses"], l["dsa.atc_hits"]+l["dsa.atc_misses"])
	out["offload.sw_ratio"] = ratio(l["offload.sw_ops"], l["offload.sw_ops"]+l["offload.hw_ops"])
	out["offload.slo_miss_ratio"] = ratio(l["offload.slo_miss"], l["offload.slo_ok"]+l["offload.slo_miss"])
	out["bench.fail_ratio"] = failRatio(first.attempted, first.shed, first.failed, first.mismatches)
	for _, h := range []struct {
		name string
		xs   []int64
	}{{"cpu.memcpy_host_ns", tr.memcpyHost}, {"xmem.step_host_ns", tr.stepHost}} {
		if len(h.xs) == 0 {
			out[h.name+"_p50"], out[h.name+"_p99"] = 0, 0
			continue
		}
		xs := sortedCopy(h.xs)
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p99", 0.99}} {
			v, err := percentile(xs, q.q, h.name)
			if err != nil {
				return nil, err
			}
			out[h.name+q.suffix] = float64(v)
		}
	}
	shares, samples, err := layerShares(prof)
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	for _, layer := range []string{"isal", "mem", "cpu", "xmem", "dsa", "offload", "telemetry", "bench"} {
		out[layer+".host_share"] = shares[layer]
	}
	out["sim.host_share"] = shares["sim"] + shares[layerHandoff]
	out["sim.handoff_host_share"] = shares[layerHandoff]
	out["runtime.gc_host_share"] = shares[layerGC]
	fmt.Printf("profile: %d samples; other %.4f\n", samples, shares[layerOther])
	return out, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// the runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func printTable(defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
}

// json renders the result line: correct, attempted, failed, and each
// metric with its value and unit.
func (r *result) json() (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(r.metrics))
	for k, v := range r.metrics {
		ms[k] = metric{Value: v, Unit: r.units[k]}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}
