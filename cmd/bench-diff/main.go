// Command bench-diff is CI's perf-regression gate: it compares the
// BENCH_<id>.json trajectories of the current tree against the committed
// baselines and fails when any asserted speedup (bench/gates.json)
// regressed by more than the threshold.
//
// Gates track ratios, not raw GB/s: a uniform cost-model recalibration
// shifts both series of an experiment and passes, while a change that
// erodes what an experiment asserts — placement beating numa-local,
// load-aware placement beating data-only under skew, the QoS express
// lane protecting the foreground p99 — fails the PR.
//
// Usage (the experiment list is every committed BENCH_<id>.json baseline):
//
//	ids="$(ls bench/baseline | sed -n 's/^BENCH_\(.*\)\.json$/\1/p' | paste -sd, -)"
//	dsa-bench -run "$ids" -json bench-current
//	bench-diff -baseline bench/baseline -current bench-current
//
// Baselines are refreshed by regenerating them on main and committing:
//
//	go run ./cmd/dsa-bench -run "$ids" -json bench/baseline
//
// Exit codes: 0 all gates pass; 1 a measured speedup regressed; 2 usage
// error; 3 a gate references an experiment/table/series missing from the
// BENCH documents (a wiring break, reported distinctly from a
// regression). When $GITHUB_STEP_SUMMARY is set, the per-gate verdict
// table is appended there as markdown on pass and fail alike.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsasim/internal/report"
)

func main() {
	baselineDir := flag.String("baseline", "bench/baseline", "directory of committed BENCH_<id>.json baselines")
	currentDir := flag.String("current", "", "directory of freshly generated BENCH_<id>.json files")
	gatesPath := flag.String("gates", "", "gates file (default: <baseline>/gates.json)")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional regression of each asserted speedup")
	flag.Parse()

	if *currentDir == "" {
		fmt.Fprintln(os.Stderr, "bench-diff: -current is required")
		os.Exit(2)
	}
	if *gatesPath == "" {
		*gatesPath = filepath.Join(*baselineDir, "gates.json")
	}

	gateData, err := os.ReadFile(*gatesPath)
	if err != nil {
		fatal(err)
	}
	gates, err := report.ParseGates(gateData)
	if err != nil {
		fatal(err)
	}
	baseline, err := loadDocs(*baselineDir)
	if err != nil {
		fatal(err)
	}
	current, err := loadDocs(*currentDir)
	if err != nil {
		fatal(err)
	}

	results := report.CompareGates(gates, baseline, current, *threshold)
	failed, missing := 0, 0
	fmt.Printf("%-52s %9s %9s %7s  %s\n", "gate", "baseline", "current", "delta", "verdict")
	for _, r := range results {
		verdict := "ok"
		switch {
		case r.Missing:
			missing++
			verdict = "MISSING: " + r.Reason
		case r.Failed:
			failed++
			verdict = "FAIL: " + r.Reason
		}
		delta := "-"
		if r.Baseline > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.Current/r.Baseline-1)*100)
		}
		fmt.Printf("%-52s %8.2fx %8.2fx %7s  %s\n", r.Gate.String(), r.Baseline, r.Current, delta, verdict)
	}

	// The verdict table lands in the CI step summary on pass and fail
	// alike, so the measured ratios are always one click away.
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-diff: step summary:", err)
		} else {
			fmt.Fprintln(f, report.MarkdownGates(results, *threshold))
			f.Close()
		}
	}

	// Unevaluable gates are a distinct failure: the gate references an
	// experiment, table, or series that is not in the candidate (or
	// baseline) documents — a renamed series or a dropped experiment is
	// a wiring break, not a measured regression, and must not read as one.
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: %d of %d gates reference data missing from the BENCH documents (wiring break, not a regression)\n",
			missing, len(results))
		os.Exit(3)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: %d of %d asserted speedups regressed more than %.0f%%\n",
			failed, len(results), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("all %d asserted speedups within %.0f%% of baseline\n", len(results), *threshold*100)
}

// loadDocs reads every BENCH_*.json in dir, keyed by experiment id.
func loadDocs(dir string) (map[string]report.BenchDoc, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	docs := make(map[string]report.BenchDoc)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var doc report.BenchDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		docs[doc.Experiment] = doc
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json files in %s", dir)
	}
	return docs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-diff:", err)
	os.Exit(1)
}
