// Command dsa-bench regenerates the paper's evaluation artifacts (every
// table and figure) on the simulated platform and renders them as text
// tables or CSV. Experiments run concurrently on GOMAXPROCS workers; the
// output is printed and written in registry order.
//
// Usage:
//
//	dsa-bench                  # run everything
//	dsa-bench -list            # list experiment ids
//	dsa-bench -run fig3,fig10  # run a subset
//	dsa-bench -csv dir         # also write one CSV per table into dir
//	dsa-bench -json dir        # also write one BENCH_<id>.json per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dsasim/internal/exp"
	"dsasim/internal/report"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_<id>.json files")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []exp.Experiment
	if *run == "" {
		todo = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	for i, r := range runAll(todo) {
		e := todo[i]
		<-r.done
		fmt.Printf("\n### %s (%s) [%v]\n\n", e.ID, e.Title, r.wall.Round(time.Millisecond))
		for _, t := range r.tables {
			fmt.Println(t.String())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		if *jsonDir != "" {
			data, err := report.MarshalBench(e.ID, e.Title, r.tables)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+e.ID+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

// result is one experiment's output; done closes once it is filled in.
type result struct {
	tables []*report.Table
	wall   time.Duration
	done   chan struct{}
}

// runAll starts todo on runtime.GOMAXPROCS(0) workers and returns one
// result per experiment, in todo's order. Each experiment builds its own
// engine and platform, so runs share no state.
func runAll(todo []exp.Experiment) []*result {
	res := make([]*result, len(todo))
	next := make(chan int, len(todo))
	for i := range todo {
		res[i] = &result{done: make(chan struct{})}
		next <- i
	}
	close(next)
	for w := min(runtime.GOMAXPROCS(0), len(todo)); w > 0; w-- {
		go func() {
			for i := range next {
				start := time.Now()
				res[i].tables = todo[i].Run()
				res[i].wall = time.Since(start)
				close(res[i].done)
			}
		}()
	}
	return res
}
