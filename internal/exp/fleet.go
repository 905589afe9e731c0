package exp

import (
	"strings"

	"dsasim/internal/fleet"
	"dsasim/internal/report"
)

// Fleet runs the fleet-scale service scenarios (internal/fleet) and
// reports three tables:
//
//   - "fleet-slo": the headline — SLO-attained throughput per scenario
//     (the highest offered load, found by a load ramp, at which every
//     QoS class meets its p99 budget with negligible shed) next to the
//     scenario's base offered load. CI holds absolute min_ratio floors
//     on attained/base per scenario.
//   - "fleet-<scenario>": per-phase breakdown across the steady /
//     diurnal / burst / overload / recovery schedule — offered and
//     goodput per class (kops/s), open-loop p99 per class (µs), and
//     shed counts.
//
// Latencies are open-loop (scheduled arrival → completion), so backlog
// and admission shed show up instead of hiding behind slowed submitters.
func Fleet() []*report.Table { return fleetTables(1) }

// fleetTables runs Fleet with the scenarios' virtual durations and
// connection counts scaled by scale (rates, sizes and budgets are
// untouched: the operating point is the scenario). 1 is the committed
// scale.
func fleetTables(scale float64) []*report.Table {
	slo := report.New("fleet-slo", "SLO-attained throughput per fleet scenario",
		"scenario", "kops/s")
	tables := []*report.Table{slo}
	for i, sc := range fleet.Scenarios() {
		sc = sc.Scaled(scale)
		attained, base, steps := fleet.Attained(sc)
		slo.SetNamed("attained", sc.Name, float64(i), attained)
		slo.SetNamed("base", sc.Name, float64(i), base)
		slo.Note("%s: ramp %s, attained %.0f kops/s (%.2fx base)",
			sc.Name, rampTrace(steps), attained, attained/base)

		r := fleet.Run(sc)
		short := strings.TrimSuffix(sc.Name, "-fleet")
		pt := report.New("fleet-"+short, "Fleet phases: "+sc.Name, "phase", "kops/s (rates), µs (p99)")
		for pi, ph := range r.Phases {
			x := float64(pi)
			pt.SetNamed("fg-offered", ph.Name, x, ph.Offered[fleet.FG])
			pt.SetNamed("fg-goodput", ph.Name, x, ph.Goodput[fleet.FG])
			pt.SetNamed("bg-offered", ph.Name, x, ph.Offered[fleet.BG])
			pt.SetNamed("bg-goodput", ph.Name, x, ph.Goodput[fleet.BG])
			pt.SetNamed("fg-p99us", ph.Name, x, float64(ph.P99[fleet.FG].Nanoseconds())/1e3)
			pt.SetNamed("bg-p99us", ph.Name, x, float64(ph.P99[fleet.BG].Nanoseconds())/1e3)
			pt.SetNamed("bg-shed", ph.Name, x, float64(ph.Shed[fleet.BG]))
		}
		pt.Note("open-loop latencies (arrival-stamped); ops attributed to their arrival's phase")
		pt.Note("offload-layer SLO cross-check: ok=%d miss=%d", r.SLOOk, r.SLOMiss)
		tables = append(tables, pt)
	}
	slo.Note("attained = highest ramp step where fg and bg p99 meet budget with <0.5%% shed; base = the Mult=1.0 offered load the floors normalize against")
	return tables
}

// rampTrace renders a ramp walk compactly for the table notes.
func rampTrace(steps []fleet.RampStep) string {
	var b strings.Builder
	for i, st := range steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		mark := "+"
		if !st.Pass {
			mark = "-"
		}
		b.WriteString(mark)
		b.WriteString(report.FormatBytes(st.Mult))
	}
	return b.String()
}
