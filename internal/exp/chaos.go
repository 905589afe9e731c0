package exp

import (
	"dsasim/internal/fleet"
	"dsasim/internal/report"
)

// chaosRecoveryBudget is the bounded-recovery assertion: after the fault
// plan's last scheduled failure window closes, the fleet must pull both
// classes' windowed p99 back inside budget (with no terminal failures)
// within this many recovery windows (250µs each — 3ms of virtual time at
// the committed scale). The chaos gate holds budget/spent ≥ 1.
const chaosRecoveryBudget = 12

// Chaos runs the chaos-engineering scenario (internal/fleet.Chaos): the
// packet-switch fleet under injected failures — steady page faults, a
// cold-page storm, a transient WQ disable, and a whole-device outage —
// and reports what the recovery plane preserves:
//
//   - "chaos-slo": SLO-attained throughput for three variants of the
//     same scenario: "attained" (faults + the default retry/fallback/
//     failover policy), "faultfree" (no faults — the headline ceiling),
//     and "defused" (faults with recovery zeroed — the negative
//     control). CI gates attained/faultfree ≥ 0.7: the recovery plane
//     must preserve at least 70% of the fault-free headline. The
//     defused variant demonstrably fails that floor (asserted by the
//     package test), proving the machinery — not luck — carries it.
//   - "chaos-recovery": the phase run's recovery-time measurement
//     (windows until both classes' windowed p99 sat back inside budget
//     with no terminal failures, against the budget the gate holds) and
//     the fault/retry/fallback/failover totals behind it.
//
// Ramp latencies are open-loop, so retry round trips and failover
// detours land on the SLO exactly as a waiting client observes them.
func Chaos() []*report.Table { return chaosTables(1) }

// chaosTables runs Chaos with the scenario scaled by scale, as
// fleetTables does.
func chaosTables(scale float64) []*report.Table {
	sc := fleet.Chaos().Scaled(scale)

	slo := report.New("chaos-slo", "SLO-attained throughput under injected faults",
		"variant", "kops/s")
	// The ramp measures degraded-mode capacity under recoverable faults —
	// the page-fault storm and the express-WQ disable — with the
	// whole-device outage zeroed: an N-1-capacity window inside every
	// step would gate the ramp on raw capacity (one device's), not on
	// recovery quality. The outage's cost is measured where it belongs,
	// as the phase run's recovery time below.
	rampSc := sc
	rampPlan := *sc.Faults
	rampPlan.OutageDur = 0
	rampSc.Faults = &rampPlan
	attained, base, steps := fleet.Attained(rampSc)
	slo.SetNamed("attained", sc.Name, 0, attained)
	slo.SetNamed("base", sc.Name, 0, base)
	slo.Note("%s: ramp %s, attained %.0f kops/s (%.2fx base)",
		sc.Name, rampTrace(steps), attained, attained/base)

	ff := sc
	ff.Faults = nil
	ffAttained, _, ffSteps := fleet.Attained(ff)
	slo.SetNamed("faultfree", sc.Name, 0, ffAttained)
	slo.Note("fault-free ceiling: ramp %s, attained %.0f kops/s", rampTrace(ffSteps), ffAttained)

	df := rampSc
	df.DefuseRecovery = true
	dfAttained, _, dfSteps := fleet.Attained(df)
	slo.SetNamed("defused", sc.Name, 0, dfAttained)
	slo.Note("defused (recovery off): ramp %s, attained %.0f kops/s — the negative control",
		rampTrace(dfSteps), dfAttained)
	slo.Note("gate: attained/faultfree ≥ 0.7 — the recovery plane must preserve ≥70%% of the fault-free headline")

	r := fleet.Run(sc)
	rec := report.New("chaos-recovery", "Recovery time and fault-handling totals (phase run)",
		"scenario", "windows (250µs), counts")
	// Gate-friendly encoding: both points are +1 so instant recovery
	// (zero windows) still divides; budget/spent ≥ 1 ⇔ spent ≤ budget.
	rec.SetNamed("recovery-budget-w", sc.Name, 0, chaosRecoveryBudget+1)
	spent := r.RecoveryWindows
	if !r.Recovered {
		// Never recovered before the run ended: score the whole remaining
		// run plus the budget so the margin gate fails decisively.
		spent += chaosRecoveryBudget
	}
	rec.SetNamed("recovery-spent-w", sc.Name, 0, float64(spent+1))
	rec.SetNamed("faults", sc.Name, 0, float64(r.Faults))
	rec.SetNamed("retries", sc.Name, 0, float64(r.Retries))
	rec.SetNamed("fallbacks", sc.Name, 0, float64(r.Fallbacks))
	rec.SetNamed("failovers", sc.Name, 0, float64(r.Failovers))
	rec.Note("recovered=%v in %d windows of %d budget after the last injected failure window",
		r.Recovered, r.RecoveryWindows, chaosRecoveryBudget)
	rec.Note("faults=%d retries=%d fallbacks=%d failovers=%d; offload SLO cross-check ok=%d miss=%d",
		r.Faults, r.Retries, r.Fallbacks, r.Failovers, r.SLOOk, r.SLOMiss)
	return []*report.Table{slo, rec}
}
