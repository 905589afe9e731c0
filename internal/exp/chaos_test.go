package exp

import "testing"

// TestChaosExperimentShape runs the chaos experiment at reduced scale
// and pins what the CI gates rely on: the recovery plane preserves at
// least 70% of the fault-free SLO-attained headline, the defused
// negative control demonstrably fails that floor (so the gate measures
// the machinery, not luck), and the phase run recovers inside the gated
// window budget with nonzero fault-handling work behind it.
func TestChaosExperimentShape(t *testing.T) {
	tables := chaosTables(0.2)
	if len(tables) != 2 || tables[0].ID != "chaos-slo" || tables[1].ID != "chaos-recovery" {
		t.Fatalf("tables = %v, want [chaos-slo chaos-recovery]", tables)
	}
	slo := tables[0]
	get := func(series string) float64 {
		t.Helper()
		v, ok := slo.Get(series, 0)
		if !ok {
			t.Fatalf("chaos-slo: no %q point", series)
		}
		return v
	}
	att, base, ff, df := get("attained"), get("base"), get("faultfree"), get("defused")
	t.Logf("attained %.0f, base %.0f, faultfree %.0f, defused %.0f kops/s", att, base, ff, df)
	if att < 0.7*ff {
		t.Errorf("attained %.0f < 0.7x fault-free %.0f: recovery does not preserve the headline", att, ff)
	}
	if att < base {
		t.Errorf("attained %.0f below design load %.0f under faults", att, base)
	}
	if df >= 0.7*ff {
		t.Errorf("defused control attained %.0f >= 0.7x fault-free %.0f: the gate would pass without recovery", df, ff)
	}

	rec := tables[1]
	rget := func(series string) float64 {
		t.Helper()
		v, ok := rec.Get(series, 0)
		if !ok {
			t.Fatalf("chaos-recovery: no %q point", series)
		}
		return v
	}
	budget, spent := rget("recovery-budget-w"), rget("recovery-spent-w")
	if spent > budget {
		t.Errorf("recovery spent %v windows of %v budget: not bounded", spent-1, budget-1)
	}
	if rget("faults") == 0 || rget("retries") == 0 {
		t.Errorf("faults=%v retries=%v, want both nonzero under the fault plan", rget("faults"), rget("retries"))
	}
}
