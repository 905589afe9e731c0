package exp

import "testing"

// TestContentionScaling is the tentpole acceptance check: the sharded
// submission plane must hold ≥ 0.7 of ideal (linear) scaling at the
// largest submitter count and beat the global-lock monolithic plane
// there — the property the CI scale gate pins with an absolute floor.
func TestContentionScaling(t *testing.T) {
	tables := contentionTables([]int{1, 64})
	if len(tables) != 1 || tables[0].ID != "contention" {
		t.Fatalf("tables = %v, want one table 'contention'", tables)
	}
	tbl := tables[0]
	for _, x := range tbl.Xs() {
		for _, s := range []string{"sharded", "global-lock", "ideal"} {
			if v, ok := tbl.Get(s, x); !ok || v <= 0 {
				t.Fatalf("missing or non-positive point (%s, %v)", s, x)
			}
		}
	}

	xs := tbl.Xs()
	max := xs[len(xs)-1]
	if max != 64 {
		t.Fatalf("largest sweep point = %v, want 64", max)
	}
	sharded, _ := tbl.Get("sharded", max)
	ideal, _ := tbl.Get("ideal", max)
	lock, _ := tbl.Get("global-lock", max)
	if eff := sharded / ideal; eff < 0.7 {
		t.Errorf("sharded efficiency at %v submitters = %.3f, want >= 0.7 (sharded %.2f, ideal %.2f Mops/s)",
			max, eff, sharded, ideal)
	}
	if sharded <= lock {
		t.Errorf("sharded plane (%.2f Mops/s) does not beat global-lock (%.2f Mops/s) at %v submitters",
			sharded, lock, max)
	}

	// Scaling must be monotone: more submitters never lose throughput
	// under the sharded plane within the sweep.
	prev := 0.0
	for _, x := range xs {
		v, _ := tbl.Get("sharded", x)
		if v < prev {
			t.Errorf("sharded throughput fell from %.2f to %.2f Mops/s at %v submitters", prev, v, x)
		}
		prev = v
	}
}
