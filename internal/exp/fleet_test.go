package exp

import (
	"testing"

	"dsasim/internal/fleet"
)

// TestFleetExperimentShape runs the fleet experiment at reduced scale
// and pins what the CI gates rely on: the headline table carries an
// attained and a base point per scenario, both scenarios attain at
// least their design load, and every phase row is populated for both
// classes.
func TestFleetExperimentShape(t *testing.T) {
	tables := fleetTables(0.2)
	if len(tables) != 3 || tables[0].ID != "fleet-slo" {
		t.Fatalf("tables = %d, want [fleet-slo fleet-packetswitch fleet-msgbroker]", len(tables))
	}
	slo := tables[0]
	for i, sc := range fleet.Scenarios() {
		x := float64(i)
		att, ok := slo.Get("attained", x)
		if !ok {
			t.Fatalf("%s: no attained point", sc.Name)
		}
		base, ok := slo.Get("base", x)
		if !ok || base != sc.BaseRate/1e3 {
			t.Fatalf("%s: base = %v (ok=%v), want %v", sc.Name, base, ok, sc.BaseRate/1e3)
		}
		t.Logf("%s: attained %.0f kops/s (%.2fx base)", sc.Name, att, att/base)
		if att < base {
			t.Errorf("%s: attained %.0f below design load %.0f", sc.Name, att, base)
		}
	}

	for _, pt := range tables[1:] {
		if got := len(pt.Xs()); got != 5 {
			t.Fatalf("%s: %d phase rows, want 5", pt.ID, got)
		}
		for _, series := range []string{"fg-offered", "fg-goodput", "bg-offered", "bg-goodput", "fg-p99us", "bg-p99us"} {
			for _, x := range pt.Xs() {
				if v, ok := pt.Get(series, x); !ok || v <= 0 {
					t.Errorf("%s: missing or non-positive (%s, phase %v)", pt.ID, series, x)
				}
			}
		}
	}
}
