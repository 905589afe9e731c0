package exp

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current experiment tables")

// TestAllExperimentsProduceSaneTables runs every experiment once, checks
// structural sanity (at least one table, every table non-empty, every value
// finite and non-negative) and pins every table's CSV to its golden copy in
// testdata/golden/<table id>.csv. Run with -update to rewrite the goldens
// after an intended model change, and say why in CHANGES.md.
func TestAllExperimentsProduceSaneTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is long; skipped with -short")
	}
	dir := filepath.Join("testdata", "golden")
	all := All()
	produced := make(map[string]bool)
	ran := 0
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ran++
			tables := e.Run()
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				produced[tab.ID+".csv"] = true
				if len(tab.Series()) == 0 || len(tab.Xs()) == 0 {
					t.Fatalf("table %s empty", tab.ID)
				}
				for _, s := range tab.Series() {
					for _, x := range tab.Xs() {
						v, ok := tab.Get(s, x)
						if !ok {
							continue
						}
						if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
							t.Fatalf("table %s series %s x=%v: bad value %v", tab.ID, s, x, v)
						}
					}
				}
				if tab.String() == "" || tab.CSV() == "" {
					t.Fatalf("table %s failed to render", tab.ID)
				}
				checkGolden(t, filepath.Join(dir, tab.ID+".csv"), tab.CSV())
			}
		})
	}
	if ran < len(all) {
		return // a -run filter skipped experiments: orphans cannot be told apart
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if produced[f.Name()] {
			continue
		}
		if *update {
			if err := os.Remove(filepath.Join(dir, f.Name())); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("golden %s matches no table any experiment produced", f.Name())
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s (run with -update after an intended change)\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestByID covers the registry lookups.
func TestByID(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestTable1AllVerified asserts every Table 1 operation verifies.
func TestTable1AllVerified(t *testing.T) {
	for _, r := range verifyOps() {
		if !r.ok {
			t.Errorf("operation %s failed functional verification", r.name)
		}
	}
}
