package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is the 990th, with 10 beyond.
	v, err := percentile(seq(1000), 0.99, "x")
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	// 999 samples leave only 9 beyond rank 990.
	if _, err := percentile(seq(999), 0.99, "x"); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond")
	}
	// A median needs 20 samples: rank 10 of 20 has 10 beyond.
	if v, err := percentile(seq(20), 0.5, "x"); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %d, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 0.5, "x"); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40}
	for _, c := range []struct {
		q      float64
		v      int64
		beyond int
	}{{0.25, 10, 3}, {0.5, 20, 2}, {0.51, 30, 1}, {1, 40, 0}, {0, 10, 3}} {
		v, beyond := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%g) = %d (%d beyond), want %d (%d beyond)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("quantile of no samples = %d, %d", v, beyond)
	}
}

func TestFailRatioCountsEveryAttempt(t *testing.T) {
	// Shed, failed and mismatched all count against every attempt,
	// including the shed ones themselves.
	if got := failRatio(1000, 3, 2, 5); got != 0.01 {
		t.Fatalf("failRatio = %v, want 0.01", got)
	}
	if got := failRatio(0, 0, 0, 0); got != 0 {
		t.Fatalf("failRatio with no attempts = %v", got)
	}
}

func TestRampScoring(t *testing.T) {
	budgets := []time.Duration{30 * time.Microsecond, 120 * time.Microsecond}
	ok := []classTally{
		{arrivals: 2000, p99: 15 * time.Microsecond},
		{arrivals: 1000, shed: 2, p99: 60 * time.Microsecond},
	}
	// Worst of 15/30, 60/120 and 2/(0.005×1000): 0.5.
	if m := stepMargin(ok, budgets); m != 0.5 {
		t.Fatalf("margin = %v, want 0.5", m)
	}
	// Exactly at the shed ceiling still passes (margin 1).
	atCeil := []classTally{{arrivals: 2000, shed: 10, p99: time.Microsecond}, {arrivals: 1}}
	if m := stepMargin(atCeil, budgets); m != 1 {
		t.Fatalf("margin at ceiling = %v, want 1", m)
	}
	// A p99 over budget fails however little was shed.
	slow := []classTally{{arrivals: 2000, p99: 60 * time.Microsecond}, {arrivals: 1000}}
	if m := stepMargin(slow, budgets); m != 2 {
		t.Fatalf("margin over budget = %v, want 2", m)
	}

	mults := []float64{0.5, 1.0, 1.5, 2.0}
	// Pass, pass (margin 0.5), fail (margin 2), and a later pass that the
	// walk never reaches: the answer lies halfway between 1.0 and 1.5 in
	// log-margin, i.e. at 1.25.
	got := attainedMult(mults, []float64{0.2, 0.5, 2, 0.1})
	if math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("attained = %v, want 1.25", got)
	}
	// A step right at margin 1 is attained exactly.
	if got := attainedMult(mults, []float64{0.2, 1, 4}); got != 1.0 {
		t.Fatalf("attained = %v, want 1.0", got)
	}
	if got := attainedMult(mults, []float64{0.2, 0.3, 0.4, 0.9}); got != 2.0 {
		t.Fatalf("ramp that never fails attains %v, want its top 2.0", got)
	}
	if got := attainedMult(mults, []float64{3}); got != 0 {
		t.Fatalf("ramp failing its first step attains %v, want 0", got)
	}
}

func TestFingerprintCoversEveryValue(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2.5}
	b := map[string]float64{"y": 2.5, "x": 1}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("fingerprint depends on map order")
	}
	b["y"] = math.Nextafter(2.5, 3)
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("fingerprint missed a one-ulp change")
	}
}

func TestLedgerConservation(t *testing.T) {
	l := newLedger(1, 1, 0)
	a, b, c := l.add(), l.add(), l.add()
	l.end(a, opOK)
	l.end(b, opShed)
	l.end(b, opFailed) // second end: violation
	ok, shed, failed := l.tally()
	if ok != 1 || shed != 1 || failed != 0 {
		t.Fatalf("tally = %d ok %d shed %d failed", ok, shed, failed)
	}
	// b ended twice and c never did.
	if l.violations != 2 {
		t.Fatalf("violations = %d, want 2 (double end of %d, %d unresolved)", l.violations, b, c)
	}
}
