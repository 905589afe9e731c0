package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) and
// how many samples lie strictly beyond its rank. Nearest rank keeps every
// reported value an observed sample, so it carries all its digits.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// percentile is quantile with the reporting rule enforced: it fails when
// fewer than minBeyond samples lie beyond the rank.
func percentile(sorted []int64, q float64, what string) (int64, error) {
	v, beyond := quantile(sorted, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g over %d samples has %d beyond it, need %d",
			what, q*100, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// failRatio is (shed + failed + mismatched) over attempted operations.
// Every attempted operation is in the denominator, shed ones included:
// an operation the service refused was still asked for.
func failRatio(attempted, shed, failed, mismatched int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(shed+failed+mismatched) / float64(attempted)
}

// shedCeil is the share of a class's arrivals that may be shed or fail at
// a ramp step that still counts as attained (the fleet package's rule).
const shedCeil = 0.005

// classTally is one class's outcome at one load step.
type classTally struct {
	arrivals, shed, failed int64
	p99                    time.Duration // over resolved operations
}

// stepMargin scores one ramp step against the SLO rule: the worst over
// classes of p99 ÷ budget and (shed + failed) ÷ (shedCeil × arrivals).
// The step passes when the margin is at most 1, which is the fleet rule:
// every class meets its p99 budget and sheds or fails at most shedCeil
// of its arrivals.
func stepMargin(tallies []classTally, budgets []time.Duration) float64 {
	worst := 0.0
	for c, t := range tallies {
		worst = max(worst, float64(t.p99)/float64(budgets[c]))
		if t.arrivals > 0 {
			worst = max(worst, float64(t.shed+t.failed)/(shedCeil*float64(t.arrivals)))
		}
	}
	return worst
}

// attainedMult walks a ramp's steps from the lowest load and returns the
// load multiplier the SLO is attained up to. With lo the highest step
// passed before the first failure and hi that failure, the answer lies
// between them where the margin, interpolated linearly in its logarithm,
// crosses 1; the step rule alone would return lo and jump a whole step
// between seeds when hi sits near the limit. A ramp that never fails
// attains its top step; one whose first step fails attains 0.
func attainedMult(mults, margins []float64) float64 {
	lo := -1
	for i, m := range margins {
		if m > 1 {
			if lo < 0 {
				return 0
			}
			mlo, mhi := max(margins[lo], 1e-9), m
			return mults[lo] + (mults[i]-mults[lo])*math.Log(1/mlo)/math.Log(mhi/mlo)
		}
		lo = i
	}
	if lo < 0 {
		return 0
	}
	return mults[lo]
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint hashes a set of named deterministic values in name order.
// Two runs print the same fingerprint exactly when every value matches
// bit for bit.
func fingerprint(vals map[string]float64) string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write([]byte(strconv.FormatFloat(vals[k], 'g', -1, 64)))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
