package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted:
// the smallest sample with at least a share p of the samples at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the nearest-rank
// p-quantile's position among n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// checkTail enforces the reporting rule for a percentile: at least ten
// samples must lie beyond it.
func checkTail(n int, p float64) error {
	if b := beyond(n, p); b < 10 {
		return fmt.Errorf("%d samples leave %d beyond p%g, want at least 10", n, b, p*100)
	}
	return nil
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0 (no attempts, so no waste either).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
