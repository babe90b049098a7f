package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
}

// TestTailRule: p99 needs at least ten samples beyond it, which takes 1000
// samples under the nearest-rank definition.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, beyond int
		ok        bool
	}{{1000, 10, true}, {999, 9, false}, {1500, 15, true}, {100, 1, false}} {
		if got := beyond(tc.n, 0.99); got != tc.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", tc.n, got, tc.beyond)
		}
		if err := checkTail(tc.n, 0.99); (err == nil) != tc.ok {
			t.Errorf("checkTail(%d): %v", tc.n, err)
		}
	}
	if minSamples < 1000 {
		t.Errorf("minSamples %d cannot leave ten samples beyond p99", minSamples)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio with zero base = %g", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %g", got)
	}
	ms := millis([]time.Duration{3 * time.Millisecond, time.Millisecond})
	if ms[0] != 1 || ms[1] != 3 {
		t.Errorf("millis = %v, want sorted milliseconds", ms)
	}
}
