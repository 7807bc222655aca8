package main

import (
	"math"
	"testing"
)

func TestSampleRule(t *testing.T) {
	if got := samplesFor(90); got != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", got)
	}
	if got := samplesFor(50); got != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", got)
	}
	if err := checkSamples(99, 90); err == nil {
		t.Error("99 samples accepted for p90")
	}
	if err := checkSamples(100, 90); err != nil {
		t.Errorf("100 samples refused for p90: %v", err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 down to 1
	}
	for _, c := range []struct {
		pct  int
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("p%d = %g, want %g", c.pct, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of 3 samples = %g, want 2", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("p90 of no samples = %g, want 0", got)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the rule the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5}, // extrapolated, as Python does
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	// Quartiles 2.75 and 8.25 around a median of 5.5: a spread of 1.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func TestEndToEndPoolsRounds(t *testing.T) {
	lat := func(lo, n int) []float64 {
		var xs []float64
		for i := 0; i < n; i++ {
			xs = append(xs, float64(lo+i))
		}
		return xs
	}
	rs := []*roundResult{
		{SetupS: 3, LatencyMS: lat(1, 50), TimedS: 1, CPUS: 2, AllocB: 50e6},
		{SetupS: 1, LatencyMS: lat(51, 50), TimedS: 1, CPUS: 2, AllocB: 50e6},
		{SetupS: 2, LatencyMS: nil, TimedS: 0, CPUS: 0, AllocB: 0},
	}
	m := runMetricsOf(rs)
	want := map[string]float64{
		"setup_s":         2,
		"ops_per_s":       50,
		"latency_p50_ms":  50,
		"latency_p90_ms":  90,
		"cpu_ms_per_op":   40,
		"alloc_mb_per_op": 1,
	}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], v)
		}
	}
	if len(m) != len(runMetrics) {
		t.Errorf("%d metrics, want the %d run metrics", len(m), len(runMetrics))
	}
}
