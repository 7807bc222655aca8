package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// p90 needs 100 samples, p50 needs 20.
const minTail = 10

// samplesFor is the smallest sample count that supports the pct-th
// percentile.
func samplesFor(pct int) int {
	return minTail * 100 / (100 - pct)
}

// checkSamples refuses a sample too small to report the pct-th
// percentile from.
func checkSamples(n, pct int) error {
	if need := samplesFor(pct); n < need {
		return fmt.Errorf("%d timed samples cannot support p%d: need at least %d", n, pct, need)
	}
	return nil
}

// percentile is the nearest-rank pct-th percentile of xs (0 for an
// empty sample).
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := (pct*len(s) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs, the mean of the middle two for an
// even count, as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method, matching Python's statistics.quantiles(xs, n=4).
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise a bound is compared against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
