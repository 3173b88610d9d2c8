package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs 1000 samples, a p90 100, a median 20.
const minBeyond = 10

// supported reports whether n samples back a p-quantile (0 < p < 1)
// under the ten-samples-beyond rule.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// highestSupported returns the highest of the usual reporting
// percentiles that n samples support, or 0 when not even the median is.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// quantile returns the nearest-rank p-quantile of xs, sorting xs in
// place. It returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// millis converts durations to float milliseconds for quantile.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
