package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p99 needs 1000.
const minBeyond = 10

// reportable says whether n samples support the q-quantile.
func reportable(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place), or
// an error when xs holds too few samples to support it.
func quantile(xs []float64, q float64) (float64, error) {
	if !reportable(len(xs), q) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, int(math.Ceil(minBeyond/(1-q)-1e-9)), len(xs))
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)], nil
}

// median returns the middle value of xs (sorted in place); any non-empty
// set has one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
