package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples,
// sorting them in place; 0 for an empty slice. Nearest rank never
// interpolates, so every reported latency is one that was observed.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}

// best is the lowest of values for a metric that is better lower and the
// highest for one that is better higher.
func best(values []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(values)
	}
	return slices.Min(values)
}

// median is the middle value of values (mean of the middle two for an even
// count); it works on a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}
