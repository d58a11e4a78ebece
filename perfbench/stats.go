package main

import (
	"math"
	"sort"

	"memoir/internal/stats"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the nearest-rank q-quantile of xs, the convention
// the adeserved load harness uses.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// medians returns the median of every key's samples.
func medians(byKey map[string][]float64) []float64 {
	var meds []float64
	for _, xs := range byKey {
		meds = append(meds, median(xs))
	}
	return meds
}
