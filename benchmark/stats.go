package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reportable are the percentiles the benchmark may name a tail by.
var reportable = []int{50, 75, 90, 95, 99}

// supportedPercentile applies the reporting rule: the highest reportable
// percentile with at least ten samples beyond it. Below 20 samples not even
// the median qualifies and 0 is returned.
func supportedPercentile(n int) int {
	best := 0
	for _, p := range reportable {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the spreads `compare` prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0], asc[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
