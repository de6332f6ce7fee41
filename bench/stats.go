package main

import (
	"math"
	"sort"
)

// percentileLadder is the order in which a percentile falls back when the
// sample is too small to support it (choosing-metrics §1: report the
// highest percentile that has at least ten samples beyond it).
var percentileLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedPercentile returns the highest ladder percentile <= want that
// has at least minBeyond samples beyond it in a sample of n; the median is
// always supported.
func supportedPercentile(want float64, n int) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if p == 50 || float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns the want-th percentile of sorted, or the next lower ladder
// percentile the sample supports, and which one it used.
func tail(sorted []float64, want float64) (value, used float64) {
	used = supportedPercentile(want, len(sorted))
	return percentile(sorted, used), used
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread is (max-min)/median of the window values: the within-run
// disagreement a reader needs to judge a median-of-windows by.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(values, n=4) uses, so that a report of several runs
// judges them the way the acceptance rule does.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, linear interpolation between the
		// neighbours; j is clamped before the weight is taken, as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
