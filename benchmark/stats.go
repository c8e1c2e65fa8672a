package main

import (
	"math"
	"sort"
)

// failedLatency is the latency recorded for a failed or shed request:
// it ranks above every successful sample when percentiles are taken.
const failedLatency = math.MaxInt64

// percentileNS returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted latencies, 0 when there are none.
func percentileNS(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortNS sorts latencies in place and returns them.
func sortNS(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// nsToUS converts a nanosecond reading to microseconds keeping the
// sub-microsecond digits.
func nsToUS(ns int64) float64 { return float64(ns) / 1e3 }

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the benchmark's acceptance rule is stated in. With fewer than
// two values all three equal the single value (or 0).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// spreadOf is the inter-quartile distance of values as a share of
// their median: the benchmark's measure of variation.
func spreadOf(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// medianSpread estimates the spread of the median of parts, which is
// what a run reports, from the spread of the parts themselves: it
// shrinks with the square root of their number, as a standard error
// does. Parts of one run share the host's mood, so this says how well
// the run pinned its own value down, not how far a run on another day
// would land; a baseline file records that run-to-run spread instead.
func medianSpread(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	return spreadOf(parts) / math.Sqrt(float64(len(parts)))
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// weightedMedian returns the value at which the cumulative weight of
// the values, taken in increasing order, first reaches half the total.
func weightedMedian(values, weights []float64) float64 {
	idx := make([]int, len(values))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	acc := 0.0
	for _, i := range idx {
		acc += weights[i]
		if acc >= total/2 {
			return values[i]
		}
	}
	return 0
}
