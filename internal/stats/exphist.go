package stats

import (
	"math/bits"
	"sync/atomic"
)

// ExpHistogram is a lock-free histogram with power-of-two buckets:
// bucket 0 counts the value 0 and bucket i ≥ 1 counts values in
// [2^(i-1), 2^i). It is safe for concurrent Observe and read calls, so
// the runtime layer can record latencies on hot request paths without a
// lock. The zero value is ready to use.
type ExpHistogram struct {
	counts [65]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one non-negative observation (negative values clamp
// to 0).
func (h *ExpHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *ExpHistogram) Count() int64 { return h.n.Load() }

// Max returns the largest observation (0 when empty).
func (h *ExpHistogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean (0 when empty).
func (h *ExpHistogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper-bound estimate of the p-quantile
// (p in [0,1]): the inclusive upper edge of the first bucket whose
// cumulative count reaches p, clamped to Max. The estimate is exact to
// within a factor of two — sufficient for the latency percentiles the
// runtime metrics export.
func (h *ExpHistogram) Quantile(p float64) int64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			var upper int64
			if i == 0 {
				upper = 0
			} else {
				upper = int64(1)<<uint(i) - 1
			}
			if m := h.max.Load(); upper > m {
				upper = m
			}
			return upper
		}
	}
	return h.max.Load()
}
