// Package stats provides the summary statistics used by the evaluation
// harness: streaming summaries, percentiles, histograms, and the
// deviation-from-balance metric of the paper's Figure 4(j).
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Summary accumulates count, mean, min, max and variance of a stream of
// observations (Welford's algorithm).
type Summary struct {
	n          int
	mean, m2   float64
	minV, maxV float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.minV, s.maxV = x, x
	} else {
		if x < s.minV {
			s.minV = x
		}
		if x > s.maxV {
			s.maxV = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.minV }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.maxV }

// Var returns the sample variance (0 for fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Percentile returns the p-quantile (p in [0,1]) of a sample using
// linear interpolation. The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DeviationFromBalance implements Figure 4(j)'s metric: the maximum
// relative deviation of any backend's value (e.g. processing time or
// assigned load) from the all-backend average. A perfectly balanced
// cluster yields 0; a cluster with one idle backend yields about 1.
func DeviationFromBalance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	avg := 0.0
	for _, v := range values {
		avg += v
	}
	avg /= float64(len(values))
	if avg == 0 {
		return 0
	}
	maxDev := 0.0
	for _, v := range values {
		if d := math.Abs(v-avg) / avg; d > maxDev {
			maxDev = d
		}
	}
	return maxDev
}

// Histogram counts observations into unit buckets 1..max (the paper's
// replication histograms, Figures 4(k) and 4(l), count fragments per
// replica count).
type Histogram struct {
	counts map[int]float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]float64)} }

// Add increases bucket b by w.
func (h *Histogram) Add(b int, w float64) { h.counts[b] += w }

// Get returns the weight of bucket b.
func (h *Histogram) Get(b int) float64 { return h.counts[b] }

// Buckets returns the non-empty bucket indices in ascending order.
func (h *Histogram) Buckets() []int {
	out := make([]int, 0, len(h.counts))
	for b := range h.counts {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Scale multiplies every bucket by f (used to average histograms over
// repeated runs).
func (h *Histogram) Scale(f float64) {
	for b := range h.counts {
		h.counts[b] *= f
	}
}

// Merge adds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	for b, w := range o.counts {
		h.counts[b] += w
	}
}

// ColdestEighth returns the keys of the least-used eighth of a cache
// (at least one entry): the entries ordered by (uses, key), cut at the
// quota. The key breaks ties so that which of several equally cold
// entries leave is reproducible run to run.
func ColdestEighth[V any](cache map[string]V, uses func(V) int64) []string {
	type entry struct {
		key  string
		uses int64
	}
	all := make([]entry, 0, len(cache))
	for k, v := range cache {
		all = append(all, entry{k, uses(v)})
	}
	slices.SortFunc(all, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.uses, b.uses), cmp.Compare(a.key, b.key))
	})
	keys := make([]string, min(max(len(all)/8, 1), len(all)))
	for i := range keys {
		keys[i] = all[i].key
	}
	return keys
}
