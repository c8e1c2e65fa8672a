package sqlmini

//qcpa:deterministic — planner statistics feed the cost model; estimates
// must be bit-identical across runs and worker counts.

// Per-view table statistics for the query planner (plan.go).
//
// Statistics ride the published views: publishLocked reuses the
// previous tableView for every table the epoch did not touch, so an
// untouched table keeps its computed statistics across any number of
// epochs. A touched table gets a fresh view (cutView) whose statistics
// start from the previous view's estimates for exactly the columns the
// writes could not have moved — no row added or repositioned, no stored
// value of the column changed — and are recomputed lazily for the rest.
// No separate invalidation protocol is needed.
//
// Estimates are deterministic: the sample is a prefix of the view's
// immutable rows, and an estimate is inherited only when recomputing it
// would give the same number, so the same data always yields the same
// numbers regardless of timing, worker count, or map-iteration order.

import "sync"

// statsSampleRows bounds the rows examined per NDV estimate. A prefix
// (not a random sample) keeps the estimate deterministic; 2048 rows is
// enough to separate "key-like" from "category-like" columns, which is
// all the join-order cost model needs.
const statsSampleRows = 2048

// ndvEstimate returns an estimate of the number of distinct values in
// the view's column col, computed lazily and cached on the view. The
// result is always >= 1.
func (tv *tableView) ndvEstimate(col int) float64 {
	n := tv.rows.len()
	if n == 0 {
		return 1
	}
	// The primary key is unique by construction.
	if tv.t != nil && col == tv.t.pkCol {
		return float64(n)
	}
	// An indexed column has its exact count for the price of the build
	// its first probe would pay anyway.
	if idx := tv.index(col); idx != nil {
		return max(float64(idx.distinct(tv)), 1)
	}
	tv.stats.mu.Lock()
	defer tv.stats.mu.Unlock()
	if tv.stats.ndv == nil {
		tv.stats.ndv = make([]float64, len(tv.t.Cols))
	}
	if v := tv.stats.ndv[col]; v > 0 {
		return v
	}
	v := estimateNDV(tv.rows, col)
	tv.stats.ndv[col] = v
	return v
}

// bucket returns how many rows one value of column col finds through
// the view's primary key or a secondary index on it — rows / distinct
// values — and 0 when the column has neither: the unit both the cost
// model and the probe-or-hash rule count index reads in.
func (tv *tableView) bucket(col int) float64 {
	if col != tv.t.pkCol && tv.index(col) == nil {
		return 0
	}
	return max(float64(tv.rows.len()), 1) / tv.ndvEstimate(col)
}

// tableStats caches lazily computed per-column statistics for one
// immutable tableView. The mutex serializes the lazy fill among
// concurrent readers of the same view, mirroring secondaryIndex.
//
//qcpa:lazycache deterministic lazy fill from immutable rows, serialized by mu; a successor view copies the still-valid entries
type tableStats struct {
	mu  sync.Mutex
	ndv []float64 // per column; 0 = not yet computed
}

// unchanged returns a copy of the computed estimates with the changed
// columns' entries cleared: what a successor view over the same row
// positions may start from. Nil when nothing has been computed.
func (s *tableStats) unchanged(changed []bool) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ndv == nil {
		return nil
	}
	out := make([]float64, len(s.ndv))
	for col, v := range s.ndv {
		if !changed[col] {
			out[col] = v
		}
	}
	return out
}

// estimateNDV counts distinct values in a deterministic prefix sample
// and extrapolates to the full row count.
func estimateNDV(rows rowStore, col int) float64 {
	n := rows.len()
	sample := min(n, statsSampleRows)
	seen := make(map[hkey]struct{}, sample)
	for i := 0; i < sample; i++ {
		seen[keyOf(rows.value(i, col))] = struct{}{}
	}
	d := len(seen)
	if d < 1 {
		d = 1
	}
	est := float64(d)
	if n > sample {
		if d*4 >= sample*3 {
			// Mostly unique in the sample: scale linearly (key-like).
			est = float64(d) * float64(n) / float64(sample)
		}
		// Otherwise the domain saturates within the prefix
		// (category-like): keep the sampled distinct count.
	}
	if est > float64(n) {
		est = float64(n)
	}
	if est < 1 {
		est = 1
	}
	return est
}
