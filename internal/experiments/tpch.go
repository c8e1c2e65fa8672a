package experiments

import (
	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/stats"
)

// Fig4aTPCHThroughput regenerates Figure 4(a): TPC-H read-only
// throughput for full replication, table-based, column-based, and
// random allocation, over 1..MaxBackends backends. The partial
// allocations beat full replication because specialized backends store
// less data and cache better (the paper's super-linear effect, modelled
// by the simulator's cache factor); random allocation plateaus from
// imbalance.
func Fig4aTPCHThroughput(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "E01", Title: "Fig 4(a) TPC-H throughput",
		XLabel: "backends", YLabel: "queries/sec (simulated)",
	}
	for _, kind := range []string{"full", "table", "column", "random"} {
		ys, err := collect(opts, opts.MaxBackends, func(i int) (float64, error) {
			a, st, err := allocFor(kind, i+1, opts.Seed)
			if err != nil {
				return 0, err
			}
			res, err := measure(a, st, opts, opts.Seed, true)
			if err != nil {
				return 0, err
			}
			return res.Throughput, nil
		})
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Name: kind, X: backendRange(opts.MaxBackends), Y: ys})
	}
	return t, nil
}

// Fig4bTPCHDeviation regenerates Figure 4(b): min/avg/max throughput of
// the column-based allocation over Runs seeded repetitions. The paper
// observes at most 6% deviation — execution-time sums are an excellent
// weight measure.
func Fig4bTPCHDeviation(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "E02", Title: "Fig 4(b) TPC-H throughput deviation (column-based)",
		XLabel: "backends", YLabel: "queries/sec (simulated)",
	}
	avg := Series{Name: "average", X: backendRange(opts.MaxBackends)}
	minS := Series{Name: "minimum", X: avg.X}
	maxS := Series{Name: "maximum", X: avg.X}
	sums, err := collect(opts, opts.MaxBackends, func(i int) (stats.Summary, error) {
		var sum stats.Summary
		for r := 0; r < opts.Runs; r++ {
			a, st, err := allocFor("column", i+1, opts.Seed)
			if err != nil {
				return sum, err
			}
			res, err := measure(a, st, opts, opts.Seed+int64(r)*101, true)
			if err != nil {
				return sum, err
			}
			sum.Add(res.Throughput)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	for _, sum := range sums {
		avg.Y = append(avg.Y, sum.Mean())
		minS.Y = append(minS.Y, sum.Min())
		maxS.Y = append(maxS.Y, sum.Max())
	}
	t.Series = []Series{avg, minS, maxS}
	return t, nil
}

// Fig4cReplicationDegree regenerates Figure 4(c): degree of replication
// (Eq. 28) for full replication, table-based, column-based, and the
// MILP-optimal column-based allocation (computed up to
// OptimalMaxBackends, like the paper's 7-backend limit).
func Fig4cReplicationDegree(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "E03", Title: "Fig 4(c) TPC-H degree of replication",
		XLabel: "backends", YLabel: "degree of replication (Eq. 28)",
		Notes: "optimal series limited like the paper's LP (variable count)",
	}
	for _, kind := range []string{"full", "table", "column"} {
		ys, err := collect(opts, opts.MaxBackends, func(i int) (float64, error) {
			a, _, err := allocFor(kind, i+1, opts.Seed)
			if err != nil {
				return 0, err
			}
			return a.DegreeOfReplication(), nil
		})
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Name: kind, X: backendRange(opts.MaxBackends), Y: ys})
	}
	// Optimal (table-granularity classification keeps the MILP within
	// reach; the heuristic-vs-optimal gap is what the figure shows).
	st, err := tpchSetup(classify.TableBased, 1)
	if err != nil {
		return nil, err
	}
	optY, err := collect(opts, opts.OptimalMaxBackends, func(i int) (float64, error) {
		res, err := core.Optimal(st.cls, core.UniformBackends(i+1), core.OptimalOptions{MaxNodes: opts.OptimalNodeBudget})
		if err != nil {
			return 0, err
		}
		return res.Allocation.DegreeOfReplication(), nil
	})
	if err != nil {
		return nil, err
	}
	t.Series = append(t.Series, Series{Name: "optimal-table", X: backendRange(opts.OptimalMaxBackends), Y: optY})
	return t, nil
}

// Fig4dAllocationTime regenerates Figure 4(d): the duration of the
// physical allocation (fragment preparation + transfer + bulk load,
// Section 3.4's ETL model) for full replication vs column-based
// allocation. Reduced replication outweighs the fragmentation overhead.
func Fig4dAllocationTime(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	max := opts.MaxBackends
	if max > 7 {
		max = 7 // the paper's Figure 4(d) stops at 7
	}
	t := &Table{
		ID: "E04", Title: "Fig 4(d) duration of the allocation",
		XLabel: "backends", YLabel: "ETL duration (model units)",
	}
	model := matching.DefaultETLCostModel()
	for _, kind := range []string{"full", "column"} {
		ys, err := collect(opts, max, func(i int) (float64, error) {
			n := i + 1
			a, st, err := allocFor(kind, n, opts.Seed)
			if err != nil {
				return 0, err
			}
			empty := core.NewAllocation(st.cls, core.UniformBackends(n))
			plan, _, err := matching.PlanMigration(empty, a)
			if err != nil {
				return 0, err
			}
			// Normalize sizes to "full database = 1" so durations are
			// comparable across strategies.
			return model.Duration(plan, a) / st.cls.TotalSize(), nil
		})
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Name: kind, X: backendRange(max), Y: ys})
	}
	return t, nil
}

// Fig4eTPCHScaling regenerates Figure 4(e): relative throughput of
// full, table-based and column-based allocation at SF 1 and SF 10 on
// 1, 5 and 10 backends. Baseline is the single-node throughput at the
// same scale factor.
func Fig4eTPCHScaling(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	ns := []int{1, 5, 10}
	if opts.MaxBackends < 10 {
		ns = []int{1, opts.MaxBackends/2 + 1, opts.MaxBackends}
	}
	t := &Table{
		ID: "E05", Title: "Fig 4(e) TPC-H scaling (SF 1 vs SF 10)",
		XLabel: "backends", YLabel: "relative throughput (vs 1 backend, same SF)",
	}
	for _, sf := range []float64{1, 10} {
		for _, kindStrategy := range []struct {
			name     string
			strategy classify.Strategy
			full     bool
		}{
			{"full", classify.TableBased, true},
			{"table", classify.TableBased, false},
			{"column", classify.ColumnBased, false},
		} {
			st, err := tpchSetup(kindStrategy.strategy, sf)
			if err != nil {
				return nil, err
			}
			raw, err := collect(opts, len(ns), func(i int) (float64, error) {
				n := ns[i]
				var a *core.Allocation
				if kindStrategy.full {
					a = core.FullReplication(st.cls, core.UniformBackends(n))
				} else {
					var err error
					a, err = core.Greedy(st.cls, core.UniformBackends(n))
					if err != nil {
						return 0, err
					}
				}
				res, err := measure(a, st, opts, opts.Seed, true)
				if err != nil {
					return 0, err
				}
				return res.Throughput, nil
			})
			if err != nil {
				return nil, err
			}
			t.Series = append(t.Series, Series{
				Name: st.labelFor(kindStrategy.name, sf),
				X:    floats(ns),
				Y:    relativeToFirst(raw),
			})
		}
	}
	return t, nil
}

// labelFor builds the Figure 4(e) legend labels.
func (s *setup) labelFor(kind string, sf float64) string {
	if sf == 1 {
		return kind + " SF1"
	}
	return kind + " SF10"
}
