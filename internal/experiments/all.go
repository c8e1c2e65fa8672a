package experiments

import (
	"slices"

	"qcpa/internal/core"
	"qcpa/internal/sim"
)

// measureWithPolicy runs a closed-loop simulation under a specific read
// scheduling policy and returns the throughput.
func measureWithPolicy(a *core.Allocation, st *setup, opts Options, policy int) (float64, error) {
	res, err := sim.RunClosedLoop(sim.Options{
		Alloc:      a,
		Seed:       opts.Seed,
		CacheAlpha: tpchCache.Alpha,
		CacheBeta:  tpchCache.Beta,
		Policy:     sim.SchedulerPolicy(policy),
	}, st.next(), opts.Requests)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// Experiment pairs an id with its generator and its headline metric:
// the single number cmd/qcpa-bench prints under the figure's table and
// TestRunAllQuick compares with testdata/headlines.golden.
type Experiment struct {
	ID     string
	Run    func(Options) (*Table, error)
	Metric string               // headline metric name (e.g. "column_qps")
	Value  func(*Table) float64 // extracts the headline from the table
}

// headline builds a Value: f over the Y values of the named series, 0
// when the series is absent or empty.
func headline(name string, f func(y []float64) float64) func(*Table) float64 {
	return func(t *Table) float64 {
		s := t.Get(name)
		if s == nil || len(s.Y) == 0 {
			return 0
		}
		return f(s.Y)
	}
}

func lastOf(name string) func(*Table) float64 {
	return headline(name, func(y []float64) float64 { return y[len(y)-1] })
}

func firstOf(name string) func(*Table) float64 {
	return headline(name, func(y []float64) float64 { return y[0] })
}

func peakOf(name string) func(*Table) float64 {
	return headline(name, func(y []float64) float64 { return max(0, slices.Max(y)) })
}

func meanOf(name string) func(*Table) float64 {
	return headline(name, func(y []float64) float64 {
		sum := 0.0
		for _, v := range y {
			sum += v
		}
		return sum / float64(len(y))
	})
}

// nthOf is Y[i] of the series, 0 if out of range.
func nthOf(name string, i int) func(*Table) float64 {
	return headline(name, func(y []float64) float64 {
		if i >= len(y) {
			return 0
		}
		return y[i]
	})
}

// AllExperiments lists every regenerable figure/table in DESIGN.md
// order.
func AllExperiments() []Experiment {
	return []Experiment{
		{"E01", Fig4aTPCHThroughput, "column_qps", lastOf("column")},
		{"E02", Fig4bTPCHDeviation, "avg_qps", lastOf("average")},
		{"E03", Fig4cReplicationDegree, "column_degree", lastOf("column")},
		{"E04", Fig4dAllocationTime, "column_etl", lastOf("column")},
		{"E05", Fig4eTPCHScaling, "column_sf10_rel", lastOf("column SF10")},
		{"E06", Fig4fTPCAppSpeedup, "table_speedup", lastOf("table")},
		{"E07", Fig4gTPCAppThroughput, "table_rps", lastOf("table")},
		{"E08", Fig4hTPCAppDeviation, "avg_rps", lastOf("average")},
		{"E09", Fig4iTPCAppLargeScale, "column_rel", lastOf("column")},
		{"E10", Fig4jLoadBalance, "tpcapp_dev", lastOf("TPC-App")},
		{"E11", Fig4kReplicationHistogramTable, "tpch_allnodes", lastOf("TPC-H")},
		{"E12", Fig4lReplicationHistogramColumn, "tpch_single", firstOf("TPC-H")},
		{"E13", Fig5aAutoscaleNodes, "peak_nodes", peakOf("active nodes")},
		{"E14", Fig5bAutoscaleLatency, "avg_ms", meanOf("with scaling")},
		{"E15", Fig6ClassDistribution, "classes", func(t *Table) float64 { return float64(len(t.Series)) }},
		{"E18", SpeedupModelTable, "partial_bound", lastOf("partial bound")},
		{"E19", RobustnessTable, "speedup_at_27", nthOf("speedup", 2)},
		{"E20", KSafetyTable, "tpch_repl_k2", lastOf("TPC-H replication")},
		{"E21", ClusterSmoke, "real_rps", lastOf("table-based")},
		{"A1", AblationSolvers, "memetic_scale", lastOf("memetic scale")},
		{"A2", AblationGranularity, "column_classes", lastOf("classes")},
		{"A3", AblationScheduler, "lp_qps", lastOf("least-pending")},
		{"A4", AblationMatching, "hungarian_moved", lastOf("hungarian")},
		{"E22", DriftDetection, "mismatch_triggers", lastOf("night-only allocation")},
		{"E23", MixedThroughput, "mixed_read_qps", lastOf("10% updates")},
		{"A5", AblationHorizontal, "horizontal_degree", lastOf("horizontal")},
		{"A6", AblationHeterogeneity, "aware_rps", lastOf("aware (Eq. 7 loads)")},
	}
}
