package main

// The workload and metric tables below are the single statement of what
// the benchmark measures: the runner fills them, the comparator applies
// their directions and bounds, README.md documents them, and a test
// holds BENCHMARK.json to them.

// Workload names, in suite order.
const (
	wlPoint   = "point-prepared"
	wlMixed   = "tpcapp-mixed"
	wlTPCH    = "tpch-analytic"
	wlRealloc = "realloc"
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{wlPoint, "v2 prepared pk probes on a fully replicated table: wire, admission, route and bind do the work; parse, text caches and writes are bypassed"},
	{wlMixed, "ad hoc TPC-App text at 50% updates: group commit, ROWA fan-out and epoch publish beside reads, stmt cache (4096) churning while the plan cache (512) holds"},
	{wlTPCH, "19-template TPC-H streams on a partial replication: plan and execute are >99% of the time, so wire, route and parse changes must show nothing"},
	{wlRealloc, "back-to-back classify, memetic, match and live-migrate cycles on 8 backends under prepared foreground reads: the control-plane path of the paper"},
}

// windowSeconds is the length of every workload's timed window. It is
// a constant, not a setting: results of windows of different lengths
// must never meet in a comparison. (ISSUE 12 proposed 30 s and allows
// 15 s; 15 s is what fits the builder's cap of 92 runs in 3420 s.)
// BENCHMARK.json's run_seconds states the same number, and the driver
// passes it back as -seconds, which main checks.
const windowSeconds = 15

// metricSpec describes one end-to-end metric of the suite.
type metricSpec struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline value by which the metric may
	// get worse before the comparator reports a regression: ISSUE 12's
	// bound, not widened. Exact metrics ignore it: they are
	// deterministic and must be equal.
	Bound float64
	Exact bool
	// Demoted marks a metric whose spread over ten runs exceeded a
	// tenth even on a quiet host: it is still measured and printed,
	// but the comparator does not gate on it and its bound was not
	// widened.
	Demoted bool
	// Workloads lists where the metric is defined; nil means all four.
	Workloads []string
	// DriverBound, when positive, lists the metric under end_to_end in
	// BENCHMARK.json with that bound; the others ride in that file's
	// per-layer list, unbounded. It differs from Bound because the two
	// gates differ. The comparator can answer "unresolved", so it keeps
	// the issue's bound however noisy the host. The builder's driver
	// cannot: it rejects the benchmark outright when the spread of ten
	// runs exceeds the bound, and asks for a bound of three times the
	// spread seen. DriverBound is that, capped at the 0.25 the file
	// allows (README.md, "What BENCHMARK.json gates"). A test holds
	// BENCHMARK.json to these tables, so the file cannot drift from
	// them.
	DriverBound float64
}

// suiteMetrics are the 12 end-to-end metrics of ISSUE 12, measured
// with tracing off. README.md ("Baseline") gives their spread over ten
// runs of the unmodified code.
var suiteMetrics = []metricSpec{
	// 7-17% over ten runs on a quiet host and 13-30% on a busy one
	// (the median of five set-ups of 0.06-0.6 s each): demoted by the
	// issue's rule. The driver requires it, so BENCHMARK.json gates it
	// at the widest bound it has.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, Demoted: true, DriverBound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.07, DriverBound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	// 14-37% on tpcapp-mixed, where it is the tail of the one heavy
	// read template.
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Demoted: true},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: []string{wlMixed}},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Workloads: []string{wlMixed}},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.07, Workloads: []string{wlTPCH}},
	{Name: "realloc_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: []string{wlRealloc}},
	// BENCHMARK.json cannot say "exact"; 1% is its nearest.
	{Name: "model_speedup", Unit: "x", Better: "higher", Exact: true, DriverBound: 0.01},
	{Name: "replication_degree", Unit: "x", Better: "lower", Exact: true, DriverBound: 0.01},
	{Name: "cpu_s_per_kreq", Unit: "s", Better: "lower", Bound: 0.07},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", Exact: true},
}

// driverMetrics are what a one-workload run prints with -trace 0 and
// BENCHMARK.json lists under end_to_end. The driver wants each of them
// on every workload and never zero, which rules out the write, pass and
// cycle timings and error_ratio whatever their spread.
func driverMetrics() []metricSpec {
	var out []metricSpec
	for _, m := range suiteMetrics {
		if m.DriverBound > 0 {
			out = append(out, m)
		}
	}
	return out
}

type layerSpec struct {
	Name   string
	Unit   string
	Better string
}

// layerMetrics are the per-layer metrics of a traced run. Every traced
// run reports all of them; a metric the workload does not exercise
// reads 0.
var layerMetrics = withUngated([]layerSpec{
	{"server.self_us_p50", "us", "lower"},
	{"server.self_us_p99", "us", "lower"},
	{"server.queue_wait_us_p99", "us", "lower"},
	{"server.shed", "count", "lower"},
	{"server.frames_per_flush", "ratio", "higher"},
	{"cluster.read_self_us_p50", "us", "lower"},
	{"cluster.write_self_us_p50", "us", "lower"},
	{"cluster.group_mean_batch", "count", "higher"},
	{"cluster.group_wait_us_mean", "us", "lower"},
	{"cluster.fanout_mean_width", "count", "lower"},
	{"cluster.backend_read_imbalance", "ratio", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.unavailable", "count", "lower"},
	{"cluster.migrate_ms_p50", "ms", "lower"},
	{"cluster.migrate_rows_per_s", "1/s", "higher"},
	{"cluster.cutover_us_max", "us", "lower"},
	{"cluster.delta_replayed", "count", "lower"},
	{"cluster.migration_aborts", "count", "lower"},
	{"cluster.prepared_reroutes", "count", "lower"},
	{"sqlmini.parse_us_p50", "us", "lower"},
	{"sqlmini.exec_us_p50", "us", "lower"},
	{"sqlmini.exec_us_p99", "us", "lower"},
	{"sqlmini.apply_round_us_p50", "us", "lower"},
	{"sqlmini.plan_hit_ratio", "ratio", "higher"},
	{"sqlmini.plan_evictions", "count", "lower"},
	{"sqlmini.plan_invalidations", "count", "lower"},
	{"sqlmini.rows_scanned_per_row_returned", "ratio", "lower"},
	{"classify.ms_p50", "ms", "lower"},
	{"classify.classes", "count", "lower"},
	{"core.greedy_ms_p50", "ms", "lower"},
	{"core.memetic_ms_p50", "ms", "lower"},
	{"core.memetic_scale", "ratio", "lower"},
	{"matching.plan_us_p50", "us", "lower"},
	{"matching.moved_fraction", "ratio", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.bytes_per_op", "B", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.heap_inuse_mb_max", "MB", "lower"},
	{"proc.read_p999_us", "us", "lower"},
	{"trace.d0_us_p50", "us", "lower"},
	{"trace.exec_share", "ratio", "higher"},
	{"trace.cycle_coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
})

// withUngated appends the end-to-end metrics BENCHMARK.json does not
// gate, which a traced run reports from its own timed window.
func withUngated(layers []layerSpec) []layerSpec {
	for _, m := range suiteMetrics {
		if m.DriverBound == 0 {
			layers = append(layers, layerSpec{m.Name, m.Unit, m.Better})
		}
	}
	return layers
}

func (m metricSpec) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}
