package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/runtime/metrics"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	sz     sizes
}

// clientConns is the closed-loop client count of the request workloads:
// with the server in the same process, two connections with one request
// outstanding each keep both cores of the reference machine busy
// without queueing behind each other.
const clientConns = 2

func newWorkloadResult(name string) *workloadResult {
	return &workloadResult{
		Name:     name,
		Samples:  map[string]int{},
		EndToEnd: map[string]metricValue{},
	}
}

func (r *workloadResult) oracleFail(format string, args ...interface{}) {
	r.OracleErrors = append(r.OracleErrors, fmt.Sprintf(format, args...))
}

// setSetup records setup_s as the median of the set-up repetitions.
func (r *workloadResult) setSetup(times []float64) {
	r.EndToEnd["setup_s"] = metricValue{Value: median(times), Unit: "s", N: len(times), Spread: medianSpread(times), Parts: times}
	r.Samples["setups"] = len(times)
}

// setModel records the analytic quality of the installed allocations
// (their mean when the workload installs several): Eq. 1's speedup and
// Eq. 28's degree of replication. Both are deterministic.
func (r *workloadResult) setModel(allocs ...*core.Allocation) {
	var speedup, degree []float64
	for _, a := range allocs {
		speedup = append(speedup, a.Speedup())
		degree = append(degree, a.DegreeOfReplication())
	}
	r.EndToEnd["model_speedup"] = metricValue{Value: mean(speedup), Unit: "x", N: len(allocs)}
	r.EndToEnd["replication_degree"] = metricValue{Value: mean(degree), Unit: "x", N: len(allocs)}
}

// setWindow records what every workload takes from its timed window:
// request counts, the per-response oracle's findings and error_ratio.
func (r *workloadResult) setWindow(w *windowResult) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	for _, msg := range w.oracle {
		r.oracleFail("%s", msg)
	}
}

// finish derives error_ratio and the verdict, and completes a traced
// run's per-layer list.
func (r *workloadResult) finish() {
	r.EndToEnd["error_ratio"] = metricValue{Value: ratio(float64(r.Failed), float64(r.Attempted)), Unit: "ratio", N: int(r.Attempted)}
	r.Correct = len(r.OracleErrors) == 0 && r.Failed == 0 && r.Attempted > 0
	if r.PerLayer != nil {
		// The traced run's per-layer list carries the end-to-end
		// metrics BENCHMARK.json does not gate; what the workload does
		// not exercise reads 0.
		for _, spec := range layerMetrics {
			if v, ok := r.EndToEnd[spec.Name]; ok {
				r.PerLayer[spec.Name] = v
			} else if _, ok := r.PerLayer[spec.Name]; !ok {
				r.PerLayer[spec.Name] = metricValue{Unit: spec.Unit}
			}
		}
	}
}

// counters is one snapshot of the system's own counters.
type counters struct {
	cluster *metrics.Snapshot
	adm     metrics.AdmissionSnapshot
}

func takeCounters(f *fixture) counters {
	return counters{cluster: f.cluster.Metrics(), adm: f.server.Admission()}
}

// counterProbe returns a loopSpec.boundary hook that snapshots the
// counters at the window's first and last boundary.
func counterProbe(f *fixture, slices int, before, after *counters) func(int) {
	return func(s int) {
		switch s {
		case 0:
			*before = takeCounters(f)
		case slices:
			*after = takeCounters(f)
		}
	}
}

// deltaMean recovers the mean of the observations made between two
// snapshots of a (count, running mean) series.
func deltaMean(n0 int64, m0 float64, n1 int64, m1 float64) float64 {
	if n1 <= n0 {
		return 0
	}
	return (m1*float64(n1) - m0*float64(n0)) / float64(n1-n0)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics fills the per-layer metrics that come from the
// system's counters over the timed window. Histogram percentiles and
// maxima cannot be differenced, so queue_wait p99 and cutover max cover
// the warm-up too.
func counterMetrics(b, a counters, out map[string]metricValue) {
	set := func(name, unit string, v float64, n int64) { out[name] = metricValue{Value: v, Unit: unit, N: int(n)} }
	admitted := a.adm.Admitted - b.adm.Admitted
	set("server.queue_wait_us_p99", "us", float64(a.adm.QueueWait.P99US), a.adm.QueueWait.Count)
	set("server.shed", "count", float64(a.adm.Shed-b.adm.Shed), admitted)
	flushes := a.adm.Wire.Flushes - b.adm.Wire.Flushes
	set("server.frames_per_flush", "ratio", ratio(float64(a.adm.Wire.FramesOut-b.adm.Wire.FramesOut), float64(flushes)), flushes)

	gb, ga := b.cluster.GroupCommit, a.cluster.GroupCommit
	set("cluster.group_mean_batch", "count", deltaMean(gb.Rounds, gb.MeanBatch, ga.Rounds, ga.MeanBatch), ga.Rounds-gb.Rounds)
	set("cluster.group_wait_us_mean", "us", deltaMean(gb.Updates, gb.MeanWaitUS, ga.Updates, ga.MeanWaitUS), ga.Updates-gb.Updates)
	fb, fa := b.cluster.Fanout, a.cluster.Fanout
	set("cluster.fanout_mean_width", "count", deltaMean(fb.Writes, fb.MeanWidth, fa.Writes, fa.MeanWidth), fa.Writes-fb.Writes)

	var reads []float64
	for i := range a.cluster.Backends {
		r := a.cluster.Backends[i].Reads
		if i < len(b.cluster.Backends) {
			r -= b.cluster.Backends[i].Reads
		}
		reads = append(reads, float64(r))
	}
	maxReads := 0.0
	for _, r := range reads {
		maxReads = math.Max(maxReads, r)
	}
	set("cluster.backend_read_imbalance", "ratio", ratio(maxReads, mean(reads)), int64(len(reads)))

	set("cluster.retries", "count", float64(a.cluster.Reliability.Retries-b.cluster.Reliability.Retries), admitted)
	set("cluster.unavailable", "count", float64(a.cluster.Reliability.Unavailable-b.cluster.Reliability.Unavailable), admitted)
	mb, ma := b.cluster.Migration, a.cluster.Migration
	set("cluster.cutover_us_max", "us", float64(ma.MaxCutoverUS), ma.Cutovers)
	set("cluster.delta_replayed", "count", float64(ma.DeltaReplayed-mb.DeltaReplayed), ma.Runs-mb.Runs)
	set("cluster.migration_aborts", "count", float64(ma.Aborts-mb.Aborts), ma.Runs-mb.Runs)

	pb, pa := b.cluster.Planner, a.cluster.Planner
	set("cluster.prepared_reroutes", "count", float64(pa.PreparedReroutes-pb.PreparedReroutes), admitted)
	hits, misses := pa.PlanHits-pb.PlanHits, pa.PlanMisses-pb.PlanMisses
	set("sqlmini.plan_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), hits+misses)
	set("sqlmini.plan_evictions", "count", float64(pa.PlanEvictions-pb.PlanEvictions), hits+misses)
	set("sqlmini.plan_invalidations", "count", float64(pa.PlanInvalidations-pb.PlanInvalidations), hits+misses)
}

// wireValue is what the wire hands a client for an engine value.
func wireValue(v sqlmini.Value) interface{} {
	switch v.K {
	case sqlmini.KindInt:
		return v.I
	case sqlmini.KindFloat:
		return v.F
	case sqlmini.KindText:
		return v.S
	default:
		return nil
	}
}

// resultDigest is the oracle's view of a result set: its row count and
// a hash of its rows that does not depend on their order (two correct
// executions of a query without ORDER BY may order rows differently).
type resultDigest struct {
	rows int
	hash uint64
}

func digestRow(vals []interface{}) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range vals {
		buf = buf[:0]
		switch x := v.(type) {
		case nil:
			buf = append(buf, 'n')
		case int64:
			buf = strconv.AppendInt(append(buf, 'i'), x, 10)
		case float64:
			buf = strconv.AppendUint(append(buf, 'f'), math.Float64bits(x), 16)
		case string:
			buf = append(append(buf, 's'), x...)
		default:
			buf = append(buf, fmt.Sprintf("?%v", x)...)
		}
		buf = append(buf, 0)
		h.Write(buf)
	}
	return h.Sum64()
}

func digestWire(rows [][]interface{}) resultDigest {
	d := resultDigest{rows: len(rows)}
	for _, r := range rows {
		d.hash += digestRow(r)
	}
	return d
}

func digestEngine(rows []sqlmini.Row) resultDigest {
	d := resultDigest{rows: len(rows)}
	vals := make([]interface{}, 0, 16)
	for _, r := range rows {
		vals = vals[:0]
		for _, v := range r {
			vals = append(vals, wireValue(v))
		}
		d.hash += digestRow(vals)
	}
	return d
}

// referenceDigests executes every distinct statement on the reference
// engine and returns its digest by SQL text.
func referenceDigests(ref *sqlmini.Engine, sqls []string) (map[string]resultDigest, error) {
	out := make(map[string]resultDigest, len(sqls))
	for _, sql := range sqls {
		if _, ok := out[sql]; ok {
			continue
		}
		res, err := ref.Exec(sql)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		out[sql] = digestEngine(res.Rows)
	}
	return out, nil
}

// responseOK turns a wire reply into an error unless it succeeded.
func responseOK(resp *server.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK {
		return server.ResponseError(resp)
	}
	return nil
}

// classTablesPlaced checks that every class a backend of alloc is
// assigned has all its tables on the physical backend hosting it.
func classTablesPlaced(c *cluster.Cluster, alloc *core.Allocation, mapping []int) []string {
	var errs []string
	for v := 0; v < alloc.NumBackends(); v++ {
		phys := v
		if mapping != nil {
			phys = mapping[v]
		}
		held := map[string]bool{}
		for _, t := range c.Tables(phys) {
			held[t] = true
		}
		for _, name := range alloc.AssignedClasses(v) {
			for _, f := range alloc.Classification().Class(name).Fragments() {
				if t := cluster.TableOfFragment(f); !held[t] {
					errs = append(errs, fmt.Sprintf("class %s assigned to backend %d, which lacks table %s", name, phys, t))
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}
