package main

import (
	"fmt"
	"math/rand"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/server"
	"qcpa/internal/workload/tpch"
)

const (
	reallocBackends = 8
	// driftFactor scales the counts of half the templates in each
	// phase's journal.
	driftFactor = 8
	// reallocStreamLen is the length of the foreground's pre-generated
	// template order; it wraps.
	reallocStreamLen = 4096
)

// foregroundTemplates are the four cheapest TPC-H templates: what the
// foreground connection reads, through prepared handles, while the
// cluster reallocates.
var foregroundTemplates = []string{"q2", "q11", "q16", "q22"}

// Span names of one reallocation cycle.
const (
	spanCycle    = "cycle"
	spanClassify = "classify"
	spanMemetic  = "core.memetic"
	spanPlan     = "matching.plan"
	spanMigrate  = "cluster.migrate"
	spanVerify   = "verify"
)

var cycleChildren = [4]string{spanClassify, spanMemetic, spanPlan, spanMigrate}

// solvePhase is the planning half of a reallocation cycle.
func solvePhase(journal []classify.Entry, rows map[string]int64) (*classify.Result, *core.Allocation, time.Time, error) {
	cls, err := classify.Classify(journal, tpch.Schema(), classify.Options{Strategy: classify.ColumnBased, RowCounts: rows})
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	classified := time.Now()
	alloc, err := core.Memetic(cls.Classification, core.UniformBackends(reallocBackends), core.MemeticOptions{Seed: 1})
	return cls, alloc, classified, err
}

// steadyClasses returns the class of each foreground statement, which
// must be the same under both phases' classifications: a prepared
// handle names its class once, and re-resolves that class's tables
// whenever the routing generation moves. Classes are named by rank of
// weight; the foreground templates are the four lightest and are never
// boosted, so they keep the last four ranks in both phases.
//
// (Handles prepared without a class would route by their own table
// references instead. That path fails under live migration: see
// README.md, "Findings".)
func steadyClasses(journals [2][]classify.Entry, rows map[string]int64, sqls []string) ([]string, error) {
	var names [2][]string
	for phase, j := range journals {
		cls, err := classify.Classify(j, tpch.Schema(), classify.Options{Strategy: classify.ColumnBased, RowCounts: rows})
		if err != nil {
			return nil, err
		}
		for _, sql := range sqls {
			names[phase] = append(names[phase], cls.ClassOf[sql])
		}
	}
	for i := range sqls {
		if names[0][i] != names[1][i] || names[0][i] == "" {
			return nil, fmt.Errorf("foreground statement %d is class %q in phase A and %q in phase B", i, names[0][i], names[1][i])
		}
	}
	return names[0], nil
}

// cycleRecord is one recorded reallocation cycle: its duration, and
// those of its four child spans in cycleChildren's order.
type cycleRecord struct {
	end       time.Time
	seconds   float64
	children  [4]float64 // seconds
	movedRows int64
	movedFrac float64
	classes   int
}

// reallocDriver runs back-to-back reallocation cycles on its own
// goroutine while the foreground connection reads.
type reallocDriver struct {
	cluster  *cluster.Cluster
	load     cluster.Loader
	rows     map[string]int64
	journals [2][]classify.Entry
	refSums  map[string]uint64
	tr       *tracer

	installed *core.Allocation
	// solved[phase] is the allocation last solved for the phase.
	solved [2]*core.Allocation
	cycles []cycleRecord
	oracle []string
	err    error
}

// cycle runs reallocation cycle number n (phase n%2) and, when record
// is set, keeps its spans and timings.
func (d *reallocDriver) cycle(n int, record bool) error {
	phase := n % 2
	// For the oracle: what each backend holds going in.
	before := make([]map[string]bool, d.cluster.NumBackends())
	for b := range before {
		before[b] = map[string]bool{}
		for _, t := range d.cluster.Tables(b) {
			before[b][t] = true
		}
	}

	t0 := time.Now()
	cls, alloc, t1, err := solvePhase(d.journals[phase], d.rows)
	if err != nil {
		return err
	}
	t2 := time.Now()
	plan, _, err := matching.PlanMigration(d.installed, alloc)
	if err != nil {
		return err
	}
	t3 := time.Now()
	rep, err := d.cluster.MigrateLive(alloc, d.load, cluster.LiveOptions{})
	if err != nil {
		return fmt.Errorf("cycle %d: %w", n, err)
	}
	t4 := time.Now()
	naive := matching.NaiveMigrationSize(d.installed, alloc)
	d.installed = alloc
	d.solved[phase] = alloc

	// The oracle is outside the cycle's time: the allocation is valid,
	// every class's tables are where it is assigned, and every table
	// that arrived in this cycle equals the reference copy (tables that
	// stayed put cannot have changed: the workload is read-only).
	if err := alloc.Validate(); err != nil {
		d.fail("cycle %d: %v", n, err)
	}
	for _, msg := range classTablesPlaced(d.cluster, alloc, rep.Mapping) {
		d.fail("cycle %d: %s", n, msg)
	}
	for b := range before {
		for _, t := range d.cluster.Tables(b) {
			if before[b][t] {
				continue
			}
			if sum, err := d.cluster.Backend(b).TableChecksum(t); err != nil || sum != d.refSums[t] {
				d.fail("cycle %d: backend %d received table %s with checksum %x (err %v), reference %x", n, b, t, sum, err, d.refSums[t])
			}
		}
	}
	t5 := time.Now()
	if !record {
		return nil
	}
	rec := cycleRecord{
		end: t4, seconds: t4.Sub(t0).Seconds(), movedRows: rep.MovedRows,
		movedFrac: ratio(plan.MoveSize, naive), classes: len(cls.Classification.Classes()),
	}
	parent := d.tr.add(spanCycle, n, -1, t0, t4)
	edges := [5]time.Time{t0, t1, t2, t3, t4}
	for i, name := range cycleChildren {
		d.tr.add(name, n, parent, edges[i], edges[i+1])
		rec.children[i] = edges[i+1].Sub(edges[i]).Seconds()
	}
	d.tr.add(spanVerify, n, -1, t4, t5)
	d.cycles = append(d.cycles, rec)
	return nil
}

func (d *reallocDriver) fail(format string, args ...interface{}) {
	if len(d.oracle) < maxOracleMessages {
		d.oracle = append(d.oracle, fmt.Sprintf(format, args...))
	}
}

// run cycles from begin until the window's deadline (or maxCycles
// measured cycles); cycles that begin in the warm-up are not recorded.
func (d *reallocDriver) run(start, deadline time.Time, maxCycles int) {
	for n := 0; ; n++ {
		now := time.Now()
		if !now.Before(deadline) || (maxCycles > 0 && len(d.cycles) >= maxCycles) {
			return
		}
		if d.err = d.cycle(n, !now.Before(start)); d.err != nil {
			return
		}
	}
}

// runRealloc is the realloc workload.
func runRealloc(cfg runConfig) (*workloadResult, error) {
	res := newWorkloadResult(wlRealloc)
	ref, rows, err := loadTPCHRef(cfg)
	if err != nil {
		return nil, err
	}
	refSums, err := ref.Checksums(ref.Tables())
	if err != nil {
		return nil, err
	}
	templates, base, err := tpchJournal()
	if err != nil {
		return nil, err
	}
	var fgSQL []string
	steady := map[string]bool{}
	for _, name := range foregroundTemplates {
		for _, t := range templates {
			if t.Name == name {
				fgSQL = append(fgSQL, t.Journal)
				steady[t.Journal] = true
			}
		}
	}
	// Phase A (cycle 0, 2, ...) multiplies the count of every other
	// background template, phase B that of the ones between. The
	// cluster starts on B's allocation so that the first cycle already
	// moves data.
	journals := driftedJournals(base, steady, driftFactor)
	fgClass, err := steadyClasses(journals, rows, fgSQL)
	if err != nil {
		return nil, err
	}
	want, err := referenceDigests(ref, fgSQL)
	if err != nil {
		return nil, err
	}

	load := copyLoader(ref)
	var initial *core.Allocation
	f, setups, err := setupTimes(cfg.sz, func() (*fixture, error) {
		_, alloc, _, err := solvePhase(journals[1], rows)
		if err != nil {
			return nil, err
		}
		initial = alloc
		f, err := newFixture(alloc, load, 1)
		if err != nil {
			return nil, err
		}
		for i, sql := range fgSQL {
			st, err := f.clients[0].Prepare(sql, fgClass[i], false)
			if err != nil {
				f.close()
				return nil, err
			}
			f.stmts = append(f.stmts, st)
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	res.setSetup(setups)

	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, 0)))
	order := make([]int, 0, reallocStreamLen)
	for len(order) < reallocStreamLen {
		order = append(order, rng.Perm(len(fgSQL))...)
	}

	drv := &reallocDriver{
		cluster: f.cluster, load: load, rows: rows, journals: journals, refSums: refSums,
		tr: newTracer(4096), installed: initial,
	}
	drv.solved[1] = initial
	begin := time.Now()
	start := begin.Add(cfg.sz.warmup)
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		drv.run(start, start.Add(cfg.window), cfg.sz.maxCycles)
	}()
	var before, after counters
	win, loopErr := runLoop(loopSpec{
		begin: begin, conns: 1, warmup: cfg.sz.warmup, length: cfg.window, slices: cfg.sz.slices,
		maxRequests: cfg.sz.maxRequests, streamLen: len(order), wrap: true, withMem: cfg.trace,
		issue: func(conn, i int) (*server.Response, int, error) {
			resp, err := f.stmts[order[i]].Exec()
			return resp, kindRead, err
		},
		check: func(conn, i int, resp *server.Response) error {
			sql := fgSQL[order[i]]
			if got := digestWire(resp.Rows); got != want[sql] {
				return fmt.Errorf("foreground %s: %d rows hash %x, reference %d rows hash %x",
					foregroundTemplates[order[i]], got.rows, got.hash, want[sql].rows, want[sql].hash)
			}
			return nil
		},
		boundary: counterProbe(f, cfg.sz.slices, &before, &after),
	})
	<-driverDone
	if loopErr != nil {
		return nil, loopErr
	}
	if drv.err != nil {
		return nil, drv.err
	}
	if drv.solved[0] == nil || len(drv.cycles) == 0 {
		return nil, fmt.Errorf("no reallocation cycle completed inside the window")
	}
	res.setWindow(win)
	win.requestMetrics(res.EndToEnd, res.Samples)
	res.setModel(drv.solved[0], drv.solved[1])
	for _, msg := range drv.oracle {
		res.oracleFail("%s", msg)
	}
	for _, msg := range replicaChecksumErrors(f.cluster, refSums) {
		res.oracleFail("%s", msg)
	}

	// realloc_s: the mean cycle of each slice of the window (by the
	// time the cycle ended), then the median over slices like every
	// other timing. The mean, because cycle times are bimodal (the
	// matching alternates between a cheap and a dear mapping) and a
	// median would flip between the modes. A cycle still running at the
	// deadline ran partly without foreground load and is left out.
	deadline := start.Add(cfg.window)
	bySlice := make([][]float64, cfg.sz.slices)
	var measured []cycleRecord
	for _, c := range drv.cycles {
		if cfg.sz.maxCycles == 0 && c.end.After(deadline) {
			continue
		}
		s := int(c.end.Sub(start) / win.sliceLen)
		if s >= cfg.sz.slices {
			s = cfg.sz.slices - 1
		}
		bySlice[s] = append(bySlice[s], c.seconds)
		measured = append(measured, c)
	}
	var perSlice []float64
	for _, secs := range bySlice {
		if len(secs) > 0 {
			perSlice = append(perSlice, mean(secs))
		}
	}
	res.Samples["cycles"] = len(measured)
	res.EndToEnd["realloc_s"] = metricValue{Value: median(perSlice), Unit: "s", N: len(measured), Spread: medianSpread(perSlice), Parts: perSlice}

	if cfg.trace {
		res.PerLayer = map[string]metricValue{}
		win.layerMetrics(res.PerLayer, before, after)
		reallocLayerMetrics(drv, measured, journals, rows, res.PerLayer)
		if err := drv.tr.write(wlRealloc); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// reallocLayerMetrics fills the control-plane per-layer metrics from
// the cycles realloc_s was taken from (the span file also holds the
// cycle that outran the deadline).
func reallocLayerMetrics(drv *reallocDriver, cycles []cycleRecord, journals [2][]classify.Entry, rows map[string]int64, out map[string]metricValue) {
	n := len(cycles)
	var classes, moved, coverage []float64
	var children [4][]float64
	var movedRows int64
	var migrateSecs float64
	for _, c := range cycles {
		classes = append(classes, float64(c.classes))
		moved = append(moved, c.movedFrac)
		movedRows += c.movedRows
		sum := 0.0
		for i, secs := range c.children {
			children[i] = append(children[i], secs)
			sum += secs
		}
		migrateSecs += c.children[3]
		coverage = append(coverage, ratio(sum, c.seconds))
	}
	for i, m := range []struct {
		name, unit string
		perSecond  float64
	}{
		{"classify.ms_p50", "ms", 1e3},
		{"core.memetic_ms_p50", "ms", 1e3},
		{"matching.plan_us_p50", "us", 1e6},
		{"cluster.migrate_ms_p50", "ms", 1e3},
	} {
		out[m.name] = metricValue{Value: median(children[i]) * m.perSecond, Unit: m.unit, N: n}
	}
	out["classify.classes"] = metricValue{Value: mean(classes), Unit: "count", N: n}
	out["matching.moved_fraction"] = metricValue{Value: mean(moved), Unit: "ratio", N: n}
	out["cluster.migrate_rows_per_s"] = metricValue{Value: ratio(float64(movedRows), migrateSecs), Unit: "1/s", N: n}
	out["trace.cycle_coverage"] = metricValue{Value: median(coverage), Unit: "ratio", N: len(coverage)}
	out["core.memetic_scale"] = metricValue{
		Value: (core.CostOf(drv.solved[0]).Scale + core.CostOf(drv.solved[1]).Scale) / 2, Unit: "ratio", N: 2,
	}
	// The cycle spans are recorded in every run, traced or not, so
	// tracing costs this workload nothing.
	out["trace.overhead_ratio"] = metricValue{Value: 1, Unit: "ratio"}

	// Greedy is the start of every memetic solve; its own share is
	// timed here, after the window.
	var greedy []int64
	for rep := 0; rep < 5; rep++ {
		for _, j := range journals {
			cls, err := classify.Classify(j, tpch.Schema(), classify.Options{Strategy: classify.ColumnBased, RowCounts: rows})
			if err != nil {
				continue
			}
			t0 := time.Now()
			if _, err := core.Greedy(cls.Classification, core.UniformBackends(reallocBackends)); err == nil {
				greedy = append(greedy, time.Since(t0).Nanoseconds())
			}
		}
	}
	out["core.greedy_ms_p50"] = metricValue{Value: float64(percentileNS(sortNS(greedy), 0.5)) / 1e6, Unit: "ms", N: len(greedy)}
}
