package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpch"
)

const (
	tpchBackends = 4
	// tpchStreamPasses is the number of pre-generated passes per
	// connection; the stream wraps (it is read-only).
	tpchStreamPasses = 64
	// minPasses is the least number of passes a connection measures.
	minPasses = 2
	// warmPasses is the least number of passes a connection runs before
	// it measures: the second pass over a fresh cluster still costs up
	// to three times a warm one (plans settle, the heap grows to size).
	warmPasses = 2
)

// tpchJournal is the classification input both TPC-H workloads start
// from: one entry per template, equal counts, calibrated costs.
func tpchJournal() ([]workload.Template, []classify.Entry, error) {
	mix, err := tpch.Mix()
	if err != nil {
		return nil, nil, err
	}
	return mix.Templates(), mix.Journal(10000), nil
}

func loadTPCHRef(cfg runConfig) (*sqlmini.Engine, map[string]int64, error) {
	rows := tpch.RowCounts(cfg.sz.tpchRows)
	ref := sqlmini.New()
	return ref, rows, tpch.Load(ref, nil, rows, cfg.seed)
}

// passBoundary is what a connection records between two passes.
type passBoundary struct {
	at   time.Time
	proc procSample
	ctr  *counters // first and last boundary of a traced run only
}

// passRecorder holds one connection's measured passes.
type passRecorder struct {
	lat    []int64 // per-query latency in ns, failedLatency for a failure
	bounds []passBoundary
}

func (p *passRecorder) passes() int { return len(p.bounds) - 1 }

// runTPCH is the tpch-analytic workload. Its unit of work is the pass:
// every template once, in a seeded order. A connection measures whole
// passes only, so that every measured interval holds the same work
// whatever the order; the window therefore ends at the first pass
// boundary after its deadline.
func runTPCH(cfg runConfig) (*workloadResult, error) {
	res := newWorkloadResult(wlTPCH)
	ref, rows, err := loadTPCHRef(cfg)
	if err != nil {
		return nil, err
	}
	templates, journal, err := tpchJournal()
	if err != nil {
		return nil, err
	}
	nT := len(templates)

	var (
		alloc   *core.Allocation
		classOf []string
	)
	f, setups, err := setupTimes(cfg.sz, func() (*fixture, error) {
		cls, err := classify.Classify(journal, tpch.Schema(), classify.Options{Strategy: classify.TableBased, RowCounts: rows})
		if err != nil {
			return nil, err
		}
		classOf = classOf[:0]
		for _, t := range templates {
			classOf = append(classOf, cls.ClassOf[t.Journal])
		}
		if alloc, err = core.Greedy(cls.Classification, core.UniformBackends(tpchBackends)); err != nil {
			return nil, err
		}
		return newFixture(alloc, copyLoader(ref), clientConns)
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	res.setSetup(setups)
	res.setModel(alloc)

	pool := tpchPool(templates, cfg.seed)
	sqls := make([]string, len(pool))
	for i, inst := range pool {
		sqls[i] = inst.sql
	}
	want, err := referenceDigests(ref, sqls)
	if err != nil {
		return nil, err
	}
	checkDigest := func(inst tpchInstance, resp *server.Response) error {
		if got := digestWire(resp.Rows); got != want[inst.sql] {
			return fmt.Errorf("%s: %d rows hash %x, reference %d rows hash %x (%s)",
				templates[inst.tpl].Name, got.rows, got.hash, want[inst.sql].rows, want[inst.sql].hash, inst.sql)
		}
		return nil
	}
	do := func(conn int, inst tpchInstance) (*server.Response, error) {
		return f.clients[conn].Do(server.Request{SQL: inst.sql, Class: classOf[inst.tpl]})
	}

	maxPasses := 0
	if cfg.sz.maxRequests > 0 {
		maxPasses = (cfg.sz.maxRequests + clientConns*nT - 1) / (clientConns * nT)
	}
	begin := time.Now()
	start := begin.Add(cfg.sz.warmup)
	deadline := start.Add(cfg.window)
	recs := make([]*passRecorder, clientConns)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < clientConns; c++ {
		order := tpchPasses(nT, cfg.seed, c, tpchStreamPasses)
		rec := &passRecorder{}
		recs[c] = rec
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var attempted, failed int64
			var oracle []string
			boundary := func(edge bool) {
				b := passBoundary{at: time.Now(), proc: takeProcSample(cfg.trace && edge)}
				if cfg.trace && edge {
					ctr := takeCounters(f)
					b.ctr = &ctr
				}
				rec.bounds = append(rec.bounds, b)
			}
			for p := 0; ; p++ {
				now := time.Now()
				measuring := !now.Before(start) && (p >= warmPasses || maxPasses > 0)
				// len(rec.bounds) is the number of measured passes begun.
				// A machine so slow that the deadline arrives first
				// still measures minPasses whole passes.
				if (!now.Before(deadline) && len(rec.bounds) >= minPasses) || (maxPasses > 0 && len(rec.bounds) >= maxPasses) {
					break
				}
				if measuring {
					boundary(len(rec.bounds) == 0)
				}
				for q := 0; q < nT; q++ {
					inst := pool[order[(p*nT+q)%len(order)]]
					t0 := time.Now()
					resp, err := do(c, inst)
					lat := time.Since(t0).Nanoseconds()
					ok := err == nil && resp != nil && resp.OK
					if ok {
						if cerr := checkDigest(inst, resp); cerr != nil && len(oracle) < maxOracleMessages {
							oracle = append(oracle, cerr.Error())
						}
					}
					if !ok {
						failed++
						lat = failedLatency
						if len(oracle) < maxOracleMessages {
							oracle = append(oracle, fmt.Sprintf("request failed: resp=%+v err=%v", resp, err))
						}
					}
					if measuring || !ok {
						attempted++
					}
					if measuring {
						rec.lat = append(rec.lat, lat)
					}
				}
			}
			if len(rec.bounds) > 0 {
				boundary(true)
			}
			mu.Lock()
			res.Attempted += attempted
			res.Failed += failed
			for _, msg := range oracle {
				res.oracleFail("%s", msg)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	first, last := tpchMetrics(recs, nT, res)

	if cfg.trace {
		res.PerLayer = map[string]metricValue{}
		counterMetrics(*first.ctr, *last.ctr, res.PerLayer)
		// The requests of the interval, at the steady rate.
		ops := int(res.EndToEnd["throughput_rps"].Value * last.at.Sub(first.at).Seconds())
		procMetrics(res.PerLayer, []procSample{first.proc, last.proc}, ops)
		if err := tpchLadder(cfg, f, ref, pool, classOf, res); err != nil {
			return nil, err
		}
	}
	for _, msg := range replicaChecksumErrors(f.cluster, nil) {
		res.oracleFail("%s", msg)
	}
	res.finish()
	return res, nil
}

// tpchMetrics derives the end-to-end metrics pass by pass: every pass
// runs the same 19 templates, so each pass yields one value of every
// metric, and the run reports the median over passes (a pass that a
// collection or a replan happened to stretch does not move it).
//
//   - pass_s: the pass's duration;
//   - throughput_rps: the statements all connections complete per
//     second at that pass time;
//   - read_p50_us, read_p99_us: the pass's median and slowest statement;
//   - cpu_s_per_kreq: process CPU during the pass over the statements
//     all connections complete in a pass.
//
// It returns the boundaries that delimit the interval in which every
// connection was measuring (for the traced run's counter deltas): the
// latest first boundary and the earliest last one.
func tpchMetrics(recs []*passRecorder, nT int, res *workloadResult) (first, last passBoundary) {
	var passSecs, rate, p50, p99, cpu []float64
	queries := 0
	perPass := float64(len(recs) * nT)
	for c, rec := range recs {
		b0, bn := rec.bounds[0], rec.bounds[len(rec.bounds)-1]
		if c == 0 || b0.at.After(first.at) {
			first = b0
		}
		if c == 0 || bn.at.Before(last.at) {
			last = bn
		}
		for k := 0; k < rec.passes(); k++ {
			secs := rec.bounds[k+1].at.Sub(rec.bounds[k].at).Seconds()
			lats := sortNS(append([]int64(nil), rec.lat[k*nT:(k+1)*nT]...))
			passSecs = append(passSecs, secs)
			rate = append(rate, perPass/secs)
			p50 = append(p50, nsToUS(percentileNS(lats, 0.50)))
			p99 = append(p99, nsToUS(percentileNS(lats, 0.99)))
			cpu = append(cpu, (rec.bounds[k+1].proc.cpu-rec.bounds[k].proc.cpu)/(perPass/1000))
		}
		queries += len(rec.lat)
	}
	res.Samples["reads"] = queries
	res.Samples["passes"] = len(passSecs)
	set := func(name, unit string, perPassValues []float64, n int) {
		res.EndToEnd[name] = metricValue{Value: median(perPassValues), Unit: unit, N: n, Spread: medianSpread(perPassValues), Parts: perPassValues}
	}
	set("pass_s", "s", passSecs, len(passSecs))
	set("throughput_rps", "1/s", rate, queries)
	set("read_p50_us", "us", p50, queries)
	set("read_p99_us", "us", p99, queries)
	set("cpu_s_per_kreq", "s", cpu, queries)
	return first, last
}

// tpchLadder replays one pass per depth.
func tpchLadder(cfg runConfig, f *fixture, ref *sqlmini.Engine, pool []tpchInstance, classOf []string, res *workloadResult) error {
	// One pass per depth: at ~100 ms a request, the 2,000 requests of
	// the other workloads' slices would take minutes here, and a whole
	// pass gives every depth the same template mix.
	n := len(pool) / tpchVariants
	order := tpchPasses(n, cfg.seed, ladderStream, ladderSlices)
	ctx := context.Background()
	var counts ladderCounts
	tr := newTracer(ladderSlices * n)
	lad, err := runLadder(tr, n, ladderFuncs{
		kinds: make([]int, n), // all reads
		wire: func(i int) (int, func() error) {
			inst := pool[order[i]]
			return inst.tpl, func() error {
				return responseOK(f.clients[0].Do(server.Request{SQL: inst.sql, Class: classOf[inst.tpl]}))
			}
		},
		cluster: func(i int) (int, func() error) {
			inst := pool[order[i]]
			return inst.tpl, func() error {
				_, err := f.cluster.ExecuteContext(ctx, workload.Request{SQL: inst.sql, Class: classOf[inst.tpl]})
				return err
			}
		},
		engine: func(i int) (int, func() error) {
			inst := pool[order[i]]
			stmt, parseErr := sqlmini.Parse(inst.sql)
			return inst.tpl, func() error {
				if parseErr != nil {
					return parseErr
				}
				r, err := ref.ExecStmtContext(ctx, stmt)
				if err != nil {
					return err
				}
				counts.add(kindRead, r.Scanned, len(r.Rows))
				return nil
			}
		},
		parse: func(i int) (int, func() error) {
			inst := pool[order[i]]
			return inst.tpl, func() error {
				_, err := sqlmini.Parse(inst.sql)
				return err
			}
		},
	})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	lad.layerMetrics(res.PerLayer)
	counts.layerMetrics(res.PerLayer)
	res.TraceCounts = &counts
	return tr.write(wlTPCH)
}
