package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

const (
	mixedBackends = 4
	// mixedStreamRate sizes the pre-generated statement stream per
	// connection. The stream cannot wrap (its inserts would repeat
	// keys), so it leaves ~3x headroom over the measured ~20k
	// requests/s per connection; a system that outruns it fails the run
	// with a message rather than measuring a shorter window.
	mixedStreamRate = 60_000
)

// mixedPlan is the tpcapp-mixed allocation pipeline: the resampled
// journal classified table-based and allocated greedily.
type mixedPlan struct {
	tpl     mixedTemplates
	classOf []string // class name by template index
	insert  int      // index of the order_line insert template
	alloc   *core.Allocation
}

func planMixed(eb int) (*mixedPlan, error) {
	mix, err := tpcapp.Mix(eb)
	if err != nil {
		return nil, err
	}
	p := &mixedPlan{tpl: splitTemplates(mix)}
	cls, err := classify.Classify(p.tpl.journal(10000), tpcapp.Schema(), classify.Options{
		Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(eb),
	})
	if err != nil {
		return nil, err
	}
	for i, t := range p.tpl.all {
		p.classOf = append(p.classOf, cls.ClassOf[t.Journal])
		if strings.HasPrefix(t.Journal, insertPrefix) {
			p.insert = i
		}
	}
	p.alloc, err = core.Greedy(cls.Classification, core.UniformBackends(mixedBackends))
	return p, err
}

// request is statement i of a stream as the cluster takes it.
func (p *mixedPlan) request(s *textStream, i int) workload.Request {
	ti := s.tpl[i]
	return workload.Request{SQL: s.sql(i), Class: p.classOf[ti], Write: p.tpl.all[ti].Write}
}

// runMixed is the tpcapp-mixed workload.
func runMixed(cfg runConfig) (*workloadResult, error) {
	res := newWorkloadResult(wlMixed)
	rows := tpcapp.RowCounts(cfg.sz.eb)
	ref := sqlmini.New()
	if err := tpcapp.Load(ref, nil, rows, cfg.seed); err != nil {
		return nil, err
	}

	var plan *mixedPlan
	f, setups, err := setupTimes(cfg.sz, func() (*fixture, error) {
		// Classification and allocation are part of bringing the
		// system up, so they are inside the set-up time.
		p, err := planMixed(cfg.sz.eb)
		if err != nil {
			return nil, err
		}
		plan = p
		return newFixture(p.alloc, copyLoader(ref), clientConns)
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	res.setSetup(setups)
	res.setModel(plan.alloc)

	n := int((cfg.sz.warmup + cfg.window).Seconds() * mixedStreamRate)
	if cfg.sz.maxRequests > 0 {
		n = cfg.sz.maxRequests
	}
	streams := make([]*textStream, clientConns)
	var gen sync.WaitGroup
	for c := range streams {
		gen.Add(1)
		go func(c int) {
			defer gen.Done()
			streams[c] = mixedStream(plan.tpl, cfg.seed, c, n)
		}(c)
	}
	gen.Wait()

	// inserts counts acknowledged order_line inserts for the oracle:
	// one counter per connection, the last for the ladder.
	var inserts [clientConns + 1]int64

	var before, after counters
	win, err := runLoop(loopSpec{
		conns: clientConns, warmup: cfg.sz.warmup, length: cfg.window, slices: cfg.sz.slices,
		maxRequests: cfg.sz.maxRequests, streamLen: n, withMem: cfg.trace,
		issue: func(conn, i int) (*server.Response, int, error) {
			req := plan.request(streams[conn], i)
			resp, err := f.clients[conn].Do(server.Request{SQL: req.SQL, Class: req.Class, Write: req.Write})
			kind := kindRead
			if req.Write {
				kind = kindWrite
			}
			return resp, kind, err
		},
		check: func(conn, i int, resp *server.Response) error {
			if int(streams[conn].tpl[i]) == plan.insert {
				inserts[conn]++
			}
			return nil
		},
		boundary: counterProbe(f, cfg.sz.slices, &before, &after),
	})
	if err != nil {
		return nil, err
	}
	res.setWindow(win)
	win.requestMetrics(res.EndToEnd, res.Samples)

	if cfg.trace {
		res.PerLayer = map[string]metricValue{}
		win.layerMetrics(res.PerLayer, before, after)
		// The ladder's d2 writes into ref, so the cluster must not copy
		// from it afterwards; nothing does.
		if err := mixedLadder(cfg, f, ref, plan, &inserts[clientConns], res); err != nil {
			return nil, err
		}
	}

	// Oracle: replicas agree on every table, and order_line grew by
	// exactly the acknowledged inserts.
	for _, msg := range replicaChecksumErrors(f.cluster, nil) {
		res.oracleFail("%s", msg)
	}
	wantLines := rows["order_line"]
	for _, c := range inserts {
		wantLines += c
	}
	for b := 0; b < f.cluster.NumBackends(); b++ {
		if t := f.cluster.Backend(b).Table("order_line"); t != nil && int64(t.NumRows()) != wantLines {
			res.oracleFail("backend %d: order_line has %d rows, want %d (loaded + acknowledged inserts)", b, t.NumRows(), wantLines)
		}
	}
	res.finish()
	return res, nil
}

// mixedLadder replays the ladder stream at four depths: ad hoc text
// over the wire, ExecuteContext on the cluster, the pre-parsed
// statement on the reference engine (ApplyRound for an update), and
// sqlmini.Parse alone. The groups are the templates.
func mixedLadder(cfg runConfig, f *fixture, ref *sqlmini.Engine, plan *mixedPlan, inserts *int64, res *workloadResult) error {
	n := cfg.sz.ladder
	s := mixedStream(plan.tpl, cfg.seed, ladderStream, ladderSlices*n)
	kinds := make([]int, len(plan.tpl.all))
	for i, t := range plan.tpl.all {
		if t.Write {
			kinds[i] = kindWrite
		}
	}
	ctx := context.Background()
	var counts ladderCounts
	tr := newTracer(ladderSlices * n)
	lad, err := runLadder(tr, n, ladderFuncs{
		kinds: kinds,
		wire: func(i int) (int, func() error) {
			req := plan.request(s, i)
			return int(s.tpl[i]), func() error {
				err := responseOK(f.clients[0].Do(server.Request{SQL: req.SQL, Class: req.Class, Write: req.Write}))
				if err == nil && int(s.tpl[i]) == plan.insert {
					*inserts++
				}
				return err
			}
		},
		cluster: func(i int) (int, func() error) {
			req := plan.request(s, i)
			return int(s.tpl[i]), func() error {
				_, err := f.cluster.ExecuteContext(ctx, req)
				if err == nil && int(s.tpl[i]) == plan.insert {
					*inserts++
				}
				return err
			}
		},
		engine: func(i int) (int, func() error) {
			g := int(s.tpl[i])
			stmt, parseErr := sqlmini.Parse(s.sql(i))
			return g, func() error {
				if parseErr != nil {
					return parseErr
				}
				if kinds[g] == kindWrite {
					rr := ref.ApplyRound([]sqlmini.Statement{stmt})[0]
					counts.add(kindWrite, 0, 0)
					return rr.Err
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
			return int(s.tpl[i]), func() error {
				_, err := sqlmini.Parse(s.sql(i))
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
	return tr.write(wlMixed)
}
