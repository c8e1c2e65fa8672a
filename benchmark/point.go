package main

import (
	"context"
	"fmt"

	"qcpa/internal/core"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
)

const (
	pointBackends = 4
	pointClass    = "QC"
	// pointSQL's literal is the one bindable position of the handle.
	pointSQL = `SELECT c_balance FROM customer WHERE c_id = 0`
	// pointStreamRate sizes the pre-generated key stream (keys per
	// second of warm-up and window per connection); the stream wraps.
	pointStreamRate = 100_000
)

// pointAllocation replicates the customer table on every backend with
// an equal read share.
func pointAllocation(rows int64) (*core.Allocation, error) {
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "customer", Size: float64(rows)})
	cl.MustAddClass(core.NewClass(pointClass, core.Read, 1, "customer"))
	alloc := core.NewAllocation(cl, core.UniformBackends(pointBackends))
	for b := 0; b < pointBackends; b++ {
		alloc.AddFragments(b, "customer")
		alloc.SetAssign(b, pointClass, 1.0/pointBackends)
	}
	return alloc, alloc.Validate()
}

// runPoint is the point-prepared workload.
func runPoint(cfg runConfig) (*workloadResult, error) {
	res := newWorkloadResult(wlPoint)
	rows := cfg.sz.pointRows

	// The reference engine is the loader's source, the oracle's
	// reference array and the ladder's engine depth.
	ref := sqlmini.New()
	if err := tpcapp.Load(ref, []string{"customer"}, map[string]int64{"customer": rows}, cfg.seed); err != nil {
		return nil, err
	}
	all, err := ref.Exec(`SELECT c_id, c_balance FROM customer`)
	if err != nil {
		return nil, err
	}
	want := make([]float64, rows)
	for _, r := range all.Rows {
		want[r[0].I] = r[1].F
	}

	alloc, err := pointAllocation(rows)
	if err != nil {
		return nil, err
	}
	f, setups, err := setupTimes(cfg.sz, func() (*fixture, error) {
		f, err := newFixture(alloc, copyLoader(ref), clientConns)
		if err != nil {
			return nil, err
		}
		for _, cl := range f.clients {
			st, err := cl.Prepare(pointSQL, pointClass, false)
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
	res.setModel(alloc)

	n := int((cfg.sz.warmup+cfg.window).Seconds()*pointStreamRate) + 1
	keys := make([][]int64, clientConns)
	for c := range keys {
		keys[c] = pointKeys(cfg.seed, c, n, rows)
	}
	checkBalance := func(key int64, resp *server.Response) error {
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
			return fmt.Errorf("c_id %d: %d rows", key, len(resp.Rows))
		}
		if got, ok := resp.Rows[0][0].(float64); !ok || got != want[key] {
			return fmt.Errorf("c_id %d: c_balance %v, want %v", key, resp.Rows[0][0], want[key])
		}
		return nil
	}
	var before, after counters
	win, err := runLoop(loopSpec{
		conns: clientConns, warmup: cfg.sz.warmup, length: cfg.window, slices: cfg.sz.slices,
		maxRequests: cfg.sz.maxRequests, streamLen: n, wrap: true, withMem: cfg.trace,
		issue: func(conn, i int) (*server.Response, int, error) {
			resp, err := f.stmts[conn].Exec(keys[conn][i])
			return resp, kindRead, err
		},
		check:    func(conn, i int, resp *server.Response) error { return checkBalance(keys[conn][i], resp) },
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
		if err := pointLadder(cfg, f, ref, res); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// pointLadder replays the ladder stream at three depths: the prepared
// handle over the wire, the cluster's prepared statement, and the bound
// statement on the reference engine. Nothing is parsed on this
// workload, so there is no d3.
func pointLadder(cfg runConfig, f *fixture, ref *sqlmini.Engine, res *workloadResult) error {
	n := cfg.sz.ladder
	keys := pointKeys(cfg.seed, ladderStream, ladderSlices*n, cfg.sz.pointRows)
	prepared, err := f.cluster.Prepare(pointSQL, pointClass, false)
	if err != nil {
		return err
	}
	tmpl, err := sqlmini.Parse(pointSQL)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var counts ladderCounts
	tr := newTracer(ladderSlices * n)
	lad, err := runLadder(tr, n, ladderFuncs{
		kinds: []int{kindRead},
		wire: func(i int) (int, func() error) {
			return 0, func() error { return responseOK(f.stmts[0].Exec(keys[i])) }
		},
		cluster: func(i int) (int, func() error) {
			args := []sqlmini.Value{sqlmini.Int(keys[i])}
			return 0, func() error {
				_, err := f.cluster.ExecPrepared(ctx, prepared, args)
				return err
			}
		},
		engine: func(i int) (int, func() error) {
			// Binding is the cluster's work at d1, not the engine's.
			bound, bindErr := sqlmini.BindLiterals(tmpl, []sqlmini.Value{sqlmini.Int(keys[i])})
			return 0, func() error {
				if bindErr != nil {
					return bindErr
				}
				r, err := ref.ExecStmtContext(ctx, bound)
				if err != nil {
					return err
				}
				counts.add(kindRead, r.Scanned, len(r.Rows))
				return nil
			}
		},
	})
	if err != nil {
		return err
	}
	lad.layerMetrics(res.PerLayer)
	counts.layerMetrics(res.PerLayer)
	res.TraceCounts = &counts
	return tr.write(wlPoint)
}
