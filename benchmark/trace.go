package main

import (
	"fmt"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request (or
// one reallocation cycle) share Req; Parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) write(workload string) error {
	return writeJSON(fmt.Sprintf("%s/trace-%s.json", outDir, workload), t.spans)
}

// Depth names of the request ladder. Each depth replays its own slice
// of the ladder stream, so no depth warms a cache for the next and no
// insert key repeats; a layer's self time is the difference between
// the medians of adjacent depths.
const (
	depthWire    = "d0.wire"
	depthCluster = "d1.cluster"
	depthEngine  = "d2.engine"
	depthParse   = "d3.parse"
)

// ladderDepth prepares request i of the ladder stream for one depth
// (parsing or binding that belongs to a shallower layer happens here,
// untimed) and returns the request's group and the call to time. A
// group is a statement template: within one, latencies are unimodal, so
// medians of separate executions can be subtracted.
type ladderDepth func(i int) (group int, call func() error)

// ladderFuncs are a workload's four depths; a nil depth does not apply
// (d3 on a prepared workload).
type ladderFuncs struct {
	// kinds[g] is kindRead or kindWrite for group g.
	kinds   []int
	wire    ladderDepth // Client.Do / Stmt.Exec
	cluster ladderDepth // ExecuteContext / ExecPrepared
	engine  ladderDepth // pre-parsed statement on the reference engine
	parse   ladderDepth // sqlmini.Parse
}

// ladderCounts are counts a single-goroutine ladder repeats exactly:
// what the engine depth (d2) scanned and returned on the reference
// engine, which no other depth touches.
type ladderCounts struct {
	Requests int   `json:"requests"`
	Writes   int   `json:"writes"`
	Scanned  int64 `json:"scanned"`
	Rows     int   `json:"rows"`
}

func (c *ladderCounts) add(kind int, scanned int64, rows int) {
	c.Requests++
	if kind == kindWrite {
		c.Writes++
		return
	}
	c.Scanned += scanned
	c.Rows += rows
}

func (c *ladderCounts) layerMetrics(out map[string]metricValue) {
	if c.Rows > 0 {
		out["sqlmini.rows_scanned_per_row_returned"] = metricValue{
			Value: float64(c.Scanned) / float64(c.Rows), Unit: "ratio", N: c.Requests - c.Writes,
		}
	}
}

// ladderResult holds the per-depth, per-group latencies of a ladder.
type ladderResult struct {
	kinds []int
	// lat[depth][group] in ns, sorted.
	lat map[string][][]int64
	// untracedNS and tracedNS are the total times of two d0 slices,
	// one run without recording spans: their ratio is the tracing
	// overhead.
	untracedNS, tracedNS int64
}

// ladderSlices is how many slices of the ladder stream runLadder
// consumes.
const ladderSlices = 5

// runLadder replays consecutive slices of n requests of the ladder
// stream on the calling goroutine, one slice per depth, starting with a
// d0 slice that records no spans.
func runLadder(tr *tracer, n int, fn ladderFuncs) (*ladderResult, error) {
	res := &ladderResult{kinds: fn.kinds, lat: map[string][][]int64{}}
	depths := [ladderSlices]struct {
		name   string
		record bool
		prep   ladderDepth
	}{
		{depthWire, false, fn.wire},
		{depthWire, true, fn.wire},
		{depthCluster, true, fn.cluster},
		{depthEngine, true, fn.engine},
		{depthParse, true, fn.parse},
	}
	for d, depth := range depths {
		if depth.prep == nil {
			continue
		}
		lat := make([][]int64, len(fn.kinds))
		total := int64(0)
		for i := d * n; i < (d+1)*n; i++ {
			group, call := depth.prep(i)
			t0 := time.Now()
			err := call()
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s request %d: %w", depth.name, i, err)
			}
			total += t1.Sub(t0).Nanoseconds()
			if depth.record {
				tr.add(depth.name, i, -1, t0, t1)
				lat[group] = append(lat[group], t1.Sub(t0).Nanoseconds())
			}
		}
		if !depth.record {
			res.untracedNS = total
			continue
		}
		if depth.name == depthWire {
			res.tracedNS = total
		}
		for g := range lat {
			lat[g] = sortNS(lat[g])
		}
		res.lat[depth.name] = lat
	}
	return res, nil
}

// anyKind selects the groups of both kinds.
const anyKind = -1

// groups returns, for every group of one kind that the d0 slice holds,
// f(g) and the group's weight (its d0 request count).
func (l *ladderResult) groups(kind int, f func(g int) float64) (values, weights []float64, n int) {
	for g, k := range l.kinds {
		if w := len(l.lat[depthWire][g]); (kind == anyKind || k == kind) && w > 0 {
			values = append(values, f(g))
			weights = append(weights, float64(w))
			n += w
		}
	}
	return values, weights, n
}

// q returns the q-quantile in µs of one depth and group, 0 when the
// depth was not run.
func (l *ladderResult) q(depth string, g int, q float64) float64 {
	lat, ok := l.lat[depth]
	if !ok {
		return 0
	}
	return nsToUS(percentileNS(lat[g], q))
}

// typical is the weighted median over the groups of one kind of f(g):
// the value a typical request of the d0 slice sees. Differences between
// depths are taken per group first (within a template latencies are
// unimodal, so medians of separate executions can be subtracted) and
// the median over groups keeps one heavy template's noise out.
func (l *ladderResult) typical(kind int, f func(g int) float64) (float64, int) {
	values, weights, n := l.groups(kind, f)
	return weightedMedian(values, weights), n
}

// layerMetrics derives the ladder's per-layer metrics. Self times are
// differences between separate executions, so a small negative value
// is possible and is reported as measured.
func (l *ladderResult) layerMetrics(out map[string]metricValue) {
	us := func(name string, v float64, n int) { out[name] = metricValue{Value: v, Unit: "us", N: n} }
	diff := func(kind int, q float64, from string, minus ...string) (float64, int) {
		return l.typical(kind, func(g int) float64 {
			v := l.q(from, g, q)
			for _, d := range minus {
				v -= l.q(d, g, q)
			}
			return v
		})
	}
	d0, nReads := diff(kindRead, 0.5, depthWire)
	us("trace.d0_us_p50", d0, nReads)
	v, _ := diff(kindRead, 0.5, depthWire, depthCluster)
	us("server.self_us_p50", v, nReads)
	v, _ = diff(kindRead, 0.99, depthWire, depthCluster)
	us("server.self_us_p99", v, nReads)
	v, _ = diff(kindRead, 0.5, depthCluster, depthEngine, depthParse)
	us("cluster.read_self_us_p50", v, nReads)
	v, _ = diff(kindRead, 0.5, depthEngine)
	us("sqlmini.exec_us_p50", v, nReads)
	v, _ = diff(kindRead, 0.99, depthEngine)
	us("sqlmini.exec_us_p99", v, nReads)

	// The engine's share of the wire round trip, over all reads of the
	// d0 mix (means of the per-template medians: here the heavy
	// templates are the point).
	share := func(depth string) float64 {
		values, weights, _ := l.groups(kindRead, func(g int) float64 { return l.q(depth, g, 0.5) })
		sum := 0.0
		for i := range values {
			sum += values[i] * weights[i]
		}
		return sum
	}
	out["trace.exec_share"] = metricValue{Value: ratio(share(depthEngine), share(depthWire)), Unit: "ratio", N: nReads}

	_, nWrites := diff(kindWrite, 0.5, depthWire)
	if nWrites > 0 {
		v, _ = diff(kindWrite, 0.5, depthEngine)
		us("sqlmini.apply_round_us_p50", v, nWrites)
		v, _ = diff(kindWrite, 0.5, depthCluster, depthEngine, depthParse)
		us("cluster.write_self_us_p50", v, nWrites)
	}
	if l.lat[depthParse] != nil {
		v, n := diff(anyKind, 0.5, depthParse)
		us("sqlmini.parse_us_p50", v, n)
	}
	// Equal request counts: the ratio of the rates is the inverse
	// ratio of the total times.
	out["trace.overhead_ratio"] = metricValue{Value: ratio(float64(l.untracedNS), float64(l.tracedNS)), Unit: "ratio", N: nReads + nWrites}
}
