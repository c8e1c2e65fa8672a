package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// buildJoinDB creates a three-table join schema with deterministic
// data: two "big" tables of n rows linked by an equi edge, and a small
// dimension table with a selective tag column.
func buildJoinDB(tb testing.TB, n int) *Engine {
	tb.Helper()
	e := New()
	for _, ddl := range []string{
		`CREATE TABLE jbig1 (id INT PRIMARY KEY, dim_id INT, v INT)`,
		`CREATE TABLE jbig2 (id INT PRIMARY KEY, b1_id INT, v INT)`,
		`CREATE TABLE jdim (id INT PRIMARY KEY, tag TEXT)`,
	} {
		if _, err := e.Exec(ddl); err != nil {
			tb.Fatalf("Exec(%q): %v", ddl, err)
		}
	}
	rows1 := make([]Row, 0, n)
	rows2 := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows1 = append(rows1, Row{Int(int64(i)), Int(int64(i % 16)), Int(int64(i * 7))})
		rows2 = append(rows2, Row{Int(int64(i)), Int(int64(i)), Int(int64(i * 3))})
	}
	dim := make([]Row, 0, 16)
	for i := 0; i < 16; i++ {
		dim = append(dim, Row{Int(int64(i)), Text(fmt.Sprintf("t%d", i%4))})
	}
	for table, rows := range map[string][]Row{"jbig1": rows1, "jbig2": rows2, "jdim": dim} {
		if err := e.BulkInsert(table, rows); err != nil {
			tb.Fatalf("BulkInsert(%s): %v", table, err)
		}
	}
	return e
}

// pessimalJoin is a 3-table join written in the worst textual order:
// the two big tables first, the selective dimension last.
const pessimalJoin = `SELECT b1.v FROM jbig1 b1 JOIN jbig2 b2 ON b2.b1_id = b1.id JOIN jdim d ON d.id = b1.dim_id WHERE d.tag = 't0'`

// planOrder plans sql against the engine's current view and returns
// the chosen physical scan order.
func planOrder(e *Engine, sql string) ([]string, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := st.AST.(*SelectStmt); !ok {
		return nil, fmt.Errorf("not a SELECT: %T", st.AST)
	}
	p, err := e.planFor(st.Shape, e.loadView())
	if err != nil {
		return nil, err
	}
	order := make([]string, len(p.scans))
	for i := range p.scans {
		order[i] = p.scans[i].table
	}
	return order, nil
}

// TestJoinOrderCostBased: the dimension table with the selective filter
// must be joined first even though the SQL text names it last.
func TestJoinOrderCostBased(t *testing.T) {
	e := buildJoinDB(t, 1000)
	order, err := planOrder(e, pessimalJoin)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "jdim" {
		t.Fatalf("scan order = %v, want jdim first", order)
	}
	// And the plan is marked reordered for the metrics.
	ps := e.PlannerStats()
	if ps.JoinPlans < 1 || ps.Reordered < 1 {
		t.Fatalf("planner stats = %+v, want join plan counted as reordered", ps)
	}
	// The reordered plan still returns the right rows: jdim tag 't0' is
	// ids {0,4,8,12}, each with 1000/16 jbig1 rows and one jbig2 match.
	r := mustExec(t, e, pessimalJoin)
	if want := 4 * 1000 / 16; len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
}

// TestPlannerDeterminism: same statement + same stats must produce a
// bit-identical join order across runs, engines, and concurrent
// planners (exercised under -race by the suite).
func TestPlannerDeterminism(t *testing.T) {
	ref := buildJoinDB(t, 500)
	want, err := planOrder(ref, pessimalJoin)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		e := buildJoinDB(t, 500)
		const workers = 8
		got := make([][]string, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w], errs[w] = planOrder(e, pessimalJoin)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if fmt.Sprint(got[w]) != fmt.Sprint(want) {
				t.Fatalf("run %d worker %d: order %v, want %v", run, w, got[w], want)
			}
		}
	}
}

// TestPlanCacheHitWithParams: repeated statements of the same shape hit
// the cache and still see their own literals.
func TestPlanCacheHitWithParams(t *testing.T) {
	e := newTestDB(t)
	before := e.PlannerStats()
	r := mustExec(t, e, `SELECT name FROM item WHERE id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "apple" {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT name FROM item WHERE id = 3`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "cherry" {
		t.Fatalf("cached plan with new literal: rows = %v", r.Rows)
	}
	// Same shape again with a different IN list of equal length.
	r = mustExec(t, e, `SELECT id FROM item WHERE id IN (1, 2)`)
	if len(r.Rows) != 2 {
		t.Fatalf("IN rows = %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT id FROM item WHERE id IN (3, 4)`)
	if len(r.Rows) != 2 {
		t.Fatalf("cached IN with new literals: rows = %v", r.Rows)
	}
	after := e.PlannerStats()
	if hits := after.Hits - before.Hits; hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2 (stats %+v)", hits, after)
	}
	// Aggregation through a cached plan sees its own parameters too.
	r1 := mustExec(t, e, `SELECT cust, SUM(qty) AS s FROM orders WHERE qty > 1 GROUP BY cust ORDER BY cust`)
	r2 := mustExec(t, e, `SELECT cust, SUM(qty) AS s FROM orders WHERE qty > 2 GROUP BY cust ORDER BY cust`)
	if len(r1.Rows) == len(r2.Rows) {
		t.Fatalf("different params, same output size: %v vs %v", r1.Rows, r2.Rows)
	}
}

// TestPreparedReadAllocations pins what the engine spends on a prepared
// pk read once its plan is cached: binding pairs the template's shape
// with the args (no copy of the tree), the plan is found under the key
// Parse rendered (no walk of the tree), and the allocations left are the
// run's own — its state, the result and the one row.
func TestPreparedReadAllocations(t *testing.T) {
	e := newTestDB(t)
	tmpl, err := Parse(`SELECT name FROM item WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{Int(3)}
	ctx := context.Background()
	exec := func() {
		st, err := BindLiterals(tmpl, args)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecStmtContext(ctx, st)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "cherry" {
			t.Fatalf("rows = %v, err = %v", res, err)
		}
	}
	exec() // builds and caches the plan
	if got := testing.AllocsPerRun(200, exec); got > 5 {
		t.Fatalf("a prepared pk read allocates %.0f objects in the engine, want <= 5", got)
	}
}

// BenchmarkSqlminiJoinOrder is the acceptance benchmark for cost-based
// join ordering: pessimalJoin names the selective dimension table last,
// so only a reordered plan avoids materializing the big1⋈big2 product.
func BenchmarkSqlminiJoinOrder(b *testing.B) {
	e := buildJoinDB(b, 3000)
	st, err := Parse(pessimalJoin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.ExecStmt(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("join produced no rows")
		}
	}
}

// coldShapes parses pessimalJoin n times, each with a LIMIT no other
// text carries. LIMIT is part of a statement's shape, so the plan cache
// misses on every one and its plan is built cold; the limits are far
// above any result size and change no output. Parsing happens here, not
// in what the callers measure.
func coldShapes(tb testing.TB, n int) []Statement {
	stmts := make([]Statement, n)
	for i := range stmts {
		st, err := Parse(fmt.Sprintf("%s LIMIT %d", pessimalJoin, 1<<30+i))
		if err != nil {
			tb.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// BenchmarkPlanCacheHit compares a cold plan build (a shape the cache
// has not seen, every iteration) against the warm lookup path, over a
// deliberately tiny dataset so planning is what dominates. Run with
// -benchmem: the hit path must allocate less than half of the cold path.
func BenchmarkPlanCacheHit(b *testing.B) {
	run := func(b *testing.B, cold bool) {
		e := buildJoinDB(b, 12)
		st, err := Parse(pessimalJoin)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecStmt(st); err != nil {
			b.Fatal(err)
		}
		var shapes []Statement
		if cold {
			shapes = coldShapes(b, b.N)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				st = shapes[i]
			}
			if _, err := e.ExecStmt(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("hit", func(b *testing.B) { run(b, false) })
}

// TestPlanCacheHitAllocations pins the BenchmarkPlanCacheHit acceptance
// ratio in the regular test suite: planning from the cache must cost
// less than half the allocations of planning cold.
func TestPlanCacheHitAllocations(t *testing.T) {
	e := buildJoinDB(t, 12)
	shapes := coldShapes(t, 51) // AllocsPerRun(50) runs its function 51 times
	var st Statement
	cold := testing.AllocsPerRun(50, func() {
		st, shapes = shapes[0], shapes[1:]
		if _, err := e.ExecStmt(st); err != nil {
			t.Error(err)
		}
	})
	hit := testing.AllocsPerRun(50, func() { // the last cold shape, now cached
		if _, err := e.ExecStmt(st); err != nil {
			t.Error(err)
		}
	})
	if hit >= cold/2 {
		t.Fatalf("cache hit allocates %.0f objs/op vs %.0f cold; want < half", hit, cold)
	}
}

// TestPlanInvalidation: a cached plan is valid for a view, not for a
// generation. Nothing flushes the cache; a change to a table replaces
// exactly the plans that touch it, each dropped by its own next lookup,
// and plans on other tables keep hitting.
func TestPlanInvalidation(t *testing.T) {
	e := newTestDB(t)
	const (
		onItem   = `SELECT name FROM item WHERE id = 1`
		onOrders = `SELECT cust FROM orders WHERE oid = 10`
		onBoth   = `SELECT o.oid FROM orders o JOIN item i ON o.item_id = i.id`
	)
	all := []string{onItem, onOrders, onBoth}
	for _, q := range all {
		mustExec(t, e, q)
	}
	// expect runs every statement once and checks which were served from
	// the cache and which had their entry dropped and rebuilt.
	expect := func(step string, replaced ...string) {
		t.Helper()
		for _, q := range all {
			before := e.PlannerStats()
			mustExec(t, e, q)
			after := e.PlannerStats()
			hit := after.Hits == before.Hits+1
			dropped := after.Invalidations == before.Invalidations+1
			if want := slices.Contains(replaced, q); hit == want || dropped != want {
				t.Errorf("%s: %q hit=%v dropped=%v, want replaced=%v", step, q, hit, dropped, want)
			}
			if after.Entries != int64(len(all)) {
				t.Errorf("%s: %d cached plans after %q, want %d", step, after.Entries, q, len(all))
			}
		}
	}
	expect("warm cache")

	before := e.PlannerStats()
	mustExec(t, e, `CREATE TABLE extra (a INT PRIMARY KEY)`)
	if after := e.PlannerStats(); after.Entries != before.Entries || after.Invalidations != before.Invalidations {
		t.Fatalf("an unrelated CREATE TABLE touched the cache: %+v -> %+v", before, after)
	}
	expect("unrelated CREATE TABLE")

	// CREATE INDEX: the plans on item no longer match its index set. A
	// view pinned before it lacks the index; it gets a transient plan and
	// evicts nothing.
	old := e.AcquireView()
	if err := e.CreateIndex("item", "stock"); err != nil {
		t.Fatal(err)
	}
	expect("CREATE INDEX item(stock)", onItem, onBoth)
	const byStock = `SELECT name FROM item WHERE stock = 100`
	if r := mustExec(t, e, byStock); r.Scanned != 1 {
		t.Fatalf("Scanned = %d, want 1 via the new index", r.Scanned)
	}
	before = e.PlannerStats()
	r, err := e.QueryView(old, byStock)
	if err != nil || len(r.Rows) != 1 || r.Scanned != 4 {
		t.Fatalf("pre-index view: rows %v scanned %d err %v, want 1 row from a full scan", r.Rows, r.Scanned, err)
	}
	if after := e.PlannerStats(); after.Entries != before.Entries || after.Invalidations != before.Invalidations {
		t.Fatalf("a pinned pre-index view evicted: %+v -> %+v", before, after)
	}
	if r := mustExec(t, e, byStock); r.Scanned != 1 {
		t.Fatalf("Scanned = %d after the pinned run, want 1: the cached plan was replaced", r.Scanned)
	}
	all = append(all, byStock)
	expect("pinned pre-index view")

	// DROP + CREATE: a new *Table under the old name.
	mustExec(t, e, `DROP TABLE orders`)
	mustExec(t, e, `CREATE TABLE orders (oid INT PRIMARY KEY, item_id INT, qty INT, cust TEXT)`)
	mustExec(t, e, `INSERT INTO orders VALUES (10, 1, 3, 'ann')`)
	expect("DROP+CREATE orders", onOrders, onBoth)

	// Re-copy over a referenced table (how a resync lands one): cut,
	// drop, install the cut.
	cut, err := e.CutTable("item")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `DROP TABLE item`)
	if err := e.CreateTable("item", cut.Columns()); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("item", cut.Rows(0, cut.NumRows())); err != nil {
		t.Fatal(err)
	}
	expect("re-copy item", onItem, onBoth, byStock)
	if got := e.Indexes("item"); len(got) != 1 || got[0] != "stock" {
		t.Fatalf("Indexes(item) after the re-copy = %v, want [stock]", got)
	}
}

// TestPlanDriftRebuild: a cached join plan is rebuilt when a table's
// cardinality moves far enough to invalidate the chosen order.
func TestPlanDriftRebuild(t *testing.T) {
	e := buildJoinDB(t, 100)
	const q = `SELECT b1.v FROM jbig1 b1 JOIN jbig2 b2 ON b2.b1_id = b1.id`
	mustExec(t, e, q)
	base := e.PlannerStats()

	// Repeat: cache hit, no rebuild.
	mustExec(t, e, q)
	ps := e.PlannerStats()
	if ps.Hits != base.Hits+1 {
		t.Fatalf("expected a hit: %+v -> %+v", base, ps)
	}

	// Grow jbig2 past the 4x drift bound; the cached order is stale.
	grow := make([]Row, 0, 500)
	for i := 0; i < 500; i++ {
		grow = append(grow, Row{Int(int64(1000 + i)), Int(int64(i % 100)), Int(0)})
	}
	if err := e.BulkInsert("jbig2", grow); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, q)
	ps2 := e.PlannerStats()
	if ps2.Invalidations <= ps.Invalidations {
		t.Fatalf("drift did not rebuild: %+v -> %+v", ps, ps2)
	}
}

// TestPinnedViewCachedPlan: a pinned view keeps returning its epoch's
// rows after the current schema and data move on, without poisoning the
// cache for current-view queries.
func TestPinnedViewCachedPlan(t *testing.T) {
	e := newTestDB(t)
	const q = `SELECT name FROM item WHERE id = 2`
	mustExec(t, e, q) // warm the cache at this epoch
	v := e.AcquireView()

	mustExec(t, e, `UPDATE item SET name = 'BANANA' WHERE id = 2`)
	r, err := e.QueryView(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "banana" {
		t.Fatalf("pinned view rows = %v, want old name", r.Rows)
	}
	if cur := mustExec(t, e, q); cur.Rows[0][0].S != "BANANA" {
		t.Fatalf("current rows = %v", cur.Rows)
	}

	// Schema replacement: the pinned view must fall back to a transient
	// plan (its *Table differs from the current one).
	mustExec(t, e, `DROP TABLE item`)
	mustExec(t, e, `CREATE TABLE item (id INT PRIMARY KEY, other TEXT)`)
	mustExec(t, e, `INSERT INTO item VALUES (2, 'new-schema')`)
	if _, err := e.Exec(q); err == nil {
		t.Fatal("query for dropped column should fail on the new schema")
	}
	r, err = e.QueryView(v, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].S != "banana" {
		t.Fatalf("pinned view after schema change: rows = %v", r.Rows)
	}

	// The pinned-view miss must not evict current-view entries.
	const q2 = `SELECT other FROM item WHERE id = 2`
	mustExec(t, e, q2)
	before := e.PlannerStats()
	if _, err := e.QueryView(v, q2); err == nil {
		t.Fatal("old view has no column 'other'")
	}
	after := e.PlannerStats()
	if after.Entries != before.Entries {
		t.Fatalf("pinned-view query evicted cache entries: %+v -> %+v", before, after)
	}
	if hit := mustExec(t, e, q2); hit.Rows[0][0].S != "new-schema" {
		t.Fatalf("current rows = %v", hit.Rows)
	}
}

// TestPredicatePushdownScanned: a selective single-table predicate in a
// join picks the pk access path for that table instead of filtering the
// join product.
func TestPredicatePushdownScanned(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT o.oid FROM orders o JOIN item i ON o.item_id = i.id WHERE i.id = 3`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// item probes its pk (1), orders full-scans (4); the hash join adds
	// no per-pair counts. Pre-planner this was 8 (both tables in full).
	if r.Scanned != 5 {
		t.Fatalf("Scanned = %d, want 5 (pk probe + one full scan)", r.Scanned)
	}
}

// TestHashJoinBuildSide: the hash join builds on the smaller input on
// either side; results are identical whichever side that is.
func TestHashJoinBuildSide(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE small (id INT PRIMARY KEY, k INT)`)
	mustExec(t, e, `CREATE TABLE big (id INT PRIMARY KEY, k INT)`)
	small := make([]Row, 0, 3)
	for i := 0; i < 3; i++ {
		small = append(small, Row{Int(int64(i)), Int(int64(i))}) // k: 0,1,2
	}
	big := make([]Row, 0, 300)
	for i := 0; i < 300; i++ {
		big = append(big, Row{Int(int64(i)), Int(int64(i % 10))}) // 30 rows per k
	}
	if err := e.BulkInsert("small", small); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("big", big); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT s.id, b.id FROM small s JOIN big b ON s.k = b.k ORDER BY s.id, b.id`,
		`SELECT s.id, b.id FROM big b JOIN small s ON b.k = s.k ORDER BY s.id, b.id`,
	} {
		r := mustExec(t, e, q)
		if len(r.Rows) != 3*30 {
			t.Fatalf("%s: rows = %d, want 90", q, len(r.Rows))
		}
	}
}

// TestHashJoinCancellation: the equi-join build/probe path observes
// context cancellation (pre-planner only the nested loop did).
func TestHashJoinCancellation(t *testing.T) {
	e := newTestDB(t)
	st, err := Parse(`SELECT o.oid FROM orders o JOIN item i ON o.item_id = i.id`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// execSelect directly: ExecStmtContext rejects a canceled context up
	// front, but the join loops must also notice cancellation mid-run.
	if _, err := e.execSelect(ctx, st, e.loadView()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the hash-join loop", err)
	}
}

// TestPlanCacheLFUEviction: distinct statement shapes past the cap
// evict the least-used eighth instead of growing without bound.
func TestPlanCacheLFUEviction(t *testing.T) {
	e := newTestDB(t)
	for i := 0; i < planCacheCap+100; i++ {
		// LIMIT is part of the shape, so each i is a distinct plan-cache
		// key of the same statement family.
		mustExec(t, e, fmt.Sprintf(`SELECT id FROM item LIMIT %d`, i+1))
	}
	ps := e.PlannerStats()
	if ps.Entries > planCacheCap {
		t.Fatalf("cache grew past cap: %+v", ps)
	}
	if ps.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", ps)
	}
}

// TestNDVEstimate covers the deterministic prefix-sample estimator:
// key-like columns extrapolate, category-like columns saturate.
func TestNDVEstimate(t *testing.T) {
	n := statsSampleRows * 4
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{Int(int64(i)), Int(int64(i % 7))})
	}
	store := newRowStore([]Column{{Type: KindInt}, {Type: KindInt}}).append(rows)
	if got := estimateNDV(store, 0); got != float64(n) {
		t.Fatalf("key-like ndv = %v, want %d", got, n)
	}
	if got := estimateNDV(store, 1); got != 7 {
		t.Fatalf("category ndv = %v, want 7", got)
	}
	if got := estimateNDV(rowStore{}, 0); got != 1 {
		t.Fatalf("empty ndv = %v, want 1", got)
	}
}

// ShapeKey is a shape's plan-cache key, for the external tests.
func ShapeKey(s *Shape) string { return s.key }

// TestShapeKey: the plan-cache key distinguishes genuinely different
// statements and unifies literal-only variation, a literal's sign
// included; LIMIT's count is not a literal.
func TestShapeKey(t *testing.T) {
	key := func(sql string) string {
		t.Helper()
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st.key
	}
	for _, same := range [][2]string{
		{`SELECT id FROM item WHERE id = 1`, `SELECT id FROM item WHERE id = 99`},
		{`SELECT id FROM item WHERE stock = 7`, `SELECT id FROM item WHERE stock = -7`},
	} {
		if key(same[0]) != key(same[1]) {
			t.Fatalf("literal variation must share one key: %q, %q", same[0], same[1])
		}
	}
	distinct := []string{
		`SELECT id FROM item WHERE id = 1`,
		`SELECT id FROM item WHERE stock = 1`,
		`SELECT id FROM item WHERE id = 1 LIMIT 1`,
		`SELECT id FROM item WHERE id = 1 LIMIT 2`,
		`SELECT id FROM item WHERE id IN (1, 2)`,
		`SELECT id FROM item WHERE id NOT IN (1, 2)`,
		`SELECT id FROM item WHERE id IN (1, 2, 3)`,
		`SELECT DISTINCT id FROM item WHERE id = 1`,
		`SELECT id AS x FROM item WHERE id = 1`,
		`SELECT i.id FROM item i WHERE i.id = 1`,
		`SELECT id FROM item WHERE id = 1 ORDER BY id`,
		`SELECT id FROM item WHERE id = 1 ORDER BY id DESC`,
	}
	seen := make(map[string]string, len(distinct))
	for _, sql := range distinct {
		k := key(sql)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %q and %q: %q", prev, sql, k)
		}
		seen[k] = sql
	}
}

// BenchmarkRangeScan measures both ways a scan can read an interval of
// an indexed column, at seven shares of a 60,000-row table (lineitem's
// size at the benchmark's scale factor), under one more conjunct that
// keeps half the rows (as q6 and q12 carry): "index" finds the
// interval's run in the index's order and fetches its rows in position
// order, whatever rangeScanFactor says; "scan" filters every row of an
// unindexed copy. Both hand on the same rows. "build" is what the first
// ordered use of the index on a view pays once. rangeScanFactor is
// chosen from these numbers (CHANGES.md, PR 18).
func BenchmarkRangeScan(b *testing.B) {
	const n, domain = 60000, 2556
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(rng.Intn(domain))), Float(float64(rng.Intn(50))), Text("DELIVER IN PERSON"), Text("lc")}
	}
	e := New()
	for _, name := range []string{"indexed", "plain"} {
		cols := []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "d", Type: KindInt, Indexed: name == "indexed"},
			{Name: "q", Type: KindFloat}, {Name: "a", Type: KindText}, {Name: "c", Type: KindText}}
		if err := e.CreateTable(name, cols); err != nil {
			b.Fatal(err)
		}
		if err := e.BulkInsert(name, rows); err != nil {
			b.Fatal(err)
		}
	}
	v := e.loadView()
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&secondaryIndex{col: 1}).ordered(v.tables["indexed"])
		}
	})
	for _, share := range []float64{0.001, 0.01, 0.05, 0.125, 0.25, 0.5, 1} {
		hi := int(share * domain)
		for _, table := range []string{"indexed", "plain"} {
			st, err := Parse(fmt.Sprintf(`SELECT q FROM %s WHERE d >= 0 AND d < %d AND q < 24`, table, max(hi, 1)))
			if err != nil {
				b.Fatal(err)
			}
			p, err := e.planFor(st.Shape, v)
			if err != nil {
				b.Fatal(err)
			}
			s, tv := &p.scans[0], v.tables[table]
			how := "scan"
			if table == "indexed" {
				how = "index"
				if s.rangeCol < 0 {
					b.Fatalf("no range on %s", table)
				}
			}
			b.Run(fmt.Sprintf("%g%%/%s", share*100, how), func(b *testing.B) {
				b.ReportAllocs()
				var got tuples
				res := &Result{}
				for i := 0; i < b.N; i++ {
					x := &execRun{ctx: context.Background(), p: p, v: v, res: res, stores: []*rowStore{&tv.rows}}
					x.ec.params, x.ec.cur = st.Params, make([]cursor, 1)
					res.Scanned = 0
					if how == "scan" {
						got, err = s.scan(x, 0, tv)
					} else {
						o := tv.index(s.rangeCol).ordered(tv)
						var from, to int
						if from, to, err = o.run(tv, s.rangeCol, s.lo, s.hi, &x.ec); err == nil {
							got, err = s.fetchRun(x, 0, o.pos[from:to])
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Scanned), "scanned/op")
				b.ReportMetric(float64(got.n), "rows/op")
			})
		}
	}
}
