package sqlmini_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

func mustExec(tb testing.TB, e *sqlmini.Engine, sql string) *sqlmini.Result {
	tb.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		tb.Fatalf("%s: %v", sql, err)
	}
	return res
}

// sortedRows renders a result as its multiset of rows.
func sortedRows(res *sqlmini.Result) []string {
	out := renderRows(res.Rows)
	sort.Strings(out)
	return out
}

// TestHashJoinNullKeysNeverMatch: a = b is not true when either side is
// NULL, whether the planner turns it into a hash key or evaluates it as
// a residual. The hash join used to render every NULL to the same key
// and pair them up.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	// The issue's case, literally.
	e := sqlmini.New()
	mustExec(t, e, `CREATE TABLE a (id INT PRIMARY KEY, x INT)`)
	mustExec(t, e, `CREATE TABLE b (id INT PRIMARY KEY, y INT)`)
	mustExec(t, e, `INSERT INTO a VALUES (1, NULL), (2, 5)`)
	mustExec(t, e, `INSERT INTO b VALUES (1, NULL), (2, 5)`)
	for _, on := range []string{`a.x = b.y`, `a.x + 0 = b.y`} {
		res := mustExec(t, e, `SELECT a.id, b.id FROM a JOIN b ON `+on)
		if got := fmt.Sprint(res.Rows); got != "[[2 2]]" {
			t.Errorf("ON %s: got %s, want [[2 2]]", on, got)
		}
	}

	// One- and two-column keys, with either table the smaller one and
	// named first or second, so that whichever side the planner puts
	// left, both build sides run. The hashed form must agree with the
	// same predicate forced into a residual.
	for _, sizes := range [][2]int{{12, 5}, {5, 12}, {8, 8}} {
		e := sqlmini.New()
		mustExec(t, e, `CREATE TABLE l (id INT PRIMARY KEY, k1 INT, k2 TEXT)`)
		mustExec(t, e, `CREATE TABLE r (id INT PRIMARY KEY, k1 INT, k2 TEXT)`)
		for ti, table := range []string{"l", "r"} {
			for i := 0; i < sizes[ti]; i++ {
				k1, k2 := fmt.Sprint(i%3), fmt.Sprintf("'t%d'", i%2)
				if i%4 == ti {
					k1 = "NULL"
				}
				if i%5 == ti {
					k2 = "NULL"
				}
				mustExec(t, e, fmt.Sprintf(`INSERT INTO %s VALUES (%d, %s, %s)`, table, i, k1, k2))
			}
		}
		for _, from := range []string{`l JOIN r`, `r JOIN l`} {
			for _, c := range []struct{ hashed, residual string }{
				{`l.k1 = r.k1`, `l.k1 + 0 = r.k1`},
				{`l.k1 = r.k1 AND l.k2 = r.k2`, `l.k1 + 0 = r.k1 AND l.k2 LIKE r.k2`},
			} {
				got := sortedRows(mustExec(t, e, `SELECT l.id, r.id FROM `+from+` ON `+c.hashed))
				want := sortedRows(mustExec(t, e, `SELECT l.id, r.id FROM `+from+` ON `+c.residual))
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("sizes %v, FROM %s ON %s: %d rows %v, as a residual %d rows %v",
						sizes, from, c.hashed, len(got), got, len(want), want)
				}
			}
		}
	}
}

// TestIndexJoinAgreesWithResidual: a join step that probes the pk or a
// secondary index of the table it adds returns what the same condition
// returns when every pair of rows is held to it as a residual — NULL
// keys never match (in the probed pair or any other, a NULL primary key
// included), an INT 2 finds a FLOAT 2.0, the table's own filter and the
// residuals hold for every candidate — and reads fewer rows than the
// scan and hash join of an engine without the index. The one rule picks the access: a prefix
// with fewer tuples than the probed column has values probes, any other
// hashes.
func TestIndexJoinAgreesWithResidual(t *testing.T) {
	load := func(indexed bool) *sqlmini.Engine {
		e := sqlmini.New()
		if err := e.CreateTable("l", []sqlmini.Column{
			{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "k1", Type: sqlmini.KindInt},
			{Name: "k2", Type: sqlmini.KindText},
			{Name: "rid", Type: sqlmini.KindInt},
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateTable("r", []sqlmini.Column{
			{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "k1", Type: sqlmini.KindFloat, Indexed: indexed},
			{Name: "k2", Type: sqlmini.KindText},
			{Name: "v", Type: sqlmini.KindInt},
		}); err != nil {
			t.Fatal(err)
		}
		text := func(i int) sqlmini.Value {
			if i%5 == 0 {
				return sqlmini.Null
			}
			return sqlmini.Text(fmt.Sprintf("t%d", i%2))
		}
		var l, r []sqlmini.Row
		for i := 0; i < 12; i++ {
			k1, rid := sqlmini.Int(int64(i%8)), sqlmini.Int(int64(i*7))
			if i%4 == 3 {
				k1, rid = sqlmini.Null, sqlmini.Null
			}
			l = append(l, sqlmini.Row{sqlmini.Int(int64(i)), k1, text(i), rid})
		}
		for i := 0; i < 80; i++ {
			k1 := sqlmini.Float(float64(i%16) / 2) // 0, 0.5, 1, ...: whole every other row
			if i%7 == 6 {
				k1 = sqlmini.Null
			}
			r = append(r, sqlmini.Row{sqlmini.Int(int64(i)), k1, text(i + 1), sqlmini.Int(int64(i % 3))})
		}
		// One row whose primary key is NULL: l.rid = r.id must not find it.
		r = append(r, sqlmini.Row{sqlmini.Null, sqlmini.Float(1), text(1), sqlmini.Int(1)})
		if err := e.BulkInsert("l", l); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkInsert("r", r); err != nil {
			t.Fatal(err)
		}
		return e
	}
	plain, probing := load(false), load(true)
	for _, c := range []struct {
		on, where string
		residual  string // on, with every equality in a form no join can key on
		access    string // of the join step, on the indexed engine
	}{
		{`l.k1 = r.k1`, ``, `l.k1 + 0 = r.k1`, "r: probe index(k1)"},
		{`l.k1 = r.k1 AND l.k2 = r.k2`, ``, `l.k1 + 0 = r.k1 AND l.k2 LIKE r.k2`, "r: probe index(k1)"},
		{`r.k2 = l.k2 AND r.k1 = l.k1`, ` WHERE r.v > 0 AND l.id + r.id < 60`, `r.k2 LIKE l.k2 AND r.k1 + 0 = l.k1`, "r: probe index(k1)"},
		{`l.rid = r.id`, ` WHERE r.v < 2`, `l.rid + 0 = r.id`, "r: probe pk"},
		// 81 rows of r arrive first: more tuples than l has keys, so l is hashed.
		{`l.id = r.v`, ``, `l.id + 0 = r.v`, "l: hash (prefix >= 12 of pk)"},
	} {
		const sel = `SELECT l.id, r.id, r.k1 FROM l JOIN r ON `
		want := mustExec(t, plain, sel+c.residual+c.where)
		hashed := mustExec(t, plain, sel+c.on+c.where)
		got := mustExec(t, probing, sel+c.on+c.where)
		if len(want.Rows) == 0 || !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
			t.Errorf("ON %s%s:\nindexed     %v\nas residual %v", c.on, c.where, sortedRows(got), sortedRows(want))
		}
		plan, err := probing.Explain(sel + c.on + c.where)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.access) {
			t.Errorf("ON %s%s: plan\n%swant a step %q", c.on, c.where, plan, c.access)
		}
		if byIndex := strings.Contains(c.access, "probe index"); byIndex && got.Scanned >= hashed.Scanned {
			t.Errorf("ON %s%s: probing scanned %d rows, hashing %d", c.on, c.where, got.Scanned, hashed.Scanned)
		}
	}
}

// TestComparisonAgreesWithKeys: "=" matches the same pairs whether it
// runs as a hash-join key, an index probe or a filter, and an interval
// keeps the same rows through the index's order as through the filter —
// for the two kinds of value Compare used to order differently from the
// keys: a NaN (it compared equal to every number, while its key matches
// only NaN) and integers beyond 2^53 (neighbours compared equal through
// float64, while their keys differ).
func TestComparisonAgreesWithKeys(t *testing.T) {
	const big = int64(1) << 53
	load := func(indexed bool) *sqlmini.Engine {
		e := sqlmini.New()
		for _, name := range []string{"li", "ri", "lf", "rf"} {
			kind := sqlmini.KindInt
			if name[1] == 'f' {
				kind = sqlmini.KindFloat
			}
			if err := e.CreateTable(name, []sqlmini.Column{
				{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
				{Name: "k", Type: kind, Indexed: indexed && name[0] == 'r'},
			}); err != nil {
				t.Fatal(err)
			}
			var rows []sqlmini.Row
			add := func(v sqlmini.Value) { rows = append(rows, sqlmini.Row{sqlmini.Int(int64(len(rows))), v}) }
			add(sqlmini.Null)
			if kind == sqlmini.KindInt {
				for _, k := range []int64{5, big, big + 1, big + 2, -big - 1} {
					add(sqlmini.Int(k))
				}
			} else {
				for _, k := range []float64{5, 0, math.NaN(), math.Inf(1), math.Inf(-1), float64(big)} {
					add(sqlmini.Float(k))
				}
			}
			for i := 0; name[0] == 'r' && i < 24; i++ { // the probed side is the larger one
				if kind == sqlmini.KindInt {
					add(sqlmini.Int(int64(100 + i)))
				} else {
					add(sqlmini.Float(100.5 + float64(i)))
				}
			}
			if err := e.BulkInsert(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	plain, indexed := load(false), load(true)
	for _, from := range []string{`li l JOIN ri r`, `lf l JOIN rf r`, `li l JOIN rf r`, `lf l JOIN ri r`} {
		const sel = `SELECT l.id, r.id FROM `
		want := sortedRows(mustExec(t, plain, sel+from+` ON l.k + 0 = r.k`)) // every pair, through Compare
		for _, e := range []*sqlmini.Engine{plain, indexed} {
			if got := sortedRows(mustExec(t, e, sel+from+` ON l.k = r.k`)); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("FROM %s ON l.k = r.k: as a key %v, as a residual %v", from, got, want)
			}
		}
	}
	for _, c := range []struct{ where, access string }{
		{fmt.Sprintf(`ri WHERE k = %d`, big+1), "index(k)="},
		{fmt.Sprintf(`ri WHERE k > %d AND k <= %d`, big, big+2), "index(k) in"},
		{`rf WHERE k <= 5`, "index(k) in"},               // NaN sorts below every number
		{`rf WHERE k >= 5.0 AND k < 101`, "index(k) in"}, // and not above one
	} {
		const sel = `SELECT id FROM `
		want, got := mustExec(t, plain, sel+c.where), mustExec(t, indexed, sel+c.where)
		if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: through the index %v, through the filter %v", c.where, got.Rows, want.Rows)
		}
		if plan, err := indexed.Explain(sel + c.where); err != nil || !strings.Contains(plan, c.access) {
			t.Errorf("%s: plan %q (%v), want access %q", c.where, plan, err, c.access)
		}
		if got.Scanned != int64(len(got.Rows)) {
			t.Errorf("%s: read %d rows through the index for %d matches", c.where, got.Scanned, len(got.Rows))
		}
	}
	if got := fmt.Sprint(mustExec(t, plain, fmt.Sprintf(`SELECT id FROM ri WHERE k = %d`, big+1)).Rows); got != "[[3]]" {
		t.Errorf("k = 2^53+1 as a filter matches %s, want [[3]]", got)
	}
}

// TestEmptyAggregatePlainColumnIsNull: a global aggregation over no rows
// yields one row, and a plain column beside the aggregate is NULL in
// it — at the parent commit it indexed a missing row and panicked.
func TestEmptyAggregatePlainColumnIsNull(t *testing.T) {
	e := sqlmini.New()
	mustExec(t, e, `CREATE TABLE a (id INT PRIMARY KEY, x INT)`)
	mustExec(t, e, `CREATE TABLE b (id INT PRIMARY KEY, y INT)`)
	for _, sql := range []string{
		`SELECT x, COUNT(*) FROM a`,
		`SELECT x, y, COUNT(*) FROM a JOIN b ON a.id = b.id ORDER BY y + 1`,
	} {
		res := mustExec(t, e, sql)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", sql, len(res.Rows))
		}
		row := res.Rows[0]
		for _, v := range row[:len(row)-1] {
			if !v.IsNull() {
				t.Errorf("%s: plain column is %v, want NULL", sql, v)
			}
		}
		if row[len(row)-1] != sqlmini.Int(0) {
			t.Errorf("%s: COUNT(*) is %v, want 0", sql, row[len(row)-1])
		}
	}
}

// threeTableEngine loads t1 ⋈ t2 ⋈ t3 (n rows each, keyed so that every
// row finds `fan` partners per step), each table with `pad` extra
// columns no query reads.
func threeTableEngine(tb testing.TB, n, fan, pad int) *sqlmini.Engine {
	tb.Helper()
	e := sqlmini.New()
	for _, name := range []string{"t1", "t2", "t3"} {
		cols := []sqlmini.Column{
			{Name: name + "_id", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: name + "_k", Type: sqlmini.KindInt},
			{Name: name + "_v", Type: sqlmini.KindInt},
		}
		for p := 0; p < pad; p++ {
			cols = append(cols, sqlmini.Column{Name: fmt.Sprintf("%s_pad%d", name, p), Type: sqlmini.KindText})
		}
		if err := e.CreateTable(name, cols); err != nil {
			tb.Fatal(err)
		}
		rows := make([]sqlmini.Row, n)
		for i := range rows {
			rows[i] = sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i % (n / fan))), sqlmini.Int(int64(i * 3))}
			for p := 0; p < pad; p++ {
				rows[i] = append(rows[i], sqlmini.Text("padding"))
			}
		}
		if err := e.BulkInsert(name, rows); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

const threeTableSQL = `SELECT t1_v, t2_v, t3_v FROM t1 JOIN t2 ON t2_k = t1_k JOIN t3 ON t3_k = t2_k WHERE t1_v >= %d`

// TestJoinAllocationIndependentOfRowWidth: what a join allocates per
// tuple it emits depends on how many tables it joins, not on how wide
// they are. Sixteen unread columns per table used to add 3*16 values to
// every intermediate and final tuple.
func TestJoinAllocationIndependentOfRowWidth(t *testing.T) {
	perTuple := func(pad int) float64 {
		e := threeTableEngine(t, 400, 4, pad)
		st, err := sqlmini.Parse(fmt.Sprintf(threeTableSQL, 0))
		if err != nil {
			t.Fatal(err)
		}
		run := func() int {
			res, err := e.ExecStmt(st)
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Rows)
		}
		emitted := run() // plan cached, lazy caches built
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*emitted)
	}
	narrow, wide := perTuple(0), perTuple(16)
	t.Logf("bytes allocated per emitted tuple: %.1f with 3-column tables, %.1f with 19-column tables", narrow, wide)
	if wide > narrow*1.05 {
		t.Errorf("wider tables cost %.1f bytes per emitted tuple against %.1f: intermediates copy columns", wide, narrow)
	}
}

// TestSamePlanConcurrentRuns executes one cached multi-join plan from
// eight goroutines at once, each with its own parameter: all scratch of
// an execution must live in the run, none in the shared plan. Run under
// -race.
func TestSamePlanConcurrentRuns(t *testing.T) {
	e := threeTableEngine(t, 400, 4, 2)
	const workers = 8
	stmts := make([]sqlmini.Statement, workers)
	serial := make([]*sqlmini.Result, workers)
	for w := range stmts {
		sql := fmt.Sprintf(threeTableSQL, w*150) + ` ORDER BY t3_v + t1_v, t2_v DESC LIMIT 500`
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts[w] = st
		if serial[w], err = e.ExecStmt(st); err != nil {
			t.Fatal(err)
		}
		if w > 0 && reflect.DeepEqual(serial[w].Rows, serial[0].Rows) {
			t.Fatalf("parameter %d changes nothing: the runs would not differ", w)
		}
	}
	planned := e.PlannerStats()
	if planned.Misses != 1 {
		t.Fatalf("%d plans built for one statement shape, want 1", planned.Misses)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := e.ExecStmt(stmts[w])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Rows, serial[w].Rows) || res.Scanned != serial[w].Scanned {
					t.Errorf("worker %d, run %d: result differs from its serial run", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if after := e.PlannerStats(); after.Misses != planned.Misses {
		t.Errorf("concurrent runs built %d more plans: they did not share the cached one", after.Misses-planned.Misses)
	}
}

// TestDifferentPlansConcurrentRuns runs the 19 TPC-H templates and the
// TPC-App reads from four goroutines at once, each goroutine starting at
// a different statement, so that runs of different plans draw scratch
// from the package's pools side by side: every run must answer the rows
// and Scanned of its serial run. The two schemas share table names, so
// they are two engines; the pools are the package's. Run under -race.
func TestDifferentPlansConcurrentRuns(t *testing.T) {
	app := sqlmini.New()
	if err := tpcapp.Load(app, nil, tpcapp.RowCounts(3), orderSeed); err != nil {
		t.Fatal(err)
	}
	mix, err := tpcapp.Mix(3)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		e      *sqlmini.Engine
		sql    string
		st     sqlmini.Statement
		serial *sqlmini.Result
	}
	var queries []query
	add := func(e *sqlmini.Engine, sql string) {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecStmt(st)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		queries = append(queries, query{e, sql, st, res})
	}
	h := loadTPCH(t)
	for _, q := range tpch.Queries() {
		add(h, q.Journal)
	}
	for _, tm := range mix.Templates() {
		if !tm.Write {
			add(app, tm.Journal)
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+w*len(queries)/workers)%len(queries)]
				res, err := q.e.ExecStmt(q.st)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Rows, q.serial.Rows) || res.Scanned != q.serial.Scanned {
					t.Errorf("worker %d: %s differs from its serial run", w, q.sql)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
