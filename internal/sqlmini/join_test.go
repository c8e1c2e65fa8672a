package sqlmini_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"qcpa/internal/sqlmini"
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
