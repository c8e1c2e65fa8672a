package sqlmini_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcpa/internal/sqlmini"
)

// This file holds joins wider than any TPC template: from 11 tables up
// to the planner's bound, which the exact join-order DP plans, and one
// past it, which the planner refuses.

// wideCols is every wide table's schema.
var wideCols = []sqlmini.Column{
	{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
	{Name: "k", Type: sqlmini.KindInt},
	{Name: "f", Type: sqlmini.KindFloat},
	{Name: "s", Type: sqlmini.KindText},
}

// wideDB returns n tables w0..w{n-1} of 4 to 6 rows. Four rows hold
// each value of k (0..3) and of s once; a fifth and sixth row hold
// another k and s, or NULLs. So an equality of two key columns finds
// every value, doubles a few, and every prefix the naive evaluator
// walks stays small. f is k as a float, which INT keys must meet, but
// for a 1.5 now and then in an extra row.
func wideDB(rng *rand.Rand, n int) map[string]*naiveTable {
	texts := []sqlmini.Value{sqlmini.Text("x"), sqlmini.Text("y"), sqlmini.Text("xy"), sqlmini.Text("")}
	db := map[string]*naiveTable{}
	for i := 0; i < n; i++ {
		rows := 4 + rng.Intn(3)
		ks, ss := rng.Perm(4), rng.Perm(4)
		t := &naiveTable{cols: wideCols}
		for id, at := range rng.Perm(rows) {
			r := sqlmini.Row{sqlmini.Int(int64(id)), sqlmini.Null, sqlmini.Null, sqlmini.Null}
			switch {
			case at < 4:
				r[1], r[3] = sqlmini.Int(int64(ks[at])), texts[ss[at]]
			case rng.Intn(3) > 0:
				r[1], r[3] = sqlmini.Int(int64(rng.Intn(4))), texts[rng.Intn(4)]
			}
			if !r[1].IsNull() {
				r[2] = sqlmini.Float(float64(r[1].I))
			}
			if at >= 4 && rng.Intn(2) == 0 {
				r[2] = sqlmini.Float(1.5)
			}
			t.rows = append(t.rows, r)
		}
		db[fmt.Sprintf("w%d", i)] = t
	}
	return db
}

// wideJoin writes a join of the n tables of wideDB, alias ti over wi.
// Join i's ON ties ti to an earlier alias picked at random (a random
// tree: stars, chains and everything between) by an equality of two
// key columns or by the composite key (k, f), now and then with a
// non-equi conjunct on the same tables.
// The output is a global aggregate, a grouped count, or columns under a
// total ORDER BY with a LIMIT; it reports whether the result is
// determined as a sequence.
func wideJoin(rng *rand.Rand, n int) (sql string, sequence bool) {
	key := func(a int) string { return fmt.Sprintf("t%d.%s", a, []string{"id", "k", "k", "f", "f"}[rng.Intn(5)]) }
	any := func() int { return rng.Intn(n) }
	var sb strings.Builder
	var tail string
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&sb, "SELECT COUNT(*), SUM(t%d.k), MIN(t%d.f), MAX(t%d.s)", any(), any(), any())
	case 1:
		g := any()
		fmt.Fprintf(&sb, "SELECT t%d.k AS o0, COUNT(*) AS o1, SUM(t%d.f) AS o2", g, any())
		tail = fmt.Sprintf(" GROUP BY t%d.k ORDER BY o0", g)
		sequence = true
	default:
		fmt.Fprintf(&sb, "SELECT t%d.id AS o0, t%d.s AS o1, t%d.f AS o2", any(), any(), any())
		tail = fmt.Sprintf(" ORDER BY o0, o1 DESC, o2 LIMIT %d", rng.Intn(12))
		sequence = true
	}
	sb.WriteString(" FROM w0 t0")
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		if rng.Intn(6) == 0 {
			fmt.Fprintf(&sb, " JOIN w%d t%d ON t%d.k = t%d.k AND t%d.f = t%d.f", i, i, i, j, i, j)
		} else {
			fmt.Fprintf(&sb, " JOIN w%d t%d ON %s = %s", i, i, key(i), key(j))
		}
		if rng.Intn(8) == 0 {
			fmt.Fprintf(&sb, " AND t%d.s <> t%d.s", i, j)
		}
	}
	if rng.Intn(2) == 0 {
		a := any()
		sb.WriteString(" WHERE " + []string{
			fmt.Sprintf("t%d.k < 2", a),
			fmt.Sprintf("t%d.s IS NOT NULL", a),
			fmt.Sprintf("t%d.id IN (0, 2)", a),
		}[rng.Intn(3)])
	}
	return sb.String() + tail, sequence
}

// TestWideJoinsAgainstNaiveEvaluator runs seeded joins of 11 tables up
// to sqlmini.MaxJoinTables through an engine without secondary indexes
// and one with a random set of them, each on the plan-cache miss and on
// the hit, and holds every result to naiveSelect.
func TestWideJoinsAgainstNaiveEvaluator(t *testing.T) {
	const queriesPerWidth = 4
	for n := 11; n <= sqlmini.MaxJoinTables; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		db := wideDB(rng, n)
		plain, indexed := loadEngine(t, db), loadEngine(t, db)
		indexSome(t, rng, indexed, db)
		for q := 0; q < queriesPerWidth; q++ {
			sql, sequence := wideJoin(rng, n)
			st, err := sqlmini.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := renderRows(naiveSelect(db, st.AST.(*sqlmini.SelectStmt), st.Params))
			if !sequence {
				sort.Strings(want)
			}
			for ei, e := range []*sqlmini.Engine{plain, indexed} {
				for _, pass := range []string{"first", "cached"} {
					res, err := e.ExecStmt(st)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					got := renderRows(res.Rows)
					if !sequence {
						sort.Strings(got)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%d tables, query %d, indexes %v, %s run:\n%s\nengine %d rows %v\nnaive  %d rows %v",
							n, q, ei == 1, pass, sql, len(got), got, len(want), want)
					}
				}
			}
		}
	}
}

// TestJoinPastBoundRefused: a join of one table more than the bound
// fails with the "too many joined tables" error, returns no result and
// leaves the plan cache as it was; Explain, which plans and reads no
// row, fails the same way, so the error comes before any row is read.
func TestJoinPastBoundRefused(t *testing.T) {
	n := sqlmini.MaxJoinTables + 1
	e := loadEngine(t, wideDB(rand.New(rand.NewSource(1)), n))
	sql, _ := wideJoin(rand.New(rand.NewSource(2)), n)
	before := e.PlannerStats()
	res, err := e.Exec(sql)
	if err == nil || !strings.Contains(err.Error(), "too many joined tables") {
		t.Fatalf("a join of %d tables: err = %v, want too many joined tables", n, err)
	}
	if res != nil {
		t.Fatalf("a refused join returned a result: %+v", res)
	}
	if after := e.PlannerStats(); after.Entries != before.Entries {
		t.Fatalf("a refused join touched the plan cache: %+v -> %+v", before, after)
	}
	if _, err := e.Explain(sql); err == nil || !strings.Contains(err.Error(), "too many joined tables") {
		t.Fatalf("Explain of a join of %d tables: err = %v", n, err)
	}
}

// BenchmarkJoinOrderDP times a cold plan (Explain builds one afresh
// and reads no row) of a join whose graph is a star on t0 with a chain
// through every even alias, at widths up to the bound: the DP's 2^n
// subsets are nearly all of the time.
func BenchmarkJoinOrderDP(b *testing.B) {
	for _, n := range []int{10, 12, 14, sqlmini.MaxJoinTables} {
		b.Run(fmt.Sprintf("tables=%d", n), func(b *testing.B) {
			e := loadEngine(b, wideDB(rand.New(rand.NewSource(1)), n))
			var sb strings.Builder
			sb.WriteString("SELECT COUNT(*) FROM w0 t0")
			for i := 1; i < n; i++ {
				j := 0 // star
				if i%2 == 0 {
					j = i - 1 // chain
				}
				fmt.Fprintf(&sb, " JOIN w%d t%d ON t%d.k = t%d.id", i, i, i, j)
			}
			sql := sb.String()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Explain(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
