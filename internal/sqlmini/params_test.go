package sqlmini_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// kvEngine is a table kv(k pk, d indexed, v) holding k = -10..10, with
// d = k and v = "v<k>".
func kvEngine(t *testing.T) *sqlmini.Engine {
	t.Helper()
	e := sqlmini.New()
	cols := []sqlmini.Column{{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "d", Type: sqlmini.KindInt, Indexed: true}, {Name: "v", Type: sqlmini.KindText}}
	if err := e.CreateTable("kv", cols); err != nil {
		t.Fatal(err)
	}
	var rows []sqlmini.Row
	for k := int64(-10); k <= 10; k++ {
		rows = append(rows, sqlmini.Row{sqlmini.Int(k), sqlmini.Int(k), sqlmini.Text(fmt.Sprintf("v%d", k))})
	}
	if err := e.BulkInsert("kv", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBindLiteralsAllOrNone: a binding takes exactly one value per
// literal of the text, and it is a second statement of the same shape —
// the template keeps executing with its own literals.
func TestBindLiteralsAllOrNone(t *testing.T) {
	e := kvEngine(t)
	tmpl, err := sqlmini.Parse(`SELECT v FROM kv WHERE k = 1 AND d < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.NumLiterals != 2 || len(tmpl.Params) != 2 {
		t.Fatalf("NumLiterals = %d, params = %v; want 2 of each", tmpl.NumLiterals, tmpl.Params)
	}
	for _, n := range []int{0, 1, 3} {
		if _, err := sqlmini.BindLiterals(tmpl, make([]sqlmini.Value, n)); err == nil {
			t.Fatalf("binding %d args to 2 literals: no error", n)
		}
	}
	bound, err := sqlmini.BindLiterals(tmpl, []sqlmini.Value{sqlmini.Int(2), sqlmini.Int(100)})
	if err != nil || bound.Shape != tmpl.Shape {
		t.Fatalf("a binding must share its template's shape (err %v)", err)
	}
	for i, st := range []sqlmini.Statement{bound, tmpl, bound} {
		res, err := e.ExecStmt(st)
		if want := []string{"v2", "v1", "v2"}[i]; err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != want {
			t.Fatalf("execution %d: rows = %v, err = %v, want %s", i, res, err, want)
		}
	}
	if tmpl.Params[0] != sqlmini.Int(1) || tmpl.Params[1] != sqlmini.Int(100) {
		t.Fatalf("template params changed: %v", tmpl.Params)
	}
}

// TestSignedLiteral: a minus directly on a number is part of the
// literal. The slot of "-1" holds -1 (so binding -7 asks for -7, not 7),
// a negative constant picks the access paths a positive one does, and
// MinInt64 — whose magnitude alone overflows — parses.
func TestSignedLiteral(t *testing.T) {
	e := kvEngine(t)
	// A range is shown as the scan carrying it; each run measures it
	// against the table (rangeScanFactor), which describe spells either way.
	for sql, access := range map[string]string{
		`SELECT v FROM kv WHERE k = 7`:              "kv: pk= ",
		`SELECT v FROM kv WHERE k = -7`:             "kv: pk= ",
		`SELECT v FROM kv WHERE d BETWEEN -5 AND 5`: "index(d) in [?, ?]",
	} {
		if plan, err := e.Explain(sql); err != nil || !strings.Contains(plan, access) {
			t.Errorf("%s plans %q (err %v), want %q", sql, plan, err, access)
		}
	}
	tmpl, err := sqlmini.Parse(`SELECT v FROM kv WHERE k = -1`)
	if err != nil || tmpl.NumLiterals != 1 || tmpl.Params[0] != sqlmini.Int(-1) {
		t.Fatalf("k = -1 parses to params %v, err %v", tmpl.Params, err)
	}
	bound, err := sqlmini.BindLiterals(tmpl, []sqlmini.Value{sqlmini.Int(-7)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e.ExecStmt(bound); err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "v-7" {
		t.Fatalf("bound -7 returns %v (err %v), want v-7", res, err)
	}
	mustExec(t, e, `INSERT INTO kv VALUES (-9223372036854775808, 0, 'min')`)
	// Binary minus, a negated column and a negated parenthesis are still
	// operators.
	for sql, want := range map[string]float64{
		`SELECT COUNT(*) FROM kv WHERE d BETWEEN -5 AND 5`:              12,
		`SELECT k - 1 FROM kv WHERE k = 3`:                              2,
		`SELECT k -1 FROM kv WHERE k = 3`:                               2,
		`SELECT -k FROM kv WHERE k = 3`:                                 -3,
		`SELECT -(k) FROM kv WHERE k = 3`:                               -3,
		`SELECT - -4 FROM kv WHERE k = 3`:                               4,
		`SELECT 2 * -3 FROM kv WHERE k = 3`:                             -6,
		`SELECT -2.5 * 2 FROM kv WHERE k = 3`:                           -5,
		`SELECT k FROM kv WHERE k = -9223372036854775808 AND v = 'min'`: math.MinInt64,
	} {
		if got, _ := mustExec(t, e, sql).Rows[0][0].AsFloat(); got != want {
			t.Errorf("%s = %v, want %v", sql, got, want)
		}
	}
}

// TestLiteralVariantsShareOnePlan: the plan cache's key is the shape, so
// texts that differ only in literal values add one entry between them.
func TestLiteralVariantsShareOnePlan(t *testing.T) {
	e := kvEngine(t)
	before := e.PlannerStats().Entries
	for _, lit := range []string{"1", "2", "-3", "'x'", "NULL", "2.5"} {
		mustExec(t, e, `SELECT v FROM kv WHERE k = `+lit)
	}
	if got := e.PlannerStats().Entries - before; got != 1 {
		t.Fatalf("six literal variants of one shape added %d plan-cache entries, want 1", got)
	}
}

// fuzzBudget bounds one execution of a fuzzed statement (a mutation can
// turn a keyed join into a cross product); an execution that runs out is
// not compared.
const fuzzBudget = 200 * time.Millisecond

// outcome renders what executing st on e produced — columns, rows in
// order, affected count, or the error — or "" when it ran out of budget.
func outcome(e *sqlmini.Engine, st sqlmini.Statement) string {
	ctx, cancel := context.WithTimeout(context.Background(), fuzzBudget)
	defer cancel()
	res, err := e.ExecStmtContext(ctx, st)
	switch {
	case ctx.Err() != nil:
		return ""
	case err != nil:
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v affected %d\n%s", res.Columns, res.Affected, strings.Join(renderRows(res.Rows), "\n"))
}

// FuzzBindLiterals: for any text that parses, binding the text's own
// literal values back executes exactly as the text does (reads and
// writes: two engines take the two forms in lockstep), executing a
// binding of other values changes nothing about what the template
// returns, and a wrong number of args is an error. A statement's key
// determines its shape: the key with every "?" written as NULL parses
// to the same key and an equal tree (NULL, not a number, because a
// minus before a number is that number's sign: "- -7" keys as "- ?"
// and is a negation, "- 0" a literal). Seeded with every TPC-H and
// TPC-App template over small loads of both schemas.
func FuzzBindLiterals(f *testing.F) {
	appMix, err := tpcapp.Mix(1)
	if err != nil {
		f.Fatal(err)
	}
	for _, tpl := range slices.Concat(tpch.Queries(), appMix.Templates()) {
		f.Add(tpl.Journal)
	}
	f.Add(`SELECT c_id FROM customer WHERE c_id = -1 OR c_id BETWEEN -5 AND 5 OR c_balance < -0.5`)
	f.Add(`DELETE FROM order_line WHERE ol_id IN (1, 2, 3) AND ol_comment IS NOT NULL`)
	f.Add(`SELECT - -7, -'x' FROM item WHERE i_id = - 7 AND i_title IS NULL LIMIT 3`)
	f.Add(`UPDATE item SET i_stock = i_stock - -1, i_title = NULL WHERE i_id = -3`)
	f.Add(`INSERT INTO country VALUES (-1, 'x', 2.5)`)
	f.Add(`CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`)
	f.Add(`DROP TABLE t`)

	// Per schema, one engine executes texts and its twin bindings.
	type pair struct{ text, bound *sqlmini.Engine }
	var pairs []pair
	for _, load := range []func(e *sqlmini.Engine) error{
		func(e *sqlmini.Engine) error { return tpch.Load(e, nil, tpch.RowCounts(0.0002), 1) },
		func(e *sqlmini.Engine) error {
			rows := map[string]int64{"country": 5, "author": 8, "item": 20, "customer": 20, "address": 40, "orders": 60, "order_line": 180}
			return tpcapp.Load(e, nil, rows, 1)
		},
	} {
		p := pair{sqlmini.New(), sqlmini.New()}
		for _, e := range []*sqlmini.Engine{p.text, p.bound} {
			if err := load(e); err != nil {
				f.Fatal(err)
			}
		}
		pairs = append(pairs, p)
	}

	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 1024 {
			return
		}
		tmpl, err := sqlmini.Parse(sql)
		if err != nil {
			return
		}
		key := tmpl.Key()
		again, err := sqlmini.Parse(strings.ReplaceAll(key, "?", "NULL"))
		if err != nil {
			t.Fatalf("%s: key %q does not parse: %v", sql, key, err)
		}
		if got := again.Key(); got != key || !reflect.DeepEqual(again.AST, tmpl.AST) {
			t.Fatalf("%s: key %q reparses with key %q (same tree: %v)", sql, key, got, reflect.DeepEqual(again.AST, tmpl.AST))
		}
		own := slices.Clone(tmpl.Params)
		other := make([]sqlmini.Value, len(own))
		for i, v := range own {
			if strings.Count(v.S, "%") > 4 {
				return // LIKE backtracks per %, and no context interrupts it
			}
			other[i] = sqlmini.Int(v.I + 1)
		}
		for _, n := range []int{len(own) - 1, len(own) + 1} {
			if n < 0 {
				continue
			}
			if _, err := sqlmini.BindLiterals(tmpl, make([]sqlmini.Value, n)); err == nil {
				t.Fatalf("%d args bound to %d literals", n, len(own))
			}
		}
		same, err := sqlmini.BindLiterals(tmpl, own)
		if err != nil {
			t.Fatal(err)
		}
		varied, err := sqlmini.BindLiterals(tmpl, other)
		if err != nil {
			t.Fatal(err)
		}
		_, isSelect := tmpl.AST.(*sqlmini.SelectStmt)
		for _, p := range pairs {
			want, got := outcome(p.text, tmpl), outcome(p.bound, same)
			if want != "" && got != "" && want != got {
				t.Fatalf("%s\nas text:\n%s\nwith its own literals bound back:\n%s", sql, want, got)
			}
			if !isSelect {
				continue
			}
			outcome(p.bound, varied)
			if again := outcome(p.bound, tmpl); got != "" && again != "" && again != got {
				t.Fatalf("%s\nbefore a binding of other values ran:\n%s\nafter:\n%s", sql, got, again)
			}
		}
		if !slices.Equal(tmpl.Params, own) {
			t.Fatalf("%s: template params changed from %v to %v", sql, own, tmpl.Params)
		}
	})
}

// TestShapeFootprint: every TPC-H and TPC-App template (the canonical
// text and one generated instance) analyzes against its full schema,
// and DDL has no footprint. The analyzer takes its tables from the
// footprint, so the table comparison holds by construction; what it
// guards is that every template analyzes.
func TestShapeFootprint(t *testing.T) {
	app, err := tpcapp.Mix(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, suite := range []struct {
		schema    sqlmini.Schema
		templates []workload.Template
	}{
		{tpch.Schema(), tpch.Queries()},
		{tpcapp.Schema(), app.Templates()},
	} {
		for _, tmpl := range suite.templates {
			texts := []string{tmpl.Journal}
			if tmpl.Gen != nil {
				texts = append(texts, tmpl.Gen(rng))
			}
			for _, sql := range texts {
				st, err := sqlmini.Parse(sql)
				if err != nil {
					t.Fatalf("%s: %v", tmpl.Name, err)
				}
				info, err := sqlmini.AnalyzeStmt(st, suite.schema)
				if err != nil {
					t.Fatalf("%s: %v", tmpl.Name, err)
				}
				if !slices.Equal(st.Tables, info.Tables) {
					t.Errorf("%s: footprint %v, analyzer %v", tmpl.Name, st.Tables, info.Tables)
				}
			}
		}
	}
	for _, sql := range []string{`CREATE TABLE t (id INT PRIMARY KEY)`, `DROP TABLE t`} {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tables != nil {
			t.Errorf("%s: footprint %v, want none", sql, st.Tables)
		}
	}
}
