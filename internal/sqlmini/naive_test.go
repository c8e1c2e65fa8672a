package sqlmini_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// This file checks the planner and executor against an evaluator that
// shares nothing with them but the parser and Compare: the benchmark's
// reference digests come from the engine itself, so they cannot tell a
// wrong join from a right one. naiveSelect has no plan, no pushdown, no
// index, no cache and no row ids: it walks the cross product of the
// FROM tables in textual order, concatenates each combination into one
// full-width row, and keeps it if WHERE and every ON hold (each ON
// tested on the prefix that holds its tables).

type naiveTable struct {
	cols []sqlmini.Column
	rows []sqlmini.Row
}

// naiveCol is one position of the concatenated row.
type naiveCol struct{ alias, name string }

type naiveEnv struct {
	lits   []sqlmini.Value // the statement's literal values, by Lit.Slot
	layout []naiveCol
	row    sqlmini.Row   // the concatenated row
	group  []sqlmini.Row // aggregates range over these; nil outside aggregation
}

func truth(v sqlmini.Value) bool { f, ok := v.AsFloat(); return ok && f != 0 }

func boolVal(b bool) sqlmini.Value {
	if b {
		return sqlmini.Int(1)
	}
	return sqlmini.Int(0)
}

// like matches s against a LIKE pattern (% any run, _ any one byte).
func like(s, p string) bool {
	if p == "" {
		return s == ""
	}
	if p[0] == '%' {
		return like(s, p[1:]) || (s != "" && like(s[1:], p))
	}
	return s != "" && (p[0] == '_' || p[0] == s[0]) && like(s[1:], p[1:])
}

// canon renders a value so that equal keys render equal: numbers by
// numeric value whatever their kind, text and NULL apart.
func canon(v sqlmini.Value) string {
	if f, ok := v.AsFloat(); ok {
		return fmt.Sprintf("n%v", f+0) // +0 turns -0 into 0
	}
	return fmt.Sprintf("%d%s", v.K, v.S)
}

func canonRow(r sqlmini.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%q", canon(v))
	}
	return strings.Join(parts, ",")
}

func (env *naiveEnv) eval(e sqlmini.Expr) sqlmini.Value {
	null := sqlmini.Null
	switch x := e.(type) {
	case *sqlmini.Lit:
		return env.lits[x.Slot]
	case *sqlmini.ColRef:
		at := -1
		for i, c := range env.layout {
			if c.name == x.Column && (x.Table == "" || x.Table == c.alias) {
				if at >= 0 {
					panic("naive: ambiguous column " + x.Column)
				}
				at = i
			}
		}
		return env.row[at]
	case *sqlmini.UnOp:
		v := env.eval(x.E)
		switch {
		case v.IsNull():
			return null
		case x.Op == "NOT":
			return boolVal(!truth(v))
		case v.K == sqlmini.KindInt:
			return sqlmini.Int(-v.I)
		}
		return sqlmini.Float(-v.F)
	case *sqlmini.IsNull:
		return boolVal(env.eval(x.E).IsNull() != x.Negate)
	case *sqlmini.Between:
		v, lo, hi := env.eval(x.E), env.eval(x.Lo), env.eval(x.Hi)
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return null
		}
		return boolVal((sqlmini.Compare(v, lo) >= 0 && sqlmini.Compare(v, hi) <= 0) != x.Negate)
	case *sqlmini.InList:
		v := env.eval(x.E)
		if v.IsNull() {
			return null
		}
		found := false
		for _, le := range x.List {
			if lv := env.eval(le); !lv.IsNull() && sqlmini.Compare(v, lv) == 0 {
				found = true
			}
		}
		return boolVal(found != x.Negate)
	case *sqlmini.Agg:
		return env.aggregate(x)
	case *sqlmini.BinOp:
		l, r := env.eval(x.L), env.eval(x.R)
		switch x.Op {
		case "AND":
			return boolVal(truth(l) && truth(r))
		case "OR":
			return boolVal(truth(l) || truth(r))
		case "LIKE":
			if l.K != sqlmini.KindText || r.K != sqlmini.KindText {
				return null
			}
			return boolVal(like(l.S, r.S))
		}
		if l.IsNull() || r.IsNull() {
			return null
		}
		c := sqlmini.Compare(l, r)
		lf, _ := l.AsFloat()
		rf, _ := r.AsFloat()
		ints := l.K == sqlmini.KindInt && r.K == sqlmini.KindInt
		num := func(i int64, f float64) sqlmini.Value {
			if ints {
				return sqlmini.Int(i)
			}
			return sqlmini.Float(f)
		}
		switch x.Op {
		case "=":
			return boolVal(c == 0)
		case "<>":
			return boolVal(c != 0)
		case "<":
			return boolVal(c < 0)
		case "<=":
			return boolVal(c <= 0)
		case ">":
			return boolVal(c > 0)
		case ">=":
			return boolVal(c >= 0)
		case "+":
			return num(l.I+r.I, lf+rf)
		case "-":
			return num(l.I-r.I, lf-rf)
		case "*":
			return num(l.I*r.I, lf*rf)
		case "/":
			if rf == 0 {
				return null
			}
			return sqlmini.Float(lf / rf)
		}
	}
	panic(fmt.Sprintf("naive: cannot evaluate %T", e))
}

func (env *naiveEnv) aggregate(a *sqlmini.Agg) sqlmini.Value {
	var vals []sqlmini.Value
	seen := map[string]bool{}
	for _, r := range env.group {
		if a.E == nil {
			vals = append(vals, sqlmini.Int(1))
			continue
		}
		v := (&naiveEnv{layout: env.layout, row: r}).eval(a.E)
		if v.IsNull() || (a.Distinct && seen[canon(v)]) {
			continue
		}
		seen[canon(v)] = true
		vals = append(vals, v)
	}
	if a.Func == "COUNT" {
		return sqlmini.Int(int64(len(vals)))
	}
	if len(vals) == 0 {
		return sqlmini.Null
	}
	// An all-INT SUM is exact (and wraps, as + does); AVG divides it.
	best, sum, isum, ints := vals[0], 0.0, int64(0), true
	for _, v := range vals {
		f, _ := v.AsFloat()
		sum += f
		isum += v.I
		ints = ints && v.K == sqlmini.KindInt
		if c := sqlmini.Compare(v, best); (a.Func == "MIN" && c < 0) || (a.Func == "MAX" && c > 0) {
			best = v
		}
	}
	if ints {
		sum = float64(isum)
	}
	switch a.Func {
	case "SUM":
		if ints {
			return sqlmini.Int(isum)
		}
		return sqlmini.Float(sum)
	case "AVG":
		return sqlmini.Float(sum / float64(len(vals)))
	}
	return best
}

// hasAgg reports whether a select item aggregates (the generator puts
// aggregates at the top of an item or under arithmetic only).
func hasAgg(e sqlmini.Expr) bool {
	switch x := e.(type) {
	case *sqlmini.Agg:
		return true
	case *sqlmini.UnOp:
		return hasAgg(x.E)
	case *sqlmini.BinOp:
		return hasAgg(x.L) || hasAgg(x.R)
	}
	return false
}

// naiveSelect evaluates st, with lits its literal values, over db. The
// result is in the order the naive evaluation produces; with an ORDER
// BY it is sorted (stably) and cut to LIMIT, without one LIMIT is left
// to the caller.
func naiveSelect(db map[string]*naiveTable, st *sqlmini.SelectStmt, lits []sqlmini.Value) []sqlmini.Row {
	names, aliases, conds := []string{st.Table}, []string{st.Alias}, []sqlmini.Expr{st.Where}
	for _, j := range st.Joins {
		names, aliases, conds = append(names, j.Table), append(aliases, j.Alias), append(conds, j.On)
	}
	env := &naiveEnv{lits: lits}
	for i, n := range names {
		if aliases[i] == "" {
			aliases[i] = n
		}
		for _, c := range db[n].cols {
			env.layout = append(env.layout, naiveCol{aliases[i], c.Name})
		}
	}

	// Cross product in textual order, one full-width row per combination.
	// The ON of join t names tables 0..t only, so it drops a prefix as
	// soon as table t is in it; WHERE (conds[0]) tests full rows.
	var joined []sqlmini.Row
	var cross func(t int, prefix sqlmini.Row)
	cross = func(t int, prefix sqlmini.Row) {
		env.row = prefix
		if t > 1 && conds[t-1] != nil && !truth(env.eval(conds[t-1])) {
			return
		}
		if t < len(names) {
			for _, r := range db[names[t]].rows {
				cross(t+1, append(prefix[:len(prefix):len(prefix)], r...))
			}
			return
		}
		if conds[0] != nil && !truth(env.eval(conds[0])) {
			return
		}
		joined = append(joined, prefix)
	}
	cross(0, nil)

	// Groups: one per distinct GROUP BY key in first-seen order, one
	// global group under aggregates alone, else one per row.
	grouped := len(st.GroupBy) > 0 || st.Having != nil
	var items []sqlmini.Expr
	for _, it := range st.Items {
		if it.Star {
			for _, c := range env.layout {
				items = append(items, &sqlmini.ColRef{Table: c.alias, Column: c.name})
			}
			continue
		}
		items = append(items, it.Expr)
		grouped = grouped || hasAgg(it.Expr)
	}
	var groups [][]sqlmini.Row
	at := map[string]int{}
	for _, r := range joined {
		if !grouped {
			groups = append(groups, []sqlmini.Row{r})
			continue
		}
		env.row = r
		key := make(sqlmini.Row, len(st.GroupBy))
		for i, g := range st.GroupBy {
			key[i] = env.eval(g)
		}
		k := canonRow(key)
		if _, ok := at[k]; !ok {
			at[k] = len(groups)
			groups = append(groups, nil)
		}
		groups[at[k]] = append(groups[at[k]], r)
	}
	if grouped && len(st.GroupBy) == 0 && len(joined) == 0 {
		groups = [][]sqlmini.Row{nil}
	}

	type outRow struct{ out, keys sqlmini.Row }
	var out []outRow
	dup := map[string]bool{}
	for _, g := range groups {
		env.row, env.group = make(sqlmini.Row, len(env.layout)), nil
		if len(g) > 0 {
			env.row = g[0]
		}
		if grouped {
			env.group = g
			if g == nil {
				env.group = []sqlmini.Row{}
			}
		}
		if st.Having != nil && !truth(env.eval(st.Having)) {
			continue
		}
		o := outRow{out: make(sqlmini.Row, len(items))}
		for i, it := range items {
			o.out[i] = env.eval(it)
		}
		if st.Distinct && dup[canonRow(o.out)] {
			continue
		}
		dup[canonRow(o.out)] = true
	keys:
		for _, ob := range st.OrderBy {
			if cr, ok := ob.Expr.(*sqlmini.ColRef); ok && cr.Table == "" {
				for i, it := range st.Items {
					if it.Alias == cr.Column {
						o.keys = append(o.keys, o.out[i])
						continue keys
					}
				}
			}
			o.keys = append(o.keys, env.eval(ob.Expr))
		}
		out = append(out, o)
	}
	sort.SliceStable(out, func(a, b int) bool {
		for i, ob := range st.OrderBy {
			if c := sqlmini.Compare(out[a].keys[i], out[b].keys[i]); c != 0 {
				return (c < 0) != ob.Desc
			}
		}
		return false
	})
	if len(st.OrderBy) > 0 && st.Limit >= 0 && len(out) > st.Limit {
		out = out[:st.Limit]
	}
	rows := make([]sqlmini.Row, len(out))
	for i, o := range out {
		rows[i] = o.out
	}
	return rows
}

// ---------------------------------------------------------------------
// Generated joins
// ---------------------------------------------------------------------

// genDB fills every table of a schema with a few rows drawn from tiny
// domains: duplicate join keys, NULLs in every kind of column, and
// floats that are sometimes whole numbers, so that int = float keys
// must fold. Floats are multiples of 1/4: their sums are exact in any
// order.
func genDB(rng *rand.Rand, schema sqlmini.Schema) map[string]*naiveTable {
	db := map[string]*naiveTable{}
	names := make([]string, 0, len(schema))
	for n := range schema {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// The loaders' schemas declare indexes; here the test decides.
		t := &naiveTable{cols: append([]sqlmini.Column(nil), schema[n]...)}
		for c := range t.cols {
			t.cols[c].Indexed = false
		}
		for i, nrows := 0, 4+rng.Intn(9); i < nrows; i++ {
			t.rows = append(t.rows, genRow(rng, t.cols, int64(i)))
		}
		db[n] = t
	}
	return db
}

// genRow draws one row with the given primary key.
func genRow(rng *rand.Rand, cols []sqlmini.Column, pk int64) sqlmini.Row {
	r := make(sqlmini.Row, len(cols))
	for c, col := range cols {
		if col.PrimaryKey {
			r[c] = sqlmini.Int(pk)
		} else {
			r[c] = genValue(rng, col.Type)
		}
	}
	return r
}

func genValue(rng *rand.Rand, k sqlmini.Kind) sqlmini.Value {
	switch {
	case rng.Intn(8) == 0:
		return sqlmini.Null
	case k == sqlmini.KindInt:
		return sqlmini.Int(int64(rng.Intn(3)))
	case k == sqlmini.KindFloat:
		return sqlmini.Float(float64(rng.Intn(10)) / 4)
	}
	return sqlmini.Text([]string{"x", "y", "xy", ""}[rng.Intn(4)])
}

// sqlLit renders a generated value as a SQL literal. A whole float
// prints as an integer; the column's type makes it a float again.
func sqlLit(v sqlmini.Value) string {
	if v.K == sqlmini.KindText {
		return "'" + v.S + "'"
	}
	return v.String()
}

// tableNames returns db's table names, sorted.
func tableNames(db map[string]*naiveTable) []string {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// copyDB copies the tables and their row lists; rows themselves are
// replaced, never written, by mutate.
func copyDB(db map[string]*naiveTable) map[string]*naiveTable {
	out := make(map[string]*naiveTable, len(db))
	for n, t := range db {
		out[n] = &naiveTable{cols: t.cols, rows: append([]sqlmini.Row(nil), t.rows...)}
	}
	return out
}

// mutate applies one INSERT, one UPDATE that moves a primary key, one
// UPDATE of another column and one DELETE, each to a random table, to
// db and — as SQL — to every engine: what a lazily built index must
// notice between two runs of a cached plan. serial numbers the keys it
// hands out.
func mutate(t *testing.T, rng *rand.Rand, db map[string]*naiveTable, engines []*sqlmini.Engine, serial *int64) {
	names := tableNames(db)
	exec := func(sql string) {
		for _, e := range engines {
			if _, err := e.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	pick := func() (string, *naiveTable, int) {
		n := names[rng.Intn(len(names))]
		nt := db[n]
		for c, col := range nt.cols {
			if col.PrimaryKey {
				return n, nt, c
			}
		}
		panic("naive: table " + n + " has no primary key")
	}
	fresh := func() int64 { *serial++; return 1000 + *serial }

	n, nt, _ := pick()
	row := genRow(rng, nt.cols, fresh())
	lits := make([]string, len(row))
	for c, v := range row {
		lits[c] = sqlLit(v)
	}
	exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", n, strings.Join(lits, ", ")))
	nt.rows = append(nt.rows, row)

	// replace swaps in a copy of row at with column c set to v.
	replace := func(nt *naiveTable, at, c int, v sqlmini.Value) {
		nr := append(sqlmini.Row(nil), nt.rows[at]...)
		nr[c] = v
		nt.rows[at] = nr
	}
	n, nt, pk := pick()
	at := rng.Intn(len(nt.rows))
	moved := sqlmini.Int(fresh())
	exec(fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %s", n, nt.cols[pk].Name, sqlLit(moved), nt.cols[pk].Name, sqlLit(nt.rows[at][pk])))
	replace(nt, at, pk, moved)

	n, nt, pk = pick()
	if c := rng.Intn(len(nt.cols)); c != pk {
		at, v := rng.Intn(len(nt.rows)), genValue(rng, nt.cols[c].Type)
		exec(fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %s", n, nt.cols[c].Name, sqlLit(v), nt.cols[pk].Name, sqlLit(nt.rows[at][pk])))
		replace(nt, at, c, v)
	}

	n, nt, pk = pick()
	if len(nt.rows) > 2 {
		at := rng.Intn(len(nt.rows))
		exec(fmt.Sprintf("DELETE FROM %s WHERE %s = %s", n, nt.cols[pk].Name, sqlLit(nt.rows[at][pk])))
		nt.rows = append(nt.rows[:at:at], nt.rows[at+1:]...)
	}
}

// loadEngine copies db into an engine with no secondary index.
func loadEngine(t testing.TB, db map[string]*naiveTable) *sqlmini.Engine {
	e := sqlmini.New()
	for name, nt := range db {
		if err := e.CreateTable(name, nt.cols); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkInsert(name, nt.rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// indexSome declares a secondary index on about half of the non-key
// columns — every one of them is a join column to the generator — so
// that joins meet keys indexed on one side, both or neither, composite
// keys with one part indexed, and int keys probing float indexes.
func indexSome(t *testing.T, rng *rand.Rand, e *sqlmini.Engine, db map[string]*naiveTable) {
	for _, n := range tableNames(db) {
		for _, c := range db[n].cols {
			if !c.PrimaryKey && rng.Intn(2) == 0 {
				if err := e.CreateIndex(n, c.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// maxCrossProduct bounds the combinations naiveSelect enumerates for one
// generated query; a join that would exceed it stops at fewer tables.
const maxCrossProduct = 20000

// joinGen writes one random join query.
type joinGen struct {
	rng    *rand.Rand
	tables []string   // aliases t0..; tables[i] is alias i's table
	num    [][]string // per alias: qualified numeric columns
	ints   [][]string // per alias: those of them that are plain INT columns, the ones dense in duplicates
	text   [][]string // per alias: qualified text columns
	pk     []string   // per alias: qualified primary key
}

func (g *joinGen) pick(s []string) string { return s[g.rng.Intn(len(s))] }

// numCol returns a numeric column of alias a (every table has a key),
// more often than not one whose few values repeat.
func (g *joinGen) numCol(a int) string {
	if len(g.ints[a]) > 0 && g.rng.Intn(3) > 0 {
		return g.pick(g.ints[a])
	}
	return g.pick(g.num[a])
}

// linking returns a conjunct tying alias k to an earlier alias.
func (g *joinGen) linking(k int) string {
	j := g.rng.Intn(k)
	a, b := g.numCol(k), g.numCol(j)
	switch g.rng.Intn(11) {
	case 10: // composite key: two equalities between the same two tables
		return a + " = " + b + " AND " + g.numCol(k) + " = " + g.numCol(j)
	case 0, 1, 2, 3, 4:
		if g.rng.Intn(2) == 0 {
			a, b = b, a
		}
		return a + " = " + b // hash key
	case 5:
		if len(g.text[k]) > 0 && len(g.text[j]) > 0 {
			return g.pick(g.text[k]) + " = " + g.pick(g.text[j]) // text hash key
		}
		return a + " = " + b
	case 6:
		return a + " " + g.pick([]string{"<", "<=", ">", "<>"}) + " " + b // non-equi
	case 7:
		return a + " = " + b + " + " + fmt.Sprint(g.rng.Intn(2)) // equality the planner cannot hash
	case 8:
		return a + " + " + b + " >= " + fmt.Sprint(g.rng.Intn(4))
	default:
		return a + " * 2 > " + b + " + " + g.numCol(g.rng.Intn(k)) // up to three tables
	}
}

// local returns a single-table conjunct on alias a.
func (g *joinGen) local(a int) string {
	c := g.numCol(a)
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("%s = %d", g.pk[a], g.rng.Intn(4)) // pk probe
	case 1:
		return fmt.Sprintf("%s = %d", c, g.rng.Intn(4)) // index probe when indexed
	case 2:
		return fmt.Sprintf("%s < %d", c, 1+g.rng.Intn(3))
	case 3:
		return fmt.Sprintf("%s IN (0, 2, %d)", c, g.rng.Intn(4))
	case 4:
		return fmt.Sprintf("%s NOT BETWEEN 1 AND %d", c, 1+g.rng.Intn(2))
	case 5:
		return fmt.Sprintf("%s IS %sNULL", c, g.pick([]string{"", "NOT "}))
	case 6:
		if len(g.text[a]) > 0 {
			return fmt.Sprintf("%s LIKE '%s'", g.pick(g.text[a]), g.pick([]string{"x%", "%y", "_", "%"}))
		}
		return c + " IS NOT NULL"
	case 7:
		return fmt.Sprintf("(%s = 1 OR %s > 2)", c, g.numCol(a))
	default:
		return fmt.Sprintf("NOT %s = %d", c, g.rng.Intn(3))
	}
}

// query returns the SQL and whether its result is determined as a
// sequence (ORDER BY over every output column) or only as a multiset.
func (g *joinGen) query() (sql string, sequence bool) {
	n := len(g.tables)
	var sb strings.Builder
	any := func() int { return g.rng.Intn(n) }

	var items, groupBy []string
	grouped := g.rng.Intn(2) == 0
	if grouped {
		if g.rng.Intn(3) == 0 {
			// An alias's pk beside other columns of that alias — the ones
			// the planner leaves out of the group key — text and NULL ones
			// among them, the pk anywhere in the list.
			a := any()
			groupBy = append(groupBy, g.pk[a])
			for i, k := 0, 1+g.rng.Intn(3); i < k; i++ {
				ge := g.numCol(a)
				if g.rng.Intn(2) == 0 && len(g.text[a]) > 0 {
					ge = g.pick(g.text[a])
				}
				groupBy = append(groupBy, ge)
			}
			g.rng.Shuffle(len(groupBy), func(i, j int) { groupBy[i], groupBy[j] = groupBy[j], groupBy[i] })
			items = append(items, groupBy...)
		}
		for i, k := 0, g.rng.Intn(4); i < k; i++ {
			ge := g.numCol(any())
			if g.rng.Intn(4) == 0 && len(g.text[0]) > 0 {
				ge = g.pick(g.text[0])
			}
			groupBy = append(groupBy, ge)
			items = append(items, ge)
		}
		for i, k := 0, 1+g.rng.Intn(3); i < k; i++ {
			c := g.numCol(any())
			items = append(items, g.pick([]string{
				"COUNT(*)", "COUNT(" + c + ")", "SUM(" + c + ")", "MIN(" + c + ")", "MAX(" + c + ")", "AVG(" + c + ")",
				"COUNT(DISTINCT " + c + ")", "SUM(DISTINCT " + c + ")", "SUM(" + c + " * " + g.numCol(any()) + ")",
			}))
		}
	} else {
		for i, k := 0, 1+g.rng.Intn(3); i < k; i++ {
			switch a := any(); {
			case g.rng.Intn(4) == 0:
				items = append(items, g.numCol(a)+" + "+g.numCol(any()))
			case g.rng.Intn(3) == 0 && len(g.text[a]) > 0:
				items = append(items, g.pick(g.text[a]))
			default:
				items = append(items, g.numCol(a))
			}
		}
	}
	sb.WriteString("SELECT ")
	if g.rng.Intn(4) == 0 {
		sb.WriteString("DISTINCT ")
	}
	star := !grouped && g.rng.Intn(10) == 0
	if star {
		sb.WriteString("*")
	}
	aliases := make([]string, len(items))
	for i, it := range items {
		if star {
			break
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		aliases[i] = fmt.Sprintf("o%d", i)
		fmt.Fprintf(&sb, "%s AS %s", it, aliases[i])
	}

	fmt.Fprintf(&sb, " FROM %s t0", g.tables[0])
	for k := 1; k < n; k++ {
		fmt.Fprintf(&sb, " JOIN %s t%d ON %s", g.tables[k], k, g.linking(k))
		for g.rng.Intn(4) == 0 {
			sb.WriteString(" AND " + g.pick([]string{g.linking(k), g.local(g.rng.Intn(k + 1))}))
		}
	}
	var where []string
	for g.rng.Intn(3) == 0 {
		where = append(where, g.local(any()))
	}
	if g.rng.Intn(6) == 0 {
		where = append(where, g.linking(1+g.rng.Intn(n-1)))
	}
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if len(groupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
	}
	if grouped && g.rng.Intn(4) == 0 {
		sb.WriteString(" HAVING COUNT(*) > 1")
	}

	switch g.rng.Intn(4) {
	case 0: // no ORDER BY; a LIMIT then keeps whichever rows come first
		if !grouped && g.rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", g.rng.Intn(6))
		}
	case 1: // partial order: some output columns, or an input expression
		if star {
			break
		}
		if grouped || g.rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " ORDER BY %s%s", g.pick(aliases), g.pick([]string{"", " DESC"}))
		} else {
			fmt.Fprintf(&sb, " ORDER BY %s + %s DESC", g.numCol(any()), g.numCol(any()))
		}
	default: // total order over the output, so a LIMIT is determined
		if star {
			break
		}
		sb.WriteString(" ORDER BY ")
		for i, p := range g.rng.Perm(len(aliases)) {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(aliases[p] + g.pick([]string{"", " DESC"}))
		}
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", g.rng.Intn(8))
		}
		sequence = true
	}
	return sb.String(), sequence
}

func newJoinGen(rng *rand.Rand, db map[string]*naiveTable) *joinGen {
	names := tableNames(db)
	g := &joinGen{rng: rng}
	product := 1 // of the row counts: what the naive evaluator walks
	for a, n := 0, 2+rng.Intn(4); a < n; a++ {
		name := names[rng.Intn(len(names))] // with replacement: self-joins happen
		if product *= len(db[name].rows); a >= 2 && product > maxCrossProduct {
			break
		}
		g.tables = append(g.tables, name)
		var num, ints, text []string
		for _, c := range db[name].cols {
			q := fmt.Sprintf("t%d.%s", a, c.Name)
			switch {
			case c.PrimaryKey:
				g.pk = append(g.pk, q)
				num = append(num, q)
			case c.Type == sqlmini.KindText:
				text = append(text, q)
			case c.Type == sqlmini.KindInt:
				num, ints = append(num, q), append(ints, q)
			default:
				num = append(num, q)
			}
		}
		g.num, g.ints, g.text = append(g.num, num), append(g.ints, ints), append(g.text, text)
	}
	return g
}

func renderRows(rows []sqlmini.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d:%s", v.K, v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestJoinsAgainstNaiveEvaluator runs seeded random joins of two to
// five TPC-H and TPC-App tables — equi, non-equi, composite and mixed
// conditions, GROUP BY, DISTINCT, ORDER BY, LIMIT — through the engine
// and through naiveSelect. Each query runs on an engine without
// secondary indexes and on one with a random set of them, on a
// plan-cache miss and again on the hit, and on the indexed engine also
// against a view pinned before the indexes existed (no index to probe,
// no cached plan that fits). Between batches of queries every engine and
// the naive tables take an INSERT, a pk-changing UPDATE, another UPDATE
// and a DELETE, so cached plans meet indexes that must rebuild, and the
// pinned view must keep answering from the rows it was cut with. Every
// result must be the naive one: as a sequence when the ORDER BY is
// total, else as a multiset, and under a LIMIT with no ORDER BY as a
// sub-multiset of the right size.
func TestJoinsAgainstNaiveEvaluator(t *testing.T) {
	const queriesPerDB, queriesPerBatch = 60, 15
	for si, schema := range []sqlmini.Schema{tpch.Schema(), tpcapp.Schema()} {
		for round := 0; round < 2; round++ {
			rng := rand.New(rand.NewSource(int64(100*si + round)))
			db := genDB(rng, schema)
			plain, indexed := loadEngine(t, db), loadEngine(t, db)
			pinnedDB, pinned := copyDB(db), indexed.AcquireView()
			indexSome(t, rng, indexed, db)
			var serial int64
			for q := 0; q < queriesPerDB; q++ {
				if q > 0 && q%queriesPerBatch == 0 {
					mutate(t, rng, db, []*sqlmini.Engine{plain, indexed}, &serial)
				}
				sql, sequence := newJoinGen(rng, db).query()
				st, err := sqlmini.Parse(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				sel := st.AST.(*sqlmini.SelectStmt)
				// naive evaluates the query over db, once per table state.
				naive := func(db map[string]*naiveTable) []string {
					want := renderRows(naiveSelect(db, sel, st.Params))
					if !sequence {
						sort.Strings(want)
					}
					return want
				}
				// check holds one engine result to a naive one.
				check := func(want []string, what string, res *sqlmini.Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					got := renderRows(res.Rows)
					cut := -1 // LIMIT without ORDER BY
					if len(sel.OrderBy) == 0 && sel.Limit >= 0 {
						cut = min(sel.Limit, len(want))
					}
					if !sequence {
						sort.Strings(got)
					}
					ok := reflect.DeepEqual(got, want)
					if cut >= 0 {
						ok = len(got) == cut && subMultiset(got, want)
					}
					if !ok {
						t.Fatalf("schema %d round %d query %d, %s:\n%s\nengine %d rows %v\nnaive  %d rows %v",
							si, round, q, what, sql, len(got), got, len(want), want)
					}
				}
				want := naive(db)
				for ei, e := range []*sqlmini.Engine{plain, indexed} {
					// The first run plans the statement (unless an earlier
					// query had its shape); the second must find that plan.
					for _, pass := range []string{"first", "cached"} {
						before := e.PlannerStats()
						res, err := e.ExecStmt(st)
						if after := e.PlannerStats(); pass == "cached" && after.Hits != before.Hits+1 {
							t.Fatalf("%s: second run missed the plan cache", sql)
						}
						check(want, fmt.Sprintf("indexes %v, %s run", ei == 1, pass), res, err)
					}
				}
				before := indexed.PlannerStats()
				res, err := indexed.QueryView(pinned, sql)
				check(naive(pinnedDB), "pinned pre-index view", res, err)
				if after := indexed.PlannerStats(); after.Entries != before.Entries || after.Invalidations != before.Invalidations {
					t.Fatalf("%s: the pinned view's run touched the plan cache: %+v -> %+v", sql, before, after)
				}
			}
		}
	}
}

// subMultiset reports whether sorted a is contained in sorted b.
func subMultiset(a, b []string) bool {
	for len(a) > 0 && len(b) > 0 {
		if a[0] == b[0] {
			a = a[1:]
		}
		b = b[1:]
	}
	return len(a) == 0
}

// ---------------------------------------------------------------------
// Generated intervals, ordered walks and bare LIMITs
// ---------------------------------------------------------------------

// rangeSchema is what rangeGen queries: t, whose columns a (INT), b
// (FLOAT) and s (TEXT) take intervals and ORDER BYs, and two smaller
// tables a join can lose t's rows in.
var rangeSchema = sqlmini.Schema{
	"t": {{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true}, {Name: "a", Type: sqlmini.KindInt},
		{Name: "b", Type: sqlmini.KindFloat}, {Name: "s", Type: sqlmini.KindText}, {Name: "c", Type: sqlmini.KindInt}},
	"u": {{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true}, {Name: "a", Type: sqlmini.KindInt},
		{Name: "f", Type: sqlmini.KindFloat}, {Name: "s", Type: sqlmini.KindText}},
	"w": {{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true}, {Name: "k", Type: sqlmini.KindInt},
		{Name: "g", Type: sqlmini.KindFloat}},
}

// rangeDB fills rangeSchema: t with some fifty rows over a dozen values a
// column — duplicates of every key, a NULL in one row of eight — so that
// an interval is sometimes a small share of the table (read through the
// index) and sometimes not (scanned).
func rangeDB(rng *rand.Rand) map[string]*naiveTable {
	db := map[string]*naiveTable{}
	for _, spec := range []struct {
		name string
		rows int
	}{{"t", 44 + rng.Intn(16)}, {"u", 10 + rng.Intn(5)}, {"w", 5 + rng.Intn(4)}} {
		nt := &naiveTable{cols: rangeSchema[spec.name]}
		for i := 0; i < spec.rows; i++ {
			r := make(sqlmini.Row, len(nt.cols))
			for c, col := range nt.cols {
				switch {
				case col.PrimaryKey:
					r[c] = sqlmini.Int(int64(i))
				case rng.Intn(8) == 0:
					r[c] = sqlmini.Null
				case col.Type == sqlmini.KindInt && col.Name == "c":
					r[c] = sqlmini.Int(int64(rng.Intn(3)))
				case col.Type == sqlmini.KindInt:
					r[c] = sqlmini.Int(int64(rng.Intn(12)))
				case col.Type == sqlmini.KindFloat:
					r[c] = sqlmini.Float(float64(rng.Intn(24)) / 2)
				default:
					r[c] = sqlmini.Text([]string{"", "x", "xy", "y", "yx", "z"}[rng.Intn(6)])
				}
			}
			nt.rows = append(nt.rows, r)
		}
		db[spec.name] = nt
	}
	return db
}

// rangeGen writes the statements the ordered index access answers.
type rangeGen struct{ rng *rand.Rand }

func (g *rangeGen) pick(s ...string) string { return s[g.rng.Intn(len(s))] }

// lit returns a constant to hold a column of t against: mostly of the
// column's kind, sometimes of another (2 against 2.0, a text bound on a
// numeric column and the reverse), now and then NULL.
func (g *rangeGen) lit(col string) string {
	if g.rng.Intn(10) == 0 {
		return "NULL"
	}
	num := g.pick(fmt.Sprint(g.rng.Intn(14)-1), fmt.Sprintf("%d.0", g.rng.Intn(12)), fmt.Sprintf("%d.5", g.rng.Intn(12)))
	text := g.pick("''", "'x'", "'xy'", "'y'", "'yy'")
	if (col == "t.s") != (g.rng.Intn(8) == 0) {
		return text
	}
	return num
}

// interval returns one to three conjuncts holding col between constants:
// a bound with the column on either side, BETWEEN, NOT BETWEEN, or two
// bounds — which may leave nothing between them, or cross.
func (g *rangeGen) interval(col string) string {
	op := func() string { return g.pick("<", "<=", ">", ">=") }
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.lit(col), op(), col)
	case 1:
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, g.lit(col), g.lit(col))
	case 2:
		return fmt.Sprintf("%s NOT BETWEEN %s AND %s", col, g.lit(col), g.lit(col))
	case 3:
		return fmt.Sprintf("%s %s %s AND %s %s %s", col, g.pick(">", ">="), g.lit(col), col, g.pick("<", "<="), g.lit(col))
	case 4:
		v := g.lit(col) // nothing, or one value, between the ends
		return fmt.Sprintf("%s %s %s AND %s %s %s", col, g.pick(">", ">="), v, col, g.pick("<", "<="), v)
	case 5:
		return fmt.Sprintf("%s %s %s AND %s %s %s AND %s %s %s", col, op(), g.lit(col), col, op(), g.lit(col), col, op(), g.lit(col))
	}
	return fmt.Sprintf("%s %s %s", col, op(), g.lit(col))
}

// other returns a conjunct on t no index serves.
func (g *rangeGen) other() string {
	return g.pick("t.c <> 1", "t.b + 1 > 4", "t.s LIKE 'x%'", "t.a IS NOT NULL", "t.id < 30", "t.c IN (0, 2)")
}

// query returns a statement and, when it has an ORDER BY, that the
// first output column is its key.
func (g *rangeGen) query() (sql string, ordered bool) {
	col := g.pick("t.a", "t.a", "t.b", "t.s")
	var where []string
	for g.rng.Intn(3) > 0 {
		where = append(where, g.interval(g.pick(col, col, "t.a", "t.b")))
	}
	if g.rng.Intn(3) == 0 {
		where = append(where, g.other())
	}
	limit := func() string { return " LIMIT " + g.pick("0", "1", "2", "3", "5", "8", "13", "1000") }
	switch g.rng.Intn(6) {
	case 0: // the interval alone
		sql = "SELECT t.id, t.a, t.b FROM t"
	case 1: // a bare LIMIT over a filtered scan, an interval or an equality probe
		if g.rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("%s = %s", col, g.lit(col)))
		}
		return "SELECT t.id, t.s FROM t" + whereClause(where) + limit(), false
	case 2: // an interval under a join and an aggregate
		return "SELECT COUNT(*), SUM(u.f) FROM t JOIN u ON u.a = t.c" + whereClause(where), false
	default: // ORDER BY col [DESC] LIMIT k: alone, or under a join that drops tuples
		from := "t"
		switch g.rng.Intn(4) {
		case 0:
			from = "t JOIN u ON " + g.pick("u.a = t.c", "u.id = t.a", "u.a = t.a AND u.f > t.b", "u.s = t.s")
		case 1:
			from = "u JOIN t ON t.c = u.a JOIN w ON " + g.pick("w.k = u.a", "w.id = t.c AND w.g < t.b", "w.k = t.c AND w.g >= u.f")
		}
		sql = fmt.Sprintf("SELECT %s AS o0, t.id, t.c FROM %s%s ORDER BY %s%s", col, from, whereClause(where), g.pick("o0", col), g.pick("", " DESC"))
		if g.rng.Intn(5) > 0 {
			sql += limit()
		}
		return sql, true
	}
	return sql + whereClause(where), false
}

func whereClause(conjuncts []string) string {
	if len(conjuncts) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conjuncts, " AND ")
}

// checkOrderedPrefix holds got, the engine's answer to ORDER BY <first
// column> [LIMIT k], to all, the naive rows in that order without the
// LIMIT. The ORDER BY does not say which of the rows tied at the LIMIT's
// boundary survive, and the engine's choice follows its join order, so:
// got has the right length and all's keys row for row; its rows before
// the boundary key are all's, as a multiset; its rows at the boundary
// key are among all's rows with that key.
func checkOrderedPrefix(got, all []sqlmini.Row, k int) error {
	if k < 0 || k > len(all) {
		k = len(all)
	}
	if len(got) != k {
		return fmt.Errorf("%d rows, want %d", len(got), k)
	}
	if k == 0 {
		return nil
	}
	for i, r := range got {
		if sqlmini.Compare(r[0], all[i][0]) != 0 || r[0].IsNull() != all[i][0].IsNull() {
			return fmt.Errorf("row %d has key %v, want %v", i, r[0], all[i][0])
		}
	}
	boundary := got[k-1][0]
	split := func(rows []sqlmini.Row) (before, at []string) {
		for _, r := range rows {
			if sqlmini.Compare(r[0], boundary) == 0 {
				at = append(at, renderRows([]sqlmini.Row{r})...)
			} else {
				before = append(before, renderRows([]sqlmini.Row{r})...)
			}
		}
		sort.Strings(before)
		sort.Strings(at)
		return before, at
	}
	gotBefore, gotAt := split(got)
	last := k // all's rows with the boundary key may go on past k
	for last < len(all) && sqlmini.Compare(all[last][0], boundary) == 0 {
		last++
	}
	wantBefore, wantAt := split(all[:last])
	if !reflect.DeepEqual(gotBefore, wantBefore) {
		return fmt.Errorf("rows before the boundary key %v: %v, want %v", boundary, gotBefore, wantBefore)
	}
	if !subMultiset(gotAt, wantAt) {
		return fmt.Errorf("rows at the boundary key %v: %v, want some of %v", boundary, gotAt, wantAt)
	}
	return nil
}

// TestOrderedAccessAgainstNaiveEvaluator runs generated intervals —
// bounds of the column's kind and of another, BETWEEN and NOT BETWEEN,
// ends that meet or cross, on indexed and unindexed columns holding
// NULLs and duplicates — ORDER BY <column> [DESC] LIMIT k alone and
// under joins that drop tuples, k from 0 to beyond the table, and bare
// LIMITs over scans and probes, through the engine and through
// naiveSelect. Every statement runs without indexes and with them, on
// the plan-cache miss and on the hit, against the current view and
// against a view pinned before the last batch of writes: an INSERT, a
// pk-changing UPDATE, an UPDATE of some column (which the next view's
// index shares or rebuilds, depending) and a DELETE. An index changes
// which rows are read, never the order they come in: where both engines
// start from t — every statement here but the joins under ORDER BY —
// the indexed engine's rows are the plain one's, as a sequence.
func TestOrderedAccessAgainstNaiveEvaluator(t *testing.T) {
	const queriesPerDB, queriesPerBatch = 160, 20
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(int64(7000 + round)))
		db := rangeDB(rng)
		plain, indexed := loadEngine(t, db), loadEngine(t, db)
		for _, ic := range [][2]string{{"t", "a"}, {"t", "b"}, {"t", "s"}, {"u", "a"}, {"w", "k"}} {
			if ic[1] == "a" || rng.Intn(4) > 0 {
				if err := indexed.CreateIndex(ic[0], ic[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		engines := []*sqlmini.Engine{plain, indexed}
		pinnedDB, pinned := copyDB(db), []sqlmini.View{plain.AcquireView(), indexed.AcquireView()}
		var serial int64
		g := &rangeGen{rng: rng}
		for q := 0; q < queriesPerDB; q++ {
			if q > 0 && q%queriesPerBatch == 0 {
				pinnedDB, pinned = copyDB(db), []sqlmini.View{plain.AcquireView(), indexed.AcquireView()}
				mutate(t, rng, db, engines, &serial)
			}
			sql, ordered := g.query()
			st, err := sqlmini.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			sel := st.AST.(*sqlmini.SelectStmt)
			unlimited := *sel
			unlimited.Limit = -1
			for vi, state := range []map[string]*naiveTable{db, pinnedDB} {
				all := naiveSelect(state, &unlimited, st.Params)
				var plainRows []string
				for ei, e := range engines {
					for _, pass := range []string{"first", "cached"} {
						var res *sqlmini.Result
						if vi == 0 {
							res, err = e.ExecStmt(st)
						} else {
							res, err = e.QueryView(pinned[ei], sql)
						}
						if err != nil {
							t.Fatalf("%s: %v", sql, err)
						}
						if ordered {
							err = checkOrderedPrefix(res.Rows, all, sel.Limit)
						} else {
							got, want := renderRows(res.Rows), renderRows(all)
							sort.Strings(got)
							sort.Strings(want)
							if sel.Limit < 0 && !reflect.DeepEqual(got, want) {
								err = fmt.Errorf("%d rows %v, want %d rows %v", len(got), got, len(want), want)
							} else if sel.Limit >= 0 && (len(got) != min(sel.Limit, len(want)) || !subMultiset(got, want)) {
								err = fmt.Errorf("%d rows %v, want %d of %v", len(got), got, min(sel.Limit, len(want)), want)
							}
						}
						if got := renderRows(res.Rows); ei == 0 {
							plainRows = got
						} else if len(sel.Joins) == 0 && err == nil && !reflect.DeepEqual(got, plainRows) && len(got)+len(plainRows) > 0 {
							err = fmt.Errorf("rows %v, without indexes %v", got, plainRows)
						}
						if err != nil {
							plan, _ := e.Explain(sql)
							t.Fatalf("round %d query %d, indexes %v, %s run, pinned view %v:\n%s\n%v\nplan (current view):\n%s",
								round, q, ei == 1, pass, vi == 1, sql, err, plan)
						}
					}
				}
			}
		}
	}
}
