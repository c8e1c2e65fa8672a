package sqlmini

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// compileTable is the compiled-expression oracle's table: an INT, a
// FLOAT and a TEXT column drawn from the values the operators single out
// — NULL, NaN, both zeros, infinities, 2^53+1 and the ends of int64,
// texts that LIKE patterns and numbers meet — and a column declared
// without a type, which holds only NULLs. Two sealed chunks and a tail.
func compileTable(t testing.TB) (*Engine, *tableView) {
	t.Helper()
	ints := []Value{Null, Int(0), Int(-1), Int(1), Int(2), Int(7), Int(1<<53 + 1), Int(-(1<<53 + 1)), Int(math.MaxInt64), Int(math.MinInt64)}
	floats := []Value{Null, Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(-7.25), Float(1<<53 + 2),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxInt64), Float(1e308)}
	texts := []Value{Null, Text(""), Text("abc"), Text("a%c"), Text("7"), Text("zz")}
	rng := rand.New(rand.NewSource(40))
	rows := make([]Row, 2*rowChunkLen+100)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), ints[rng.Intn(len(ints))], floats[rng.Intn(len(floats))], texts[rng.Intn(len(texts))], Null}
	}
	e := New()
	if err := e.CreateTable("c", []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "i", Type: KindInt},
		{Name: "f", Type: KindFloat}, {Name: "s", Type: KindText}, {Name: "z"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("c", rows); err != nil {
		t.Fatal(err)
	}
	return e, e.loadView().tables["c"]
}

// compileParams are the params a random tree's literals read: one of
// every kind, and the values the operators single out.
var compileParams = []Value{Null, Int(0), Int(1), Int(-1), Int(3), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1<<53 + 2),
	Text(""), Text("abc"), Text("a%"), Text("%c"), Text("_b_"), Text("7")}

// compileAggs are the group's aggregate values an Agg leaf reads.
var compileAggs = []Value{Null, Int(5), Float(2.5), Text("abc"), Int(math.MinInt64), Float(math.NaN())}

// exprGen builds random bound expression trees over two scans of the
// compile table, drawing each choice from pick (a number in [0, n)):
// arithmetic, negation, comparisons, AND, OR, NOT, BETWEEN, IN, LIKE and
// IS NULL over columns, params and aggregates.
type exprGen struct {
	pick func(n int) int
}

func (g *exprGen) expr(depth int) Expr {
	if depth <= 0 || g.pick(4) == 0 {
		return g.leaf()
	}
	sub := func() Expr { return g.expr(depth - 1) }
	switch g.pick(10) {
	case 0, 1:
		return &BinOp{Op: []string{"+", "-", "*", "/"}[g.pick(4)], L: sub(), R: sub()}
	case 2:
		return &UnOp{Op: "-", E: sub()}
	case 3:
		return &BinOp{Op: []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)], L: sub(), R: sub()}
	case 4:
		return &BinOp{Op: []string{"AND", "OR"}[g.pick(2)], L: sub(), R: sub()}
	case 5:
		return &UnOp{Op: "NOT", E: sub()}
	case 6:
		return &Between{E: sub(), Lo: sub(), Hi: sub(), Negate: g.pick(2) == 1}
	case 7:
		in := &InList{E: sub(), Negate: g.pick(2) == 1}
		for k := g.pick(3); k >= 0; k-- {
			in.List = append(in.List, sub())
		}
		return in
	case 8:
		return &BinOp{Op: "LIKE", L: sub(), R: sub()}
	}
	return &IsNull{E: sub(), Negate: g.pick(2) == 1}
}

func (g *exprGen) leaf() Expr {
	switch k := g.pick(10); {
	case k < 4:
		return &Lit{Slot: g.pick(len(compileParams))}
	case k < 9:
		col := 1 + g.pick(4) // i, f, s, z
		return &boundCol{table: g.pick(2), col: col, name: []string{"id", "i", "f", "s", "z"}[col]}
	}
	return &Agg{Func: []string{"SUM", "MIN", "COUNT"}[g.pick(3)], slot: g.pick(len(compileAggs))}
}

// sameValue reports whether two Values are one: kind, integer, string and
// float bits.
func sameValue(a, b Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkCompiled holds the compiled form of e to eval on the rows of the
// table (scan 0) beside another (scan 1), outside aggregation and inside
// it: get must return eval's Value bit for bit, or its error, and holds
// must say whether that Value is true; and narrow, taking e as a filter
// of one conjunct over a block, must keep the tuples whose Value is true
// or report the error of the first tuple that raises one (checkNarrow).
// The compiled form reads the pairs in blocks (execRun.gather; a block
// of one through oneRow where the tree reads few columns) whose sizes,
// and the selection of each block's tuples evaluated, pick draws: every
// block of the table or, sampling, four of at most 64 tuples where pick
// places them; narrow also takes a sealed chunk in place — sampling, 64
// of its rows — where e reads scan 0 alone. eval reads the rows through
// rowStore.value.
func checkCompiled(t testing.TB, tv *tableView, e Expr, pick func(n int) int, sample bool) {
	t.Helper()
	p := &selectPlan{scans: []scanNode{{t: tv.t}, {t: tv.t}}}
	var reads []int
	c := &compiler{p: p, site: &reads}
	root, filter := c.root(e), c.conjuncts([]Expr{e})
	n := tv.rows.len()
	in := tuples{w: 2, n: n, ids: make([]int32, 2*n)}
	for r := 0; r < n; r++ {
		in.ids[2*r], in.ids[2*r+1] = int32(r), int32((r*7+3)%n)
	}
	x := &execRun{ctx: context.Background(), p: p, res: &Result{}, stores: []*rowStore{&tv.rows, &tv.rows}}
	defer func() {
		if x.sc != nil {
			x.sc.release()
		}
	}()
	x.ec.params = compileParams
	if len(p.reads) <= len(smallRun{}.ptrs) {
		x.small = new(smallRun) // a block of one tuple gathers as a small run's does
	}
	ec := &oracle{stores: x.stores, pos: make([]int, 2), params: compileParams}
	for _, aggs := range [][]Value{nil, compileAggs} {
		ec.aggs, x.ec.aggs = aggs, aggs
		for j, b := 0, 0; !sample && b < n || sample && j < 4; j++ {
			size := blockLen
			if sample {
				b, size = (pick(256)<<8|pick(256))%n, 64
			}
			m := min(n-b, 1+pick(size))
			x.gather(&in, 0, b, m, nil, reads)
			every := pick(2) == 0
			for k := 0; k < m; k++ {
				if !every && pick(3) != 0 {
					continue
				}
				r := b + k
				ec.pos[0], ec.pos[1] = r, (r*7+3)%n
				x.ec.at = k
				want, werr := eval(e, ec)
				got, gerr := root.get(&x.ec)
				ok, herr := root.holds(&x.ec)
				if werr != nil {
					if gerr == nil || gerr.Error() != werr.Error() || herr == nil || herr.Error() != werr.Error() {
						t.Fatalf("%s, row %d, aggregates %v: eval fails with %v; compiled %v, %v (holds %v)", exprString(e), r, aggs != nil, werr, got, gerr, herr)
					}
					continue
				}
				if gerr != nil || herr != nil || !sameValue(got, want) || ok != want.Truth() {
					t.Fatalf("%s, row %d, aggregates %v: eval %#v; compiled %#v, %v, holds %v, %v", exprString(e), r, aggs != nil, want, got, gerr, ok, herr)
				}
			}
			checkNarrow(t, x, block{src: &in, from: b, m: m}, everyRow[:m], filter, e, func(k int) { ec.pos[0], ec.pos[1] = b+k, ((b+k)*7+3)%n }, ec, pick)
			b += m
		}
		if !slices.ContainsFunc(p.reads, func(at colPos) bool { return at.scan != 0 }) {
			ci, sel := pick(len(tv.rows.chunks)), everyRow[:]
			if sample {
				sel = everyRow[pick(rowChunkLen/64)*64:][:64]
			}
			x.chunkBlock(tv.rows.chunks[ci], reads)
			checkNarrow(t, x, block{m: rowChunkLen}, sel, filter, e, func(k int) { ec.pos[0] = ci*rowChunkLen + k }, ec, pick)
		}
	}
	if x.ec.err != nil {
		t.Fatalf("%s: a failure stayed recorded: %v", exprString(e), x.ec.err)
	}
}

// checkNarrow holds narrow, taking filter — e compiled as a conjunct —
// over block b from the tuples of from, or every so many of them, and
// with a limit, as pick draws, to eval tuple after tuple (at(k) points
// ec at tuple k's rows): the tuples whose Value is true, in order, up to
// the limit, with the tuples examined, or the error of the first tuple
// that raises one.
func checkNarrow(t testing.TB, x *execRun, b block, from []uint16, filter []*cexpr, e Expr, at func(k int), ec *oracle, pick func(n int) int) {
	t.Helper()
	sel := from
	if step := 1 + pick(4); step > 1 {
		sel = nil
		for k := pick(step); k < len(from); k += step {
			sel = append(sel, from[k])
		}
	}
	limit, examined := -1, b.m
	if pick(2) == 1 {
		limit = 1 + pick(8)
	}
	var want []uint16
	var werr error
	for _, k := range sel {
		at(int(k))
		v, err := eval(e, ec)
		if err != nil {
			werr = err
			break
		}
		if v.Truth() {
			if want = append(want, k); len(want) == limit {
				examined = int(k) + 1
				break
			}
		}
	}
	var dst [blockLen]uint16
	got, n, err := x.narrow(b, sel, dst[:], filter, limit)
	if werr != nil {
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s as a filter of %d tuples, limit %d: eval fails with %v, narrow with %v", exprString(e), len(sel), limit, werr, err)
		}
		return
	}
	if err != nil || !slices.Equal(got, want) || n != examined {
		t.Fatalf("%s as a filter of %d tuples, limit %d: narrow keeps %v of %d examined (%v), eval %v of %d", exprString(e), len(sel), limit, got, n, err, want, examined)
	}
}

// checkWrite holds the compiled form of e, compiled as a write compiles
// its statement's expressions (columns named, resolved through the
// write's binder: both scans' columns are the one row's), to eval on the
// rows a write reads through one-element vectors: every tail row of the
// table, and an UPDATE's own copy of sealed rows pick spaces out, after
// an earlier assignment set a column pick draws to another row's value.
func checkWrite(t testing.TB, eng *Engine, tv *tableView, e Expr, pick func(n int) int) {
	t.Helper()
	w := eng.writer(tv.t, "c", compileParams)
	root := w.c.compile(unbind(e))
	if w.c.err != nil {
		t.Fatalf("%s: %v", exprString(e), w.c.err)
	}
	ec := &oracle{stores: make([]*rowStore, 2), pos: make([]int, 2), params: compileParams}
	// check compares on row r (col >= 0: set) of st, at pos.
	check := func(st *rowStore, pos, r, col int) {
		ec.stores[0], ec.stores[1], ec.pos[0], ec.pos[1] = st, st, pos, pos
		want, werr := eval(e, ec)
		got, gerr := root.get(&w.ec)
		ok, herr := root.holds(&w.ec)
		if werr != nil {
			if gerr == nil || gerr.Error() != werr.Error() || herr == nil || herr.Error() != werr.Error() {
				t.Fatalf("%s, row %d, column %d set: eval fails with %v; compiled %v, %v (holds %v)", exprString(e), r, col, werr, got, gerr, herr)
			}
			return
		}
		if gerr != nil || herr != nil || !sameValue(got, want) || ok != want.Truth() {
			t.Fatalf("%s, row %d, column %d set: eval %#v; compiled %#v, %v, holds %v, %v", exprString(e), r, col, want, got, gerr, ok, herr)
		}
	}
	sealed, n := len(tv.rows.chunks)*rowChunkLen, tv.rows.len()
	for r := sealed; r < n; r++ {
		w.load(&tv.rows, r)
		check(&tv.rows, r, r, -1)
	}
	for r := pick(64); r < sealed; r += 31 + pick(64) {
		nr, col := tv.rows.at(r), 1+pick(4)
		nr[col] = tv.rows.value(pick(n), col)
		w.loadRow(nr)
		check(rowOf(tv.rows.kinds, nr), 0, r, col)
	}
}

// unbind returns e with its columns named, as a write's statement holds
// them.
func unbind(e Expr) Expr {
	switch x := e.(type) {
	case *boundCol:
		return &ColRef{Column: x.name}
	case *UnOp:
		return &UnOp{Op: x.Op, E: unbind(x.E)}
	case *BinOp:
		return &BinOp{Op: x.Op, L: unbind(x.L), R: unbind(x.R)}
	case *Between:
		return &Between{E: unbind(x.E), Lo: unbind(x.Lo), Hi: unbind(x.Hi), Negate: x.Negate}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			list[i] = unbind(le)
		}
		return &InList{E: unbind(x.E), List: list, Negate: x.Negate}
	case *IsNull:
		return &IsNull{E: unbind(x.E), Negate: x.Negate}
	}
	return e
}

// TestCompiledAgainstEval holds compiled expressions to eval on seeded
// random trees, and on hand-picked ones whose operand order decides
// which error comes out or whether one does: as a plan compiles them,
// over blocks, and as a write does, over the rows it reads.
func TestCompiledAgainstEval(t *testing.T) {
	eng, tv := compileTable(t)
	i, f, s, z := &boundCol{col: 1, name: "i"}, &boundCol{col: 2, name: "f"}, &boundCol{col: 3, name: "s"}, &boundCol{col: 4, name: "z"}
	lit := func(v Value) Expr {
		return &Lit{Slot: slices.IndexFunc(compileParams, func(p Value) bool { return sameValue(p, v) })}
	}
	one, text := lit(Int(1)), lit(Text("abc"))
	for _, e := range []Expr{
		&BinOp{Op: "+", L: s, R: one},  // arithmetic on a text column: NULL first
		&BinOp{Op: "*", L: text, R: i}, // a text param
		&BinOp{Op: "AND", L: &BinOp{Op: "=", L: i, R: one}, R: &BinOp{Op: ">", L: &BinOp{Op: "-", L: s, R: one}, R: one}},
		&BinOp{Op: "OR", L: &BinOp{Op: "<>", L: f, R: f}, R: &UnOp{Op: "-", E: s}}, // NaN is equal to itself
		&BinOp{Op: "/", L: i, R: &BinOp{Op: "-", L: f, R: f}},                      // / by zero, by NaN
		&BinOp{Op: "+", L: i, R: i},                    // wraps
		&Between{E: text, Lo: s, Hi: lit(Text("_b_"))}, // two texts meet
		&InList{E: i, List: []Expr{f, &BinOp{Op: "+", L: s, R: one}, one}},
		&IsNull{E: &BinOp{Op: "LIKE", L: s, R: lit(Text("a%"))}, Negate: true},
		&BinOp{Op: "<", L: z, R: &Agg{Func: "MAX", slot: 3}},
	} {
		checkCompiled(t, tv, e, func(int) int { return 0 }, false)
		checkWrite(t, eng, tv, e, func(int) int { return 0 })
	}
	rng := rand.New(rand.NewSource(40))
	g := &exprGen{pick: rng.Intn}
	for k := 0; k < 400; k++ {
		e := g.expr(4)
		checkCompiled(t, tv, e, rng.Intn, false)
		checkWrite(t, eng, tv, e, rng.Intn)
	}
}

// FuzzCompiledExpr holds compiled expressions to eval on trees decoded
// from the input, a byte per choice (exprGen): the same Value, bit for
// bit, or the same error, row by row, in blocks and in a write's rows,
// and as a filter narrow takes. The bytes left after the tree choose a
// sample (checkCompiled): four blocks of at most 64 tuples — where they
// start, their sizes and selections — and 64 rows of a chunk, then the
// rows a write updates and the columns it sets. TestCompiledAgainstEval
// checks every block of the table.
func FuzzCompiledExpr(f *testing.F) {
	eng, tv := compileTable(f)
	// (s + 1) * -i, the i of scan 1.
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 5, 2, 0, 0, 0, 2, 1, 2, 0, 5, 0, 1})
	// f BETWEEN 'abc' AND NaN.
	f.Add([]byte{1, 6, 0, 5, 1, 0, 0, 0, 16, 0, 0, 11, 0})
	// NOT z IN (an aggregate holding 5, '%c') OR s LIKE '%c', the s of scan 1.
	f.Add([]byte{1, 4, 1, 1, 5, 1, 7, 0, 5, 3, 0, 0, 1, 0, 9, 0, 1, 0, 0, 18, 1, 8, 0, 5, 2, 1, 0, 0, 18})
	f.Fuzz(func(t *testing.T, choices []byte) {
		g := &exprGen{pick: func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			b := choices[0]
			choices = choices[1:]
			return int(b) % n
		}}
		e := g.expr(5)
		checkCompiled(t, tv, e, g.pick, true)
		checkWrite(t, eng, tv, e, g.pick)
	})
}

// TestSumOfIntsExact: a SUM of INTs is exact past 2^53, wraps as + does,
// and an AVG of INTs divides the exact sum, grouped or not.
func TestSumOfIntsExact(t *testing.T) {
	for _, c := range []struct {
		vals     []int64
		sum, avg string
	}{
		{[]int64{1<<53 + 1, 1}, "9007199254740994", "4.503599627370497e+15"},
		{[]int64{1<<53 + 1, 1, -(1<<53 + 1)}, "1", "0.3333333333333333"},
		{[]int64{math.MaxInt64, 1}, "-9223372036854775808", "-4.611686018427388e+18"},
	} {
		e := New()
		mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)`)
		for k, v := range c.vals {
			mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES (%d, 1, %d)`, k, v))
		}
		for _, sql := range []string{`SELECT SUM(v), AVG(v) FROM t`, `SELECT SUM(v), AVG(v) FROM t GROUP BY g`} {
			res := mustExec(t, e, sql)
			if got := fmt.Sprint(res.Rows); got != fmt.Sprintf("[[%s %s]]", c.sum, c.avg) {
				t.Errorf("%s over %v: %s, want [[%s %s]]", sql, c.vals, got, c.sum, c.avg)
			}
		}
	}
}

// TestCachedPlanAllocations pins what a run of a cached plan allocates:
// a grouped aggregate of arithmetic and a filtered pk probe, each at the
// count it had when eval walked its expressions; and, over a table of
// two sealed chunks and a tail, a GROUP BY of a TEXT column of few
// strings and a hash join grouped by an INT key, each at the count it had
// before runs gathered blocks. Evaluating compiled forms allocates
// nothing, block vectors are kept with the pooled run scratch, and the
// run's state stays on the stack.
func TestCachedPlanAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	e := New()
	mustExec(t, e, `CREATE TABLE a (id INT PRIMARY KEY, g TEXT, q INT, p FLOAT)`)
	for k := 0; k < 200; k++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO a VALUES (%d, 'g%d', %d, %d.25)`, k, k%4, k%9, k))
	}
	mustExec(t, e, `CREATE TABLE b (id INT PRIMARY KEY, g TEXT, k INT, p FLOAT)`)
	mustExec(t, e, `CREATE TABLE c (ck INT PRIMARY KEY, w FLOAT)`)
	rows := make([]Row, 2*rowChunkLen+100)
	for k := range rows {
		rows[k] = Row{Int(int64(k)), Text(fmt.Sprintf("g%d", k%5)), Int(int64(k % 700)), Float(float64(k) / 8)}
	}
	if err := e.BulkInsert("b", rows); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 600; k++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO c VALUES (%d, %d.5)`, k, k%13))
	}
	for _, c := range []struct {
		sql    string
		allocs float64
	}{
		{`SELECT g, SUM(p * (1 - q)), COUNT(*) FROM a WHERE q < 7 GROUP BY g`, 26},
		{`SELECT g, p FROM a WHERE id = 17 AND q + 1 > 0`, 4},
		{`SELECT g, COUNT(*), SUM(p), MIN(k) FROM b GROUP BY g`, 9},
		{`SELECT k, COUNT(*), SUM(w * p) FROM b JOIN c ON ck = k GROUP BY k`, 10},
	} {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := e.ExecStmt(st); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds and caches the plan
		if got := testing.AllocsPerRun(50, run); got != c.allocs {
			t.Errorf("%s: %.1f allocations per run, want %.0f", c.sql, got, c.allocs)
		}
	}
}

// TestFetchRunOrder: an index's run comes out in position order, through
// the bitmap or the sort, with the rows a scan of the table keeps and the
// Scanned it counts. The column spreads its values so that a narrow
// interval is a short run across the whole table (sorted) and a wide one
// a dense run (the bitmap).
func TestFetchRunOrder(t *testing.T) {
	const n = 5000
	e := New()
	for _, table := range []string{"r", "u"} {
		if err := e.CreateTable(table, []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "d", Type: KindInt, Indexed: table == "r"},
			{Name: "q", Type: KindFloat}}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	rows := make([]Row, n)
	for k := range rows {
		rows[k] = Row{Int(int64(k)), Int(int64(rng.Intn(100000))), Float(float64(rng.Intn(50)))}
	}
	for _, table := range []string{"r", "u"} {
		if err := e.BulkInsert(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	v := e.loadView()
	tv := v.tables["r"]
	for _, width := range []int{0, 20, 200, 2000, 20000} {
		sql := fmt.Sprintf(`SELECT id FROM %%s WHERE d >= 30000 AND d < %d AND q < 24`, 30000+width)
		st, err := Parse(fmt.Sprintf(sql, "r"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.planFor(st.Shape, v)
		if err != nil {
			t.Fatal(err)
		}
		s := &p.scans[0]
		o := tv.index(s.rangeCol).ordered(tv)
		x := &execRun{ctx: context.Background(), p: p, v: v, res: &Result{}, stores: []*rowStore{&tv.rows}}
		x.ec.params = st.Params
		from, to := o.run(tv, s.rangeCol, s.lo, s.hi, x.ec.params)
		got, err := s.fetchRun(x, 0, o.pos[from:to])
		if err != nil {
			t.Fatal(err)
		}
		ids := slices.Clone(got.ids)
		if x.sc != nil {
			x.sc.release()
		}
		want := mustExec(t, e, fmt.Sprintf(sql, "u"))
		if len(ids) != len(want.Rows) || x.res.Scanned != int64(to-from) {
			t.Fatalf("width %d: %d rows from %d scanned, a scan keeps %d of a run of %d", width, len(ids), x.res.Scanned, len(want.Rows), to-from)
		}
		for k, pos := range ids {
			if want.Rows[k][0].I != int64(pos) {
				t.Fatalf("width %d: row %d is at %d, a scan has %v", width, k, pos, want.Rows[k][0])
			}
		}
	}
}
