package sqlmini

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// kernelTable is the differential tests' table: an INT and a FLOAT
// column drawn from the values the comparison rules single out — NULL,
// NaN, both zeros, infinities, the ends of int64, and 2^53+1 with its
// float neighbours, which float64(i) rounds together — plus an INT key
// and a group column. Two sealed chunks (the first with NULLs, the
// second without, so both forms of a vector are read) and a tail.
func kernelTable(t testing.TB) (*Engine, []Row) {
	t.Helper()
	ints := []Value{Null, Int(0), Int(-1), Int(1), Int(7), Int(1 << 53), Int(1<<53 + 1), Int(-(1<<53 + 1)), Int(math.MaxInt64), Int(math.MinInt64)}
	floats := []Value{Null, Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(7), Float(-7.25), Float(1 << 53), Float(1<<53 + 2),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxInt64)}
	rng := rand.New(rand.NewSource(23))
	rows := make([]Row, 2*rowChunkLen+100)
	for i := range rows {
		iv, fv, kv := ints[rng.Intn(len(ints))], floats[rng.Intn(len(floats))], Int(int64(rng.Intn(40)))
		if i >= rowChunkLen && i < 2*rowChunkLen { // the null-free chunk
			iv, fv = ints[1+rng.Intn(len(ints)-1)], floats[1+rng.Intn(len(floats)-1)]
		} else if rng.Intn(8) == 0 {
			kv = Null
		}
		rows[i] = Row{Int(int64(i)), iv, fv, kv, Text(fmt.Sprintf("g%d", i%3))}
	}
	e := New()
	if err := e.CreateTable("k", []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "i", Type: KindInt},
		{Name: "f", Type: KindFloat}, {Name: "jk", Type: KindInt}, {Name: "g", Type: KindText}}); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("k", rows); err != nil {
		t.Fatal(err)
	}
	return e, rows
}

// TestKernelsAgainstEval holds every reader of a conjunct's comparisons
// with literals (cmpLits) to eval, row by row: narrow's typed loops, the
// index's ordered run over the ends the comparisons set, and the
// classifier's predicates (AnalyzeStmt) read as an interval of the INT
// domain. The shapes: each comparison with the column on either side,
// BETWEEN and NOT BETWEEN, on an INT and a FLOAT column, against
// literals of every kind — integers next to the floats that round onto
// them, NaN, NULL, text — with narrow taking a chunk's own vectors and
// the tail gathered as a block, from every tuple of the block, from
// every other one and from a random selection, without a limit and with
// one; and shapes no reader may take for a comparison with a literal:
// two columns, two literals, arithmetic. Literals below and above every
// element give the empty and the full selection.
func TestKernelsAgainstEval(t *testing.T) {
	e, _ := kernelTable(t)
	tv := e.loadView().tables["k"]
	lits := []Value{Null, Text("7"), Int(0), Int(7), Int(1 << 53), Int(1<<53 + 1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(7), Float(1 << 53), Float(1<<53 + 2), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxInt64), Float(-1e300)}
	k0, k1, one := &Lit{Slot: 0}, &Lit{Slot: 1}, &Lit{Slot: 2}
	rng := rand.New(rand.NewSource(44))
	var conds []Expr
	for _, col := range []string{"i", "f"} {
		c := &ColRef{Column: col}
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			conds = append(conds, &BinOp{Op: op, L: c, R: k0}, &BinOp{Op: op, L: k0, R: c})
		}
		conds = append(conds, &Between{E: c, Lo: k0, Hi: k1})
	}
	i, f := &ColRef{Column: "i"}, &ColRef{Column: "f"}
	unread := []Expr{&Between{E: i, Lo: k0, Hi: k1, Negate: true}, &BinOp{Op: "=", L: i, R: f}, &BinOp{Op: "<", L: f, R: i},
		&BinOp{Op: "<", L: k0, R: k1}, &BinOp{Op: ">", L: &BinOp{Op: "+", L: i, R: one}, R: k0}, &BinOp{Op: "<=", L: k0, R: &BinOp{Op: "-", L: f, R: one}}}
	tb := &binder{}
	tb.addTable("k", tv.t.Cols)
	schema := Schema{"k": tv.t.Cols}
	ec := &oracle{stores: []*rowStore{&tv.rows}, pos: make([]int, 1), params: []Value{Null, Null, Int(1)}}
	sizes := map[int]bool{}
	sealed := len(tv.rows.chunks) * rowChunkLen
	tail := tuples{w: 1, n: len(tv.rows.tail), from: sealed}
	var dst [blockLen]uint16
	for ci, cond := range append(conds, unread...) {
		cj, err := classifyConjunct(cond, tb)
		if err != nil {
			t.Fatal(err)
		}
		be, err := bind(cond, tb)
		if err != nil {
			t.Fatal(err)
		}
		p := &selectPlan{scans: []scanNode{{t: tv.t}}}
		var reads []int
		filter := (&compiler{p: p, site: &reads}).conjuncts([]Expr{be})
		x := &execRun{ctx: context.Background(), p: p, res: &Result{}, stores: []*rowStore{&tv.rows}}
		x.ec.params = ec.params
		st := Statement{Shape: &Shape{AST: &SelectStmt{Table: "k", Items: []SelectItem{{Star: true}}, Where: cond}}, Params: ec.params}
		if ci >= len(conds) {
			info, err := AnalyzeStmt(st, schema)
			if err != nil || cj.ncmp != 0 || filter[0].loop == loopTyped || len(info.Predicates) != 0 {
				t.Fatalf("%s: read as a comparison with a literal: %d comparisons, typed loop %v, predicates %v, err %v",
					exprString(cond), cj.ncmp, filter[0].loop == loopTyped, info.Predicates, err)
			}
			continue
		}
		if filter[0].loop != loopTyped {
			t.Fatalf("%s: no typed loop", exprString(cond))
		}
		// The ends the comparisons set: a mask without GT sets the upper
		// end, one without LT the lower (= both, <> neither). The planner's
		// interval is those ends where it takes the conjunct for a range.
		col := cj.cmps[0].col
		var lo, hi bound
		for _, k := range cj.cmps[:cj.ncmp] {
			b := bound{lit: k.lit, incl: k.mask&PassEQ != 0}
			if k.mask&PassGT == 0 {
				hi = b
			}
			if k.mask&PassLT == 0 {
				lo = b
			}
		}
		eq := cj.ncmp == 1 && cj.cmps[0].mask == PassEQ
		if icol, ilo, ihi, ok := cj.interval(); ok != (!eq && (lo.lit != nil || hi.lit != nil)) || ok && (icol != col || ilo != lo || ihi != hi) {
			t.Fatalf("%s: interval %v [%v, %v], the masks' ends [%v, %v]", exprString(cond), ok, ilo, ihi, lo, hi)
		}
		o := (&secondaryIndex{col: col}).ordered(tv)
		_, between := cond.(*Between)
		for _, l := range lits {
			for _, h := range lits {
				ec.params[0], ec.params[1] = l, h
				for ci := 0; ci <= len(tv.rows.chunks); ci++ {
					b := block{src: &tail, m: tail.n}
					if ci < len(tv.rows.chunks) {
						b = block{m: rowChunkLen}
						x.chunkBlock(tv.rows.chunks[ci], reads)
					}
					var odd, some []uint16
					for i := 0; i < b.m; i++ {
						if i%2 == 1 {
							odd = append(odd, uint16(i))
						}
						if rng.Intn(3) == 0 {
							some = append(some, uint16(i))
						}
					}
					for si, start := range [][]uint16{everyRow[:b.m], odd, some} {
						var want []uint16
						for _, off := range start {
							ec.pos[0] = ci*rowChunkLen + int(off)
							v, err := eval(be, ec)
							if err != nil {
								t.Fatal(err)
							}
							if v.Truth() {
								want = append(want, off)
							}
						}
						limit, examined := -1, b.m
						if si == 2 && len(want) > 0 {
							limit = 1 + rng.Intn(len(want))
							want, examined = want[:limit], int(want[limit-1])+1
						}
						sel, n, err := x.narrow(b, start, dst[:], filter, limit)
						if err != nil || !slices.Equal(sel, want) || n != examined {
							t.Fatalf("%s with %v, %v on block %d from %d rows, limit %d: narrow keeps %d rows of %d examined (%v), eval %d of %d\nnarrow %v\neval   %v",
								exprString(cond), l, h, ci, len(start), limit, len(sel), n, err, len(want), examined, sel, want)
						}
						sizes[len(sel)] = true
					}
				}
				checkRunAndPredicates(t, cond, be, tv, o, col, lo, hi, ec, st, schema)
				if !between {
					break // one literal: h is not read
				}
			}
		}
	}
	if !sizes[0] || !sizes[rowChunkLen] {
		t.Fatalf("the literals never gave an empty and a full selection: sizes %v", sizes)
	}
}

// checkRunAndPredicates compares the rows of tv that cond (bound as be)
// keeps under ec's params with the index's run over [lo, hi] — the same
// rows, where the comparisons set an end — and, on the INT column, with
// the interval the classifier's predicates set: it holds every kept row,
// and no other where every predicate sets an end.
func checkRunAndPredicates(t *testing.T, cond, be Expr, tv *tableView, o *indexOrder, col int, lo, hi bound, ec *oracle, st Statement, schema Schema) {
	t.Helper()
	var kept []int32
	for pos := 0; pos < tv.rows.len(); pos++ {
		ec.pos[0] = pos
		if v, err := eval(be, ec); err != nil {
			t.Fatal(err)
		} else if v.Truth() {
			kept = append(kept, int32(pos))
		}
	}
	if lo.lit != nil || hi.lit != nil {
		from, to := o.run(tv, col, lo, hi, ec.params)
		run := slices.Clone(o.pos[from:to])
		slices.Sort(run)
		if !slices.Equal(run, kept) {
			t.Fatalf("%s with %v: the index's run holds %d rows, eval keeps %d", exprString(cond), ec.params[:2], len(run), len(kept))
		}
	}
	if tv.t.Cols[col].Type != KindInt {
		return
	}
	info, err := AnalyzeStmt(st, schema)
	if err != nil {
		t.Fatal(err)
	}
	exact := len(info.Predicates) > 0
	for _, p := range info.Predicates {
		exact = exact && p.Value.K == KindInt && p.Pass&(PassLT|PassGT) != PassLT|PassGT
	}
	inside := func(v int64) bool {
		for _, p := range info.Predicates {
			k, strict := p.Value.I, p.Pass&PassEQ == 0
			if p.Value.K == KindInt && (p.Pass&PassGT == 0 && (v > k || v == k && strict) || p.Pass&PassLT == 0 && (v < k || v == k && strict)) {
				return false
			}
		}
		return true
	}
	for pos := 0; pos < tv.rows.len(); pos++ {
		v := tv.rows.value(pos, col)
		if v.IsNull() {
			continue
		}
		if _, keeps := slices.BinarySearch(kept, int32(pos)); inside(v.I) != keeps && (keeps || exact) {
			t.Fatalf("%s with %v: row %d (%v) kept %v, but not inside the predicates' interval the same way (%v)", exprString(cond), ec.params[:2], pos, v, keeps, info.Predicates)
		}
	}
}

// generic returns a plan for the same statement with every
// specialisation taken out: its filters evaluate every conjunct tuple by
// tuple (no typed loop, no dictionary decision), its keys go through
// hkeys, its groups are keyed by the whole GROUP BY list, and an ORDER
// BY … LIMIT projects every row before it sorts. Each loop that gathers
// a block by a read set reads every column of the scans its tuples span,
// so a compiled form whose read set misses a column it reads answers
// otherwise in the plan under test than here.
func generic(t *testing.T, e *Engine, st Statement) *selectPlan {
	t.Helper()
	p, err := e.buildPlan(st.AST.(*SelectStmt), e.loadView())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.joins {
		p.joins[i].ints = false
	}
	p.groupKey, p.groupInt = p.groupBy, false
	p.selectFirst = false
	p.compileAll()
	unmark := func(conds []*cexpr) {
		for _, c := range conds {
			c.loop = loopTuple
		}
	}
	for i := range p.scans {
		unmark(p.scans[i].cfilter)
		unmark(p.scans[i].cinRange)
	}
	for i := range p.joins {
		unmark(p.joins[i].cextra)
		unmark(p.joins[i].cprobe)
	}
	every := func(from, to int) (refs []int) {
		for scan := from; scan < to; scan++ {
			for col := range p.scans[scan].t.Cols {
				r := slices.Index(p.reads, colPos{scan, col})
				if r < 0 {
					r, p.reads = len(p.reads), append(p.reads, colPos{scan, col})
				}
				refs = append(refs, r)
			}
		}
		return refs
	}
	for i := range p.scans {
		p.scans[i].reads = every(i, i+1)
	}
	p.groupReads, p.outReads, p.rankReads = every(0, len(p.scans)), every(0, len(p.scans)), every(0, len(p.scans))
	return p
}

// TestSpecialisedPlansAgainstGeneric runs statements that take each
// plan-time specialisation — typed filter loops, compiled expressions (every
// statement's filters, residuals, keys, aggregates, HAVING, outputs and
// ORDER BY), join keys of one or two integers, group keys of one or two
// integers, group keys without the columns a grouped pk determines,
// selecting an ORDER BY … LIMIT's rows before projecting them — and
// both run-time modes of a one-integer key (keyMap.useDense): dense, on
// jk, whose 40 values hold NULLs, and hashed, on i, which spans int64
// end to end; beside the same plan with all of them taken out
// (generic): same rows in the same order, bit for bit (a float sum
// depends on its order of addition), and the same Scanned, or the same
// error. The table holds NULL keys and operands, NaN, both zeros and
// integers past 2^53; d's pk-determined columns hold NULLs. An output
// that fails on a row outside the LIMIT keeps its plan off the
// select-first path, so its error still comes out; arithmetic on a text
// param fails alike, compiled or interpreted.
func TestSpecialisedPlansAgainstGeneric(t *testing.T) {
	e, _ := kernelTable(t)
	mustExec(t, e, `CREATE TABLE d (dk INT PRIMARY KEY, tag TEXT, w FLOAT)`)
	for i := 0; i < 60; i += 2 {
		tag, w := fmt.Sprintf("'d%d'", i%10), fmt.Sprintf("%d.5", i%8)
		if i%6 == 0 {
			tag = "NULL"
		}
		if i%8 == 4 {
			w = "NULL"
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO d VALUES (%d, %s, %s)`, i, tag, w))
	}
	used := map[string]bool{}
	used["dictionary dropped past its bound"] = textDictTable(t, e)
	for _, sql := range []string{
		`SELECT jk, SUM(i), AVG(i), COUNT(i), SUM(f), AVG(f), COUNT(f), COUNT(*), MIN(i), MAX(f), COUNT(DISTINCT i) FROM k GROUP BY jk`,
		`SELECT g, SUM(f), AVG(i), COUNT(*) FROM k WHERE i >= 0 AND f <= 7 GROUP BY g`,
		`SELECT SUM(f), SUM(i), COUNT(f) FROM k WHERE f BETWEEN -8 AND 9007199254740992`,
		`SELECT id, i, f FROM k WHERE i = 9007199254740993 AND f <> 0.5`,
		`SELECT id FROM k WHERE 7 < i AND g = 'g1' AND f > 0`,
		`SELECT id FROM k WHERE i > 0 AND i + 1 > 5 AND f < 100`,
		`SELECT id FROM k WHERE f > 1 LIMIT 7`,
		`SELECT id, tag FROM k JOIN d ON dk = jk WHERE f >= 0`,
		`SELECT tag, SUM(f), COUNT(i) FROM d JOIN k ON jk = dk GROUP BY tag`,
		`SELECT a.id, b.id FROM k a JOIN k b ON a.jk = b.i WHERE a.id < 40`,
		`SELECT jk, COUNT(*) FROM k GROUP BY jk HAVING COUNT(*) > 50 ORDER BY jk DESC`,
		`SELECT SUM(i) FROM k WHERE i < -9223372036854775807`,
		`SELECT dk, tag, w, SUM(f), COUNT(*), MIN(i) FROM k JOIN d ON dk = jk GROUP BY tag, dk, w`,
		`SELECT tag, w, COUNT(*) FROM d JOIN k ON jk = dk GROUP BY tag, w, id`,
		`SELECT a.id, b.i, COUNT(*), SUM(b.f) FROM k a JOIN k b ON a.i = b.jk WHERE a.id < 400 GROUP BY a.id, b.i`,
		`SELECT b.i, COUNT(*) FROM k a JOIN k b ON a.i = b.jk GROUP BY b.i, a.id, a.g ORDER BY b.i`,
		`SELECT a.id, b.id, b.f FROM k a JOIN k b ON a.jk = b.jk AND b.i = a.i WHERE a.id < 300`,
		`SELECT tag, COUNT(*) FROM d JOIN k ON jk = dk AND i = dk GROUP BY tag`,
		// One-integer keys, dense (jk) and hashed (i); groups determined
		// through join key pairs, one of them a cycle.
		`SELECT a.id, b.id, b.f FROM k a JOIN k b ON a.jk = b.jk WHERE a.id < 40`,
		`SELECT a.id, b.id, b.f FROM k a JOIN k b ON a.i = b.i WHERE a.id < 30`,
		`SELECT i, COUNT(*), SUM(f), MIN(g), COUNT(DISTINCT jk) FROM k GROUP BY i`,
		`SELECT jk, tag, w, COUNT(*), SUM(f) FROM k JOIN d ON dk = jk GROUP BY jk, tag, w`,
		`SELECT a.id, b.id, COUNT(*), SUM(a.f) FROM k a JOIN k b ON a.id = b.jk AND b.id = a.jk GROUP BY a.id, b.id`,
		// Select before project: ties, a key that is no output, HAVING,
		// LIMIT 0, a LIMIT past the groups, DISTINCT, fallible outputs.
		`SELECT jk, COUNT(*) AS c, SUM(f), MIN(g) FROM k GROUP BY jk ORDER BY c DESC LIMIT 5`,
		`SELECT g, jk, COUNT(*) AS c, AVG(i) FROM k GROUP BY g, jk ORDER BY c DESC, g LIMIT 7`,
		`SELECT id, g, f FROM k WHERE jk < 10 ORDER BY i DESC, f LIMIT 9`,
		`SELECT jk, SUM(f) AS s FROM k GROUP BY jk ORDER BY g DESC, jk LIMIT 4`,
		`SELECT jk, COUNT(*) AS c FROM k GROUP BY jk HAVING COUNT(*) > 50 ORDER BY c, jk DESC LIMIT 6`,
		`SELECT id, f FROM k ORDER BY f LIMIT 0`,
		`SELECT g, COUNT(*) AS c FROM k GROUP BY g ORDER BY c LIMIT 0`,
		`SELECT g, SUM(i) AS s, MAX(f) FROM k GROUP BY g ORDER BY s DESC LIMIT 100`,
		`SELECT DISTINCT jk, g FROM k ORDER BY jk DESC LIMIT 8`,
		`SELECT dk, tag + 1 FROM d ORDER BY dk LIMIT 1`,
		`SELECT dk, tag + 1, COUNT(*) FROM d JOIN k ON jk = dk GROUP BY dk, tag ORDER BY dk LIMIT 1`,
		`SELECT dk, tag + 1 AS t FROM d ORDER BY t DESC, dk LIMIT 2`,
		// Compiled forms: arithmetic aggregates over NULL, NaN and 2^53+1
		// operands, a residual with OR, TEXT group keys, HAVING and ORDER
		// BY over arithmetic, a text param in arithmetic (which fails).
		`SELECT jk, SUM(i * 2 + 1), AVG(f - i), SUM(i - 0), SUM(-f), COUNT(f / i), MIN(i / 2), MAX(f * f) FROM k GROUP BY jk`,
		`SELECT SUM(i + 1), AVG(i), SUM(f * (1 - i)), COUNT(DISTINCT i - 1) FROM k WHERE f <> 0`,
		`SELECT a.id, b.id FROM k a JOIN k b ON a.jk = b.jk AND (a.f < b.f OR a.i = b.i + 1) WHERE a.id < 60`,
		`SELECT tag, g, COUNT(*), SUM(f * 2), MIN(w - f) FROM d JOIN k ON jk = dk GROUP BY tag, g`,
		`SELECT jk, COUNT(*) AS c, SUM(f) FROM k GROUP BY jk HAVING SUM(i) / COUNT(*) > 0 OR MAX(f) - MIN(f) > 1 ORDER BY jk * 3 - 1 DESC`,
		`SELECT id, i, f FROM k WHERE jk < 5 AND NOT i IS NULL ORDER BY f * 2 - id, id LIMIT 10`,
		`SELECT id FROM k WHERE f > 0 AND i + 'x' > 0`,
		`SELECT jk, SUM(f * 'x') FROM k GROUP BY jk`,
		// Dictionaries (textDictTable): TEXT keys over chunks whose
		// dictionaries differ, or that have none, NULL text, filters a
		// dictionary decides beside ones it does not, empty blocks.
		`SELECT u, COUNT(*), SUM(f), MIN(v) FROM tx GROUP BY u`,
		`SELECT t, u, COUNT(*), SUM(v) FROM tx GROUP BY t, u`,
		`SELECT u, v, COUNT(*) FROM tx GROUP BY u, v`,
		`SELECT id, t FROM tx WHERE u = 'q'`,
		`SELECT id FROM tx WHERE u IN ('p', 'r', 'x7') AND v > 3`,
		`SELECT id, u FROM tx WHERE u LIKE 'r%' OR v = 2`,
		`SELECT id FROM tx WHERE t <> 'b' AND 'q' = u`,
		`SELECT id FROM tx WHERE u NOT IN ('q') AND u BETWEEN 'p' AND 'r'`,
		`SELECT id FROM tx WHERE t = 'b' AND u LIKE '%' LIMIT 5`,
		`SELECT DISTINCT u FROM tx`,
		`SELECT COUNT(DISTINCT u), COUNT(u) FROM tx`,
		`SELECT u, COUNT(*) FROM tx WHERE v < 0 GROUP BY u`,
		`SELECT COUNT(*), SUM(f), MAX(u) FROM tx WHERE u = 'nope'`,
		`SELECT a.u, COUNT(*), SUM(b.f) FROM tx a JOIN tx b ON b.id = a.v GROUP BY a.u`,
		`SELECT tag, u, COUNT(*) FROM d JOIN tx ON v = dk GROUP BY tag, u`,
		`SELECT id FROM tx WHERE u + 1 > 0 AND u = 'q'`,
		`SELECT id FROM tx WHERE id < 1024 AND u + 1 > 0 AND u = 'nope'`,
		// Rows read by position (index v), a conjunct at a time: a filter
		// that keeps few rows, one that fails on a later conjunct, a LIMIT,
		// a range.
		`SELECT id, u FROM tx WHERE v = 7 AND u = 'q' AND f > 2`,
		`SELECT id FROM tx WHERE v = 9 AND f > 20 AND u + 1 > 0`,
		`SELECT id, t FROM tx WHERE v = 11 AND u LIKE 'q%' LIMIT 3`,
		`SELECT id, v FROM tx WHERE v > 57 AND t = 'b' AND f < 10`,
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		v := e.loadView()
		spec, err := e.buildPlan(st.AST.(*SelectStmt), v)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for i := range spec.scans {
			perTuple := false
			for _, c := range spec.scans[i].cfilter {
				used["typed loop"] = used["typed loop"] || c.loop == loopTyped
				used["typed loop behind a fallible conjunct"] = used["typed loop behind a fallible conjunct"] || perTuple && c.loop == loopTyped
				perTuple = perTuple || c.loop == loopTuple
			}
		}
		for i := range spec.joins {
			used["integer join key"] = used["integer join key"] || spec.joins[i].ints
			used["two-integer join key"] = used["two-integer join key"] || (spec.joins[i].ints && len(spec.joins[i].leftKeys) == 2)
		}
		used["select before project"] = used["select before project"] || spec.selectFirst
		if strings.Contains(sql, "tag + 1") && !strings.Contains(sql, "ORDER BY t ") && spec.selectFirst {
			t.Errorf("%s: selects before it projects an output that can fail", sql)
		}
		used["integer group key"] = used["integer group key"] || spec.groupInt
		used["two-integer group key"] = used["two-integer group key"] || (spec.groupInt && len(spec.groupKey) == 2)
		used["pk-determined group column dropped"] = used["pk-determined group column dropped"] || len(spec.groupKey) < len(spec.groupBy)
		got, want := &Result{}, &Result{}
		err = spec.run(context.Background(), v, st.Params, got)
		for mode, what := range map[runMode]string{modeDense: "dense integer key", modeHashed: "hashed integer key", modeGather: "block gather",
			modeDictKey: "dictionary-coded key", modeDictFilter: "dictionary filter", modeRowKey: "group key by row position"} {
			used[what] = used[what] || got.modes&mode != 0
		}
		gerr := generic(t, e, st).run(context.Background(), v, st.Params, want)
		if fails := strings.Contains(sql, "tag + 1") || strings.Contains(sql, "'x'") || strings.Contains(sql, "u + 1"); fails != (gerr != nil) {
			t.Fatalf("%s: generic: %v", sql, gerr)
		}
		if gerr != nil {
			if err == nil || err.Error() != gerr.Error() {
				t.Fatalf("%s: %v, generic %v", sql, err, gerr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got.Scanned != want.Scanned || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows from %d scanned, generic %d from %d", sql, len(got.Rows), got.Scanned, len(want.Rows), want.Scanned)
		}
		for i := range got.Rows {
			for c, g := range got.Rows[i] {
				if w := want.Rows[i][c]; g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%s: row %d column %d is %v, generic %v", sql, i, c, g, w)
				}
			}
		}
	}
	for _, what := range []string{"typed loop", "typed loop behind a fallible conjunct", "integer join key", "two-integer join key",
		"integer group key", "two-integer group key", "pk-determined group column dropped", "select before project",
		"dense integer key", "hashed integer key", "block gather", "dictionary-coded key", "dictionary filter",
		"dictionary dropped past its bound", "group key by row position"} {
		if !used[what] {
			t.Errorf("no statement took the specialisation %q", what)
		}
	}
}

// textDictTable adds the table tx to e: four sealed chunks and a tail
// — more rows than codeKeys keys by position — whose TEXT columns t and
// u take few strings in some chunks — in a different order in each, so
// their dictionaries differ — NULL in some rows, and many in others,
// where a chunk has no dictionary; v is indexed, so a statement can read
// rows by position a block at a time. Then one UPDATE extends a
// dictionary and another pushes one past its bound. It reports whether
// that dictionary went.
func textDictTable(t *testing.T, e *Engine) bool {
	t.Helper()
	mustExec(t, e, `CREATE TABLE tx (id INT PRIMARY KEY, t TEXT, u TEXT, v INT, f FLOAT)`)
	rng := rand.New(rand.NewSource(41))
	rows := make([]Row, 4*rowChunkLen+300)
	pick := func(vals ...string) Value {
		if s := vals[rng.Intn(len(vals))]; s != "NULL" {
			return Text(s)
		}
		return Null
	}
	for i := range rows {
		var tv, uv Value
		switch i / rowChunkLen {
		case 0:
			tv, uv = pick("a", "b", "NULL"), pick("p", "q")
		case 1:
			tv, uv = Text(fmt.Sprintf("t%d", i)), pick("r", "q", "NULL", "")
		case 2:
			tv, uv = pick("c", "b"), Text(fmt.Sprintf("x%d", i%400))
		case 3:
			tv, uv = pick("b", "a"), pick("q", "NULL", "p", "x7")
		default:
			tv, uv = pick("b", "NULL"), pick("q", "p", "x7")
		}
		rows[i] = Row{Int(int64(i)), tv, uv, Int(int64(rng.Intn(60))), Float(float64(rng.Intn(100)) / 4)}
	}
	if err := e.BulkInsert("tx", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("tx", "v"); err != nil {
		t.Fatal(err)
	}
	u := func() *colVec { return &e.loadView().tables["tx"].rows.chunks[1].cols[2] }
	if u().codes == nil || e.loadView().tables["tx"].rows.chunks[2].cols[2].codes != nil {
		t.Fatal("the chunks' dictionaries are not as built")
	}
	mustExec(t, e, `UPDATE tx SET u = 'zz' WHERE id = 1030`)
	if v := u(); v.codes == nil || v.dict[v.codes[1030-rowChunkLen]] != "zz" {
		t.Fatal("an UPDATE within the bound dropped the dictionary")
	}
	mustExec(t, e, `UPDATE tx SET u = t WHERE id >= 1100 AND id < 1400`)
	return u().codes == nil && u().strs[1200-rowChunkLen] == "t1200"
}

// TestBlockFirstError: a loop that takes one form over a whole block
// before the next — the aggregates of groupRows, the conjuncts of a
// filter (narrow) — still reports the error the tuple-at-a-time order
// meets first. Row 1's second form fails (NOT of a text); row 2's first
// form fails (text in arithmetic) though row 1 passes it: the first
// error is row 1's. Over a table of two sealed chunks and a tail the
// same holds of a chunk, and of a chunk before the tail; a typed loop
// written after a conjunct that can fail does not drop the rows that
// raise its error; and a bare LIMIT stops before an error past its last
// row.
func TestBlockFirstError(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE be (id INT PRIMARY KEY, v INT, n INT, s TEXT, tx TEXT)`)
	if err := e.CreateIndex("be", "v"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO be VALUES (0, 1, 0, NULL, NULL), (1, 1, 1, NULL, 'x'), (2, 1, 0, 'y', NULL), (3, 2, 5, 'z', 'w')`)
	for _, sql := range []string{
		`SELECT v, SUM(n + s), SUM(-tx) FROM be GROUP BY v`,
		`SELECT SUM(n + s), COUNT(*), SUM(-tx) FROM be WHERE id < 3`,
		`SELECT id FROM be WHERE v = 1 AND (n > 0 OR n + s > 0) AND -tx < 0`,
		`SELECT id FROM be WHERE id >= 0 AND (n > 0 OR n + s > 0) AND -tx < 0`,
	} {
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), "negate") {
			t.Errorf("%s: %v, want row 1's: cannot negate", sql, err)
		}
	}
	// Rows 100 and 2058 fail the second form, row 200 the first.
	mustExec(t, e, `CREATE TABLE bc (id INT PRIMARY KEY, n INT, s TEXT, tx TEXT)`)
	rows := make([]Row, 2*rowChunkLen+50)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(0), Null, Null}
	}
	rows[100][1], rows[100][3] = Int(1), Text("x")
	rows[200][2] = Text("y")
	rows[2*rowChunkLen+10][2] = Text("y")
	if err := e.BulkInsert("bc", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		err  string // "": the rows
		rows int
	}{
		{`SELECT id FROM bc WHERE (n > 0 OR n + s > 0) AND -tx < 0`, "negate", 0},
		{`SELECT id FROM bc WHERE id >= 0 AND (n > 0 OR n + s > 0) AND -tx < 0 AND id <> 5`, "negate", 0},
		{`SELECT id FROM bc WHERE n + s > 0 AND id < 0`, "arithmetic", 0},
		{`SELECT id FROM bc WHERE id > 150 AND n + s IS NULL`, "arithmetic", 0},
		{`SELECT id FROM bc WHERE id > 150 AND n + s IS NULL LIMIT 10`, "", 10},
		{`SELECT id FROM bc WHERE id >= 2048 AND n + s IS NULL`, "arithmetic", 0},
		{`SELECT id FROM bc WHERE id >= 2048 AND n + s IS NULL LIMIT 3`, "", 3},
		{`SELECT id FROM bc WHERE n + s IS NULL LIMIT 200`, "", 200},
	} {
		res, err := e.Exec(c.sql)
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) || c.err == "" && (err != nil || len(res.Rows) != c.rows) {
			t.Errorf("%s: %v, want error %q or %d rows", c.sql, err, c.err, c.rows)
		}
	}
}

// TestGroupAllocationsFlat pins that grouping allocates per growth of
// its state arrays, not per group: 10,000 groups keyed by an INT column, by a
// pk with the text column it determines, and by that text column alone
// stay under one allocation per 50 groups.
func TestGroupAllocationsFlat(t *testing.T) {
	const groups = 10000
	e := New()
	mustExec(t, e, `CREATE TABLE gk (id INT PRIMARY KEY, k INT, name TEXT, v INT)`)
	rows := make([]Row, 2*groups)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % groups)), Text(fmt.Sprintf("n%d", i%groups)), Int(int64(i % 7))}
	}
	if err := e.BulkInsert("gk", rows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT k, SUM(v), MIN(v), COUNT(*) FROM gk GROUP BY k`,
		`SELECT id, name, SUM(v), MIN(v), COUNT(*) FROM gk WHERE id < 10000 GROUP BY name, id`,
		`SELECT name, SUM(v), MIN(v), COUNT(*) FROM gk GROUP BY name`,
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := e.ExecStmt(st)
			if err != nil || len(res.Rows) != groups {
				t.Fatalf("%s: %d groups, err = %v", sql, len(res.Rows), err)
			}
		}
		run() // builds and caches the plan
		if got := testing.AllocsPerRun(5, run); got > groups/50 {
			t.Errorf("%s: %.0f allocations for %d groups, want <= %d", sql, got, groups, groups/50)
		}
	}
}

// TestConjunctOrderKeepsErrors: a filter's compiled list puts typed
// loops first, then dictionary decisions, then the rest, each in the
// order written, but moves no conjunct past one that can fail, so the
// error a row raises there still comes out when a later comparison would
// have dropped the row.
func TestConjunctOrderKeepsErrors(t *testing.T) {
	e, _ := kernelTable(t)
	if _, err := e.Exec(`SELECT id FROM k WHERE g + 1 > 0 AND i > 9223372036854775806`); err == nil {
		t.Fatal("arithmetic on a text column raised no error")
	}
	const sql = `SELECT id FROM k WHERE g = 'g1' AND jk IS NULL AND i > 3 AND f BETWEEN 0 AND 2 AND g + 1 > 0 AND g LIKE 'g%' AND i < 9 AND id > 0`
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.buildPlan(st.AST.(*SelectStmt), e.loadView())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range p.scans[0].cfilter {
		got = append(got, fmt.Sprint(c.loop, " ", c.op))
	}
	// typed i > 3, f BETWEEN, dictionary g = 'g1', jk IS NULL, g + 1 > 0;
	// typed i < 9, id > 0, dictionary g LIKE.
	want := []string{
		fmt.Sprint(loopTyped, " ", opCmp), fmt.Sprint(loopTyped, " ", opBetween), fmt.Sprint(loopDict, " ", opCmp),
		fmt.Sprint(loopTuple, " ", opIsNull), fmt.Sprint(loopTuple, " ", opCmp),
		fmt.Sprint(loopTyped, " ", opCmp), fmt.Sprint(loopTyped, " ", opCmp), fmt.Sprint(loopDict, " ", opLike),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: compiled in the order %v, want %v", sql, got, want)
	}
	if d := p.describe(); !strings.Contains(d, "[(g = ?) AND jk IS NULL AND (i > ?) AND f BETWEEN ? AND ? AND ((g + ?) > ?) AND (g LIKE ?) AND (i < ?) AND (id > ?)]") {
		t.Fatalf("describe does not print the filter as written:\n%s", d)
	}
}
