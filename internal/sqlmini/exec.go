package sqlmini

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// binder resolves column references against the tables of a statement,
// in the order they were added: a reference binds to (ordinal of its
// table, column within that table). For a SELECT plan the ordinal is the
// table's scan — its place in the join order; classifyConjunct uses a
// second binder in textual order, and the analyzer binds against a
// Schema's columns by the same rule.
type binder struct {
	tables []boundTable
}

type boundTable struct {
	alias string // table alias (or name)
	cols  []Column
}

func (b *binder) addTable(alias string, cols []Column) {
	b.tables = append(b.tables, boundTable{alias: alias, cols: cols})
}

// resolve returns the table ordinal and column index of a column
// reference.
func (b *binder) resolve(r *ColRef) (table, col int, err error) {
	table = -1
	for i, bt := range b.tables {
		if r.Table != "" && bt.alias != r.Table {
			continue
		}
		ci := slices.IndexFunc(bt.cols, func(c Column) bool { return c.Name == r.Column })
		if ci < 0 {
			continue
		}
		if table >= 0 {
			return 0, 0, fmt.Errorf("sqlmini: ambiguous column %q", r.Column)
		}
		table, col = i, ci
	}
	if table < 0 {
		name := r.Column
		if r.Table != "" {
			name = r.Table + "." + r.Column
		}
		return 0, 0, fmt.Errorf("sqlmini: unknown column %q", name)
	}
	return table, col, nil
}

// evalCtx carries what an expression is evaluated against: the current
// tuple, the params of the statement being executed (a Lit reads
// params[Slot]), and, in aggregate mode, the current group's aggregate
// values by Agg.slot. A SELECT's run holds its tuples in a block
// (block.go): vecs[r] is the block's vector of the plan's read r
// (reads[r]), and the current tuple is the one at index at. A write and
// the tests name the tuple as one cursor per bound table instead (cur[k]
// names the row of table k; a single-table statement has a tuple of
// one). What either names is only read: it may belong to a published
// view. err is where a compiled expression records its failure
// (compile.go); eval returns its errors instead.
type evalCtx struct {
	cur    []cursor
	reads  []colPos
	vecs   []*colVec
	at     int
	params []Value
	aggs   []Value
	err    error
}

// column returns column col of the current tuple's row of table.
func (ec *evalCtx) column(table, col int) Value {
	if ec.vecs == nil {
		return ec.cur[table].value(col)
	}
	r := slices.Index(ec.reads, colPos{table, col})
	return ec.vecs[r].get(ec.at)
}

// eval evaluates an expression; ColRefs must have been rewritten to
// boundCol by bind.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return ctx.params[x.Slot], nil
	case *boundCol:
		return ctx.column(x.table, x.col), nil
	case *ColRef:
		return Null, fmt.Errorf("sqlmini: unbound column %q", x.Column)
	case *Agg:
		if ctx.aggs == nil {
			return Null, fmt.Errorf("sqlmini: aggregate %s outside aggregation", x.Func)
		}
		return ctx.aggs[x.slot], nil
	case *UnOp:
		v, err := eval(x.E, ctx)
		if err != nil {
			return Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null, nil
			}
			return Bool(!v.Truth()), nil
		case "-":
			switch v.K {
			case KindInt:
				return Int(-v.I), nil
			case KindFloat:
				return Float(-v.F), nil
			case KindNull:
				return Null, nil
			}
			return Null, fmt.Errorf("sqlmini: cannot negate %s", v.K)
		}
		return Null, fmt.Errorf("sqlmini: unknown unary op %q", x.Op)
	case *BinOp:
		return evalBin(x, ctx)
	case *Between:
		v, err := eval(x.E, ctx)
		if err != nil {
			return Null, err
		}
		lo, err := eval(x.Lo, ctx)
		if err != nil {
			return Null, err
		}
		hi, err := eval(x.Hi, ctx)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Negate {
			in = !in
		}
		return Bool(in), nil
	case *InList:
		v, err := eval(x.E, ctx)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		found := false
		for _, le := range x.List {
			lv, err := eval(le, ctx)
			if err != nil {
				return Null, err
			}
			if !lv.IsNull() && Compare(v, lv) == 0 {
				found = true
				break
			}
		}
		if x.Negate {
			found = !found
		}
		return Bool(found), nil
	case *IsNull:
		v, err := eval(x.E, ctx)
		if err != nil {
			return Null, err
		}
		isNull := v.IsNull()
		if x.Negate {
			isNull = !isNull
		}
		return Bool(isNull), nil
	}
	return Null, fmt.Errorf("sqlmini: unknown expression %T", e)
}

func evalBin(x *BinOp, ctx *evalCtx) (Value, error) {
	l, err := eval(x.L, ctx)
	if err != nil {
		return Null, err
	}
	// Short-circuit logic ops (SQL three-valued logic, simplified:
	// NULL treated as false for AND/OR outcomes where it matters).
	switch x.Op {
	case "AND":
		if !l.IsNull() && !l.Truth() {
			return Bool(false), nil
		}
		r, err := eval(x.R, ctx)
		if err != nil {
			return Null, err
		}
		return Bool(l.Truth() && r.Truth()), nil
	case "OR":
		if !l.IsNull() && l.Truth() {
			return Bool(true), nil
		}
		r, err := eval(x.R, ctx)
		if err != nil {
			return Null, err
		}
		return Bool(l.Truth() || r.Truth()), nil
	}
	r, err := eval(x.R, ctx)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := Compare(l, r)
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.K != KindText || r.K != KindText {
			return Null, nil
		}
		return Bool(likeMatch(l.S, r.S)), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null, fmt.Errorf("sqlmini: arithmetic on non-numeric values")
		}
		bothInt := l.K == KindInt && r.K == KindInt
		switch x.Op {
		case "+":
			if bothInt {
				return Int(l.I + r.I), nil
			}
			return Float(lf + rf), nil
		case "-":
			if bothInt {
				return Int(l.I - r.I), nil
			}
			return Float(lf - rf), nil
		case "*":
			if bothInt {
				return Int(l.I * r.I), nil
			}
			return Float(lf * rf), nil
		default:
			if rf == 0 {
				return Null, nil
			}
			return Float(lf / rf), nil
		}
	}
	return Null, fmt.Errorf("sqlmini: unknown operator %q", x.Op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char).
func likeMatch(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeMatch(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeMatch(s[1:], p[1:])
	}
}

// boundCol replaces ColRef after binding: column col of the binder's
// table-th table.
type boundCol struct {
	table, col int
	name       string
}

func (*boundCol) isExpr() {}

// rebinder is one bind pass: the binder and the first error it met.
type rebinder struct {
	b   *binder
	err error
}

// bind rewrites an expression tree, resolving every ColRef through the
// binder. It returns a new tree; the input is not modified (a Lit is
// immutable and shared).
func bind(e Expr, b *binder) (Expr, error) {
	r := rebinder{b: b}
	out := r.expr(e)
	return out, r.err
}

func (r *rebinder) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Lit, *boundCol:
		return x
	case *ColRef:
		table, col, err := r.b.resolve(x)
		if err != nil && r.err == nil {
			r.err = err
		}
		return &boundCol{table: table, col: col, name: x.Column}
	case *UnOp:
		return &UnOp{Op: x.Op, E: r.expr(x.E)}
	case *BinOp:
		return &BinOp{Op: x.Op, L: r.expr(x.L), R: r.expr(x.R)}
	case *Between:
		return &Between{E: r.expr(x.E), Lo: r.expr(x.Lo), Hi: r.expr(x.Hi), Negate: x.Negate}
	case *InList:
		list := make([]Expr, len(x.List))
		ee := r.expr(x.E)
		for i, le := range x.List {
			list[i] = r.expr(le)
		}
		return &InList{E: ee, List: list, Negate: x.Negate}
	case *IsNull:
		return &IsNull{E: r.expr(x.E), Negate: x.Negate}
	case *Agg:
		return &Agg{Func: x.Func, E: r.expr(x.E), Distinct: x.Distinct}
	}
	if r.err == nil {
		r.err = fmt.Errorf("sqlmini: cannot bind %T", e)
	}
	return e
}

// walkExpr calls f on e and then, when f returns true, on the
// expressions directly under it, in textual order. It writes nothing.
func walkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *UnOp:
		walkExpr(x.E, f)
	case *BinOp:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *Between:
		walkExpr(x.E, f)
		walkExpr(x.Lo, f)
		walkExpr(x.Hi, f)
	case *InList:
		walkExpr(x.E, f)
		for _, le := range x.List {
			walkExpr(le, f)
		}
	case *IsNull:
		walkExpr(x.E, f)
	case *Agg:
		walkExpr(x.E, f)
	}
}

// collectAggs gathers the aggregate nodes of an expression tree, in
// textual order (an aggregate's own operand is not searched).
func collectAggs(e Expr, out *[]*Agg) {
	walkExpr(e, func(x Expr) bool {
		a, ok := x.(*Agg)
		if ok {
			*out = append(*out, a)
		}
		return !ok
	})
}

// cancelCheckRows is how many rows a scan processes between context
// cancellation checks — frequent enough to bound overrun, rare enough
// that ctx.Err() (an atomic load for most contexts) stays off the
// per-row profile.
const cancelCheckRows = 4096

// execSelect runs a SELECT against one immutable read view. It takes
// no engine lock: the view's rows, pk map and index buckets are frozen
// at publish time, so the scan races with nothing. Planning (binding,
// access-path and join-order choice, predicate pushdown) happens in
// plan.go and is cached per normalized statement shape.
func (e *Engine) execSelect(ctx context.Context, st Statement, v *readView) (*Result, error) {
	p, err := e.planFor(st.Shape, v)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if err := p.run(ctx, v, st.Params, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Run scratch. Every buffer a run writes dies when the run returns,
// except the rows of its Result. A buffer that outgrows minPooled
// elements is drawn from the package's pools instead of made, and goes
// back when the run returns (selectPlan.run): position slabs, hash
// chains, group state, ORDER BY key slabs and keyMaps' tables. A run
// that stays below it — a pk probe, a TPC-App read — makes its buffers
// as it always did and never touches a pool.
const (
	minPooledShift = 8
	minPooled      = 1 << minPooledShift // elements
	pooledClasses  = 24                  // slab capacities minPooled<<0 .. minPooled<<23
)

// classOf is the size class that holds n elements.
func classOf(n int) int {
	return max(bits.Len(uint(n-1))-minPooledShift, 0)
}

// slabPool holds one element type's slabs by size class: class c, slabs
// of capacity minPooled<<c, each behind a *[]T holder, so that putting
// a slab back stores a pointer and allocates nothing.
type slabPool[T any] struct {
	classes [pooledClasses]sync.Pool
	scrub   bool // the elements hold pointers: cleared on the way back, so the pool keeps nothing alive
}

var (
	posSlabs   slabPool[int32]
	accSlabs   slabPool[aggAcc]
	valueSlabs = slabPool[Value]{scrub: true}
	slotSlabs  slabPool[slot]
	wordSlabs  slabPool[int64]
	hkeySlabs  = slabPool[hkey]{scrub: true}
	scratches  = sync.Pool{New: func() any {
		return &scratch{pos: drawn[int32]{pool: &posSlabs}, accs: drawn[aggAcc]{pool: &accSlabs}, values: drawn[Value]{pool: &valueSlabs},
			slots: drawn[slot]{pool: &slotSlabs}, words: drawn[int64]{pool: &wordSlabs}, hkeys: drawn[hkey]{pool: &hkeySlabs}}
	}}
)

// scratch is what one run has drawn from the pools. It is itself pooled
// and taken by a run's first draw (execRun.scratch), so a run that draws
// nothing never touches it.
type scratch struct {
	pos    drawn[int32]  // scan and join positions, hash chains, group samples, finish's inputs, dense keyMaps
	accs   drawn[aggAcc] // group accumulators
	values drawn[Value]  // MIN/MAX extrema, ORDER BY keys
	slots  drawn[slot]   // keyMaps' slots
	words  drawn[int64]  // keyMaps' keys of integers
	hkeys  drawn[hkey]   // keyMaps' other keys
	blk    blockBufs     // block vectors, kept across runs
}

// release puts everything back and the scratch itself with it.
func (sc *scratch) release() {
	sc.pos.giveAll()
	sc.accs.giveAll()
	sc.values.giveAll()
	sc.slots.giveAll()
	sc.words.giveAll()
	sc.hkeys.giveAll()
	sc.blk.scrub()
	scratches.Put(sc)
}

// drawn is a run's account with one slabPool: the slabs it holds, and
// the holders of the slabs it took, which carry slabs back.
type drawn[T any] struct {
	pool    *slabPool[T]
	slabs   [][]T
	holders []*[]T
}

// take returns an empty slab with room for n elements.
func (d *drawn[T]) take(n int) []T {
	c := classOf(n)
	if c >= pooledClasses {
		return make([]T, 0, n)
	}
	var s []T
	if h, _ := d.pool.classes[c].Get().(*[]T); h != nil {
		s, *h = *h, nil
		d.holders = append(d.holders, h)
	} else {
		s = make([]T, 0, minPooled<<c)
	}
	d.slabs = append(d.slabs, s)
	return s
}

// grow returns a copy of s in a slab with room for more elements besides,
// of at least twice s's capacity, and gives s back if the run drew it.
func (d *drawn[T]) grow(s []T, more int) []T {
	ns := append(d.take(max(len(s)+more, 2*cap(s))), s...)
	d.drop(s)
	return ns
}

// drop gives s back if the run drew it.
func (d *drawn[T]) drop(s []T) {
	if cap(s) == 0 {
		return
	}
	for i, held := range d.slabs {
		if &held[:1][0] == &s[:1][0] {
			d.give(i)
			return
		}
	}
}

// give puts the i-th slab back in its class.
func (d *drawn[T]) give(i int) {
	s := d.slabs[i]
	last := len(d.slabs) - 1
	d.slabs[i], d.slabs[last] = d.slabs[last], nil
	d.slabs = d.slabs[:last]
	if d.pool.scrub {
		clear(s[:cap(s)])
	}
	var h *[]T
	if n := len(d.holders); n > 0 {
		h, d.holders = d.holders[n-1], d.holders[:n-1]
	} else {
		h = new([]T)
	}
	*h = s[:0]
	d.pool.classes[classOf(cap(s))].Put(h)
}

func (d *drawn[T]) giveAll() {
	for len(d.slabs) > 0 {
		d.give(len(d.slabs) - 1)
	}
}

// take returns an empty buffer with room for n elements: made when n is
// at most minPooled, else drawn from the run's part of a pool. A nil
// run draws nothing: what it takes, grows and gives is made and left to
// the collector, so it may outlive any run (an index's directory).
func take[T any](x *execRun, part func(*scratch) *drawn[T], n int) []T {
	if n <= minPooled || x == nil {
		return make([]T, 0, n)
	}
	return part(x.scratch()).take(n)
}

// grow returns s with room for more elements: grown as append would
// while it stays within minPooled, else copied into a drawn slab.
func grow[T any](x *execRun, part func(*scratch) *drawn[T], s []T, more int) []T {
	if len(s)+more <= minPooled || x == nil {
		return slices.Grow(s, more)
	}
	return part(x.scratch()).grow(s, more)
}

// give hands s, which take or grow returned, back before the run
// returns: to the pool when the run drew it.
func give[T any](x *execRun, part func(*scratch) *drawn[T], s []T) {
	if cap(s) > minPooled && x != nil {
		part(x.scratch()).drop(s)
	}
}

// The parts of a scratch, by element type, for take, grow and give.
func positions(sc *scratch) *drawn[int32] { return &sc.pos }
func accs(sc *scratch) *drawn[aggAcc]     { return &sc.accs }
func values(sc *scratch) *drawn[Value]    { return &sc.values }
func tableSlots(sc *scratch) *drawn[slot] { return &sc.slots }
func keyWords(sc *scratch) *drawn[int64]  { return &sc.words }
func keyHkeys(sc *scratch) *drawn[hkey]   { return &sc.hkeys }

// groups is the aggregate state of one run's groups, in arrays indexed
// by group id that grow as groups open (grow), so a run allocates per
// growth of the arrays, not per group, and a large run not at all.
type groups struct {
	aggs   []cagg
	sample []int32  // group g's first input tuple; -1 for the empty global group
	acc    []aggAcc // aggregate i of group g at g*len(aggs)+i
	ext    []Value  // likewise, a MIN's or MAX's extremum so far; nil when no aggregate is either
	seen   []keyMap // per DISTINCT aggregate: the (group id, value) pairs it has counted
}

// aggFn is an aggregate's function.
type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggFns = map[string]aggFn{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// runMode is a set of run-time choices a run made (Result.modes).
type runMode uint8

const (
	modeDense      runMode = 1 << iota // a table of one-integer keys keyed densely (keyMap.useDense)
	modeHashed                         // one keyed by hashing
	modeGather                         // a block gathered from rows (execRun.gather)
	modeDictKey                        // group keys looked up by a chunk's dictionary codes (codeKeys)
	modeDictFilter                     // a scan conjunct decided per dictionary entry (dictPass)
	modeRowKey                         // group keys looked up by their row's position (codeKeys)
)

// cagg is an aggregate of a plan as groups.add runs it: its function and
// its operand compiled (nil for COUNT(*)).
type cagg struct {
	fn       aggFn
	arg      *cexpr
	distinct bool
}

// aggAcc is what a SUM, AVG or COUNT keeps of one group; its zero value
// is the empty group's. A SUM of INTs is isum, exact and wrapping as +
// does; once a counted value is not an INT the SUM is the float sum of
// them all.
type aggAcc struct {
	count  int64
	isum   int64
	sum    float64
	nonInt bool // a counted value was not an INT: SUM is a FLOAT
}

// newGroups readies the state of groups over n input tuples.
func newGroups(x *execRun, aggs []cagg, n int) *groups {
	gs := &groups{aggs: aggs, seen: make([]keyMap, len(aggs))}
	for i, a := range aggs {
		if a.fn == aggMin || a.fn == aggMax {
			gs.ext = []Value{}
		}
		if a.distinct {
			gs.seen[i] = newKeyMap(2, n, 0)
		}
	}
	if n > minPooled {
		// Many tuples may open many groups: start in drawn slabs rather
		// than pass through the small ones append would make on the way.
		sc := x.scratch()
		gs.sample, gs.acc = sc.pos.take(minPooled), sc.accs.take(minPooled)
		if gs.ext != nil {
			gs.ext = sc.values.take(minPooled)
		}
	}
	return gs
}

// open starts a group at tuple sample and returns its id + 1.
func (gs *groups) open(x *execRun, sample int) int32 {
	if len(gs.sample) == cap(gs.sample) {
		gs.sample = grow(x, positions, gs.sample, 1)
	}
	gs.sample = append(gs.sample, int32(sample))
	n := len(gs.aggs)
	if len(gs.acc)+n > cap(gs.acc) {
		gs.acc = grow(x, accs, gs.acc, n)
	}
	if gs.ext != nil && len(gs.ext)+n > cap(gs.ext) {
		gs.ext = grow(x, values, gs.ext, n)
	}
	for range gs.aggs {
		gs.acc = append(gs.acc, aggAcc{})
		if gs.ext != nil {
			gs.ext = append(gs.ext, Null)
		}
	}
	return int32(len(gs.sample))
}

// addBlock accumulates the block's tuples into their groups, tuple k
// into group gid[k], one aggregate at a time over the whole block; each
// group still takes its tuples in their order. A SUM, AVG or COUNT of a
// bare INT or FLOAT column adds from the column's vector; any other
// aggregate evaluates its operand per tuple (add).
func (gs *groups) addBlock(x *execRun, gid []int32) error {
	n := len(gs.aggs)
	for i, a := range gs.aggs {
		switch {
		case a.arg == nil: // COUNT(*)
			for _, g := range gid {
				gs.acc[int(g)*n+i].count++
			}
		case !a.distinct && a.fn <= aggAvg && a.arg.op == opInt:
			v := x.ec.vecs[a.arg.ref]
			for k, g := range gid {
				if v.nulls == nil || !v.nulls.has(k) {
					acc := &gs.acc[int(g)*n+i]
					acc.isum += v.ints[k]
					acc.sum += float64(v.ints[k])
					acc.count++
				}
			}
		case !a.distinct && a.fn <= aggAvg && a.arg.op == opFloat:
			v := x.ec.vecs[a.arg.ref]
			for k, g := range gid {
				if v.nulls == nil || !v.nulls.has(k) {
					acc := &gs.acc[int(g)*n+i]
					acc.sum += v.floats[k]
					acc.nonInt = true
					acc.count++
				}
			}
		default:
			for k, g := range gid {
				x.ec.at = k
				if err := gs.add(x, i, int(g)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// add accumulates the current tuple into group g's aggregate i. The
// operand of a SUM, AVG or COUNT is read as a number, unboxed
// (cexpr.num); any other as a Value.
func (gs *groups) add(x *execRun, i, g int) error {
	ec, a := &x.ec, gs.aggs[i]
	at := g*len(gs.aggs) + i
	acc := &gs.acc[at]
	if a.arg == nil { // COUNT(*)
		acc.count++
		return nil
	}
	if !a.distinct && a.fn <= aggAvg {
		v := a.arg.num(ec)
		if ec.err != nil {
			return ec.takeErr()
		}
		acc.add(v)
		return nil
	}
	v, err := a.arg.get(ec)
	if err != nil || v.IsNull() {
		return err
	}
	if a.distinct {
		gv := [2]Value{Int(int64(g)), v}
		if gs.seen[i].get(gv[:]) != 0 {
			return nil
		}
		gs.seen[i].put(x, gv[:], 1)
	}
	switch a.fn {
	case aggMin:
		if ext := &gs.ext[at]; ext.IsNull() || Compare(v, *ext) < 0 {
			*ext = v
		}
	case aggMax:
		if ext := &gs.ext[at]; ext.IsNull() || Compare(v, *ext) > 0 {
			*ext = v
		}
	default:
		acc.add(num{v.I, v.F, v.K})
	}
	return nil
}

// firstErr evaluates the block's tuples one after another — the group
// key, then each aggregate's operand, as groupRows and add would — and
// returns the first error met: the one a block that failed somewhere
// (with failed) reports. Evaluating writes nothing but the error.
func (gs *groups) firstErr(x *execRun, m int, failed error) error {
	ec := &x.ec
	ec.err = nil
	for k := 0; k < m; k++ {
		ec.at = k
		for _, ke := range x.p.ckey {
			ke.val(ec)
		}
		if ec.err != nil {
			return ec.takeErr()
		}
		for _, a := range gs.aggs {
			switch {
			case a.arg == nil:
			case !a.distinct && a.fn <= aggAvg:
				a.arg.num(ec)
			default:
				a.arg.val(ec)
			}
			if ec.err != nil {
				return ec.takeErr()
			}
		}
	}
	return failed
}

// add counts v, unless it is NULL, into a SUM, AVG or COUNT. A TEXT counts
// and adds nothing, but makes the SUM a FLOAT.
func (acc *aggAcc) add(v num) {
	switch v.k {
	case KindNull:
		return
	case KindInt:
		acc.isum += v.i
		acc.sum += float64(v.i)
	case KindFloat:
		acc.sum += v.f
		acc.nonInt = true
	default:
		acc.nonInt = true
	}
	acc.count++
}

// quietNaN returns f, or math.NaN() for every NaN. Which operand's NaN
// a sum carries on depends on the order the compiler puts a float
// addition's operands in, which two loops of the same additions need
// not share; a SUM that is NaN is therefore always the one NaN.
func quietNaN(f float64) float64 {
	if f != f {
		return math.NaN()
	}
	return f
}

// values writes group g's value of aggs[i] to out[i], the layout eval
// reads through Agg.slot.
func (gs *groups) values(g int, out []Value) {
	base := g * len(gs.aggs)
	for i, a := range gs.aggs {
		acc := &gs.acc[base+i]
		switch a.fn {
		case aggCount:
			out[i] = Int(acc.count)
		case aggSum:
			if acc.count == 0 {
				out[i] = Null
			} else if acc.nonInt {
				out[i] = Float(quietNaN(acc.sum))
			} else {
				out[i] = Int(acc.isum)
			}
		case aggAvg:
			if acc.count == 0 {
				out[i] = Null
			} else if acc.nonInt {
				out[i] = Float(quietNaN(acc.sum) / float64(acc.count))
			} else {
				out[i] = Float(float64(acc.isum) / float64(acc.count))
			}
		case aggMin, aggMax:
			out[i] = gs.ext[base+i]
		}
	}
}

// groupRows partitions the tuples by the group key and accumulates the
// aggregates, a block at a time (block.go): it gathers the columns the
// key and the aggregates' operands read, keys every tuple of the block,
// then adds the block into its groups (addBlock). Groups come back in
// first-seen order. The key is the plan's groupKey: what identifies a
// group, which may be less than the GROUP BY list (selectPlan.groupKey
// says what is left out and why). When groupInt is set the key is one or
// two bare INT columns, and a tuple with no NULL among them is keyed by
// their int64s (keyMap's getInts) without a Value; a key of one such
// column whose values span a range dense enough for the tuples keys them
// densely (useDense). A key of bare TEXT columns of one scan is looked up
// once per combination of dictionary codes in a chunk (codeKeys). Any
// other tuple, or any other key, is keyed by the Values of the compiled
// key (ckey) through get.
func groupRows(x *execRun, in tuples) (*groups, error) {
	p := x.p
	key, intKey := p.ckey, p.groupInt
	gs := newGroups(x, p.caggs, in.n)
	index := newKeyMap(len(key), in.n, 0) // group key -> group id + 1
	if intKey && len(key) == 1 {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		refs := []int{key[0].ref}
		for b := 0; b < in.n; b += blockLen {
			m := min(blockLen, in.n-b)
			x.gather(&in, 0, b, m, nil, refs)
			v := x.ec.vecs[key[0].ref]
			for k := 0; k < m; k++ {
				if v.nulls == nil || !v.nulls.has(k) {
					lo, hi = min(lo, v.ints[k]), max(hi, v.ints[k])
				}
			}
		}
		x.res.modes |= index.useDense(x, lo, hi, in.n)
	}
	var codes codeKeys
	ck := codes.init(x, key, in.n)
	var gid [blockLen]int32
	kv := make([]Value, len(key))
	for b := 0; b < in.n; b += blockLen {
		m := min(blockLen, in.n-b)
		x.gather(&in, 0, b, m, nil, p.groupReads)
		for k := 0; k < m; k++ {
			x.ec.at = k
			var gi int32
			var code int
			if ck != nil {
				gi, code = ck.lookup(x, &in, b+k)
				if gi != 0 {
					gid[k] = gi - 1
					continue
				}
			}
			var ints [2]int64
			byInts := intKey
			for c, ke := range key {
				if !byInts {
					break
				}
				v := x.ec.vecs[ke.ref]
				if byInts = v.nulls == nil || !v.nulls.has(k); byInts {
					ints[c] = v.ints[k]
				}
			}
			if byInts {
				gi = index.getInts(ints)
			} else {
				for c, ke := range key {
					kv[c] = ke.val(&x.ec)
				}
				if x.ec.err != nil {
					return nil, gs.firstErr(x, m, x.ec.takeErr())
				}
				gi = index.get(kv)
			}
			if gi == 0 {
				gi = gs.open(x, b+k)
				if byInts {
					index.putInts(x, ints, gi)
				} else {
					index.put(x, kv, gi)
				}
			}
			if code >= 0 && ck != nil {
				ck.slots[code] = gi
			}
			gid[k] = gi - 1
		}
		if err := gs.addBlock(x, gid[:m]); err != nil {
			return nil, gs.firstErr(x, m, err)
		}
	}
	// A global aggregation over zero rows still yields one group.
	if len(key) == 0 && in.n == 0 {
		gs.open(x, -1)
	}
	return gs, nil
}

// codeKeys keys the tuples of a group key of bare columns of one scan
// by a code of the row they read, whose slot holds the group id found
// for it. On a table of at most maxCodeSlots rows the code is the row's
// position: a row's values are one key. Else, for a key of TEXT columns,
// the codes of the dictionaries of the chunk the row is in, one per
// column and NULL its own, make the slot number; a tuple whose chunk
// differs from the one before starts the slots afresh for that chunk,
// and one whose row is in the tail, or in a chunk where a column has no
// dictionary or the columns' codes make more than maxCodeSlots
// combinations, is keyed by its Values.
type codeKeys struct {
	scan  int
	byRow bool // the table is small enough to key by position
	ncols int
	cols  [4]int
	chunk *rowChunk // the chunk the slots are for
	ok    bool      // its dictionaries key the tuples
	mul   [4]int    // slot = Σ (code+1 or 0 for NULL) * mul[c]
	slots []int32
}

// maxCodeSlots bounds the code combinations a chunk's slots cover.
const maxCodeSlots = 4096

// init readies ck for the key key of the n tuples of in and returns it,
// or nil when the key is not of up to four bare columns of one scan,
// TEXT ones unless the rows are keyed by position: when the table holds
// at most maxCodeSlots rows, and not many more than the tuples, whose
// slots init clears.
func (ck *codeKeys) init(x *execRun, key []*cexpr, n int) *codeKeys {
	if len(key) == 0 || len(key) > len(ck.cols) {
		return nil
	}
	ck.scan, ck.ncols = key[0].scan, len(key)
	rows := x.stores[ck.scan].len()
	ck.byRow = rows <= maxCodeSlots && rows <= 4*n
	for i, ke := range key {
		if ke.op < opInt || ke.op > opCol || ke.scan != ck.scan || ke.op != opText && !ck.byRow {
			return nil
		}
		ck.cols[i] = ke.col
	}
	bb := x.blockOf()
	if bb.codes == nil {
		bb.codes = make([]int32, maxCodeSlots)
	}
	ck.slots = bb.codes
	if ck.byRow {
		clear(ck.slots[:x.stores[ck.scan].len()])
		x.res.modes |= modeRowKey
	}
	return ck
}

// lookup returns the group id + 1 its slot holds for tuple t of in
// (0: none yet), and the slot, which the caller fills once it has the
// group; -1 when the tuple is keyed by its Values.
func (ck *codeKeys) lookup(x *execRun, in *tuples, t int) (int32, int) {
	st := x.stores[ck.scan]
	pos := in.pos(t, ck.scan)
	if ck.byRow {
		return ck.slots[pos], pos
	}
	if pos >= len(st.chunks)*rowChunkLen {
		return 0, -1
	}
	c := st.chunks[pos/rowChunkLen]
	if c != ck.chunk {
		ck.chunk, ck.ok = c, true
		size := 1
		for i, col := range ck.cols[:ck.ncols] {
			v := &c.cols[col]
			ck.mul[i] = size
			if size *= len(v.dict) + 1; v.codes == nil || size > maxCodeSlots {
				ck.ok = false
				break
			}
		}
		if ck.ok {
			clear(ck.slots[:size])
			x.res.modes |= modeDictKey
		}
	}
	if !ck.ok {
		return 0, -1
	}
	off, slot := pos%rowChunkLen, 0
	for i, col := range ck.cols[:ck.ncols] {
		if v := &c.cols[col]; v.nulls == nil || !v.nulls.has(off) {
			slot += (int(v.codes[off]) + 1) * ck.mul[i]
		}
	}
	return ck.slots[slot], slot
}

// execInsert runs an INSERT. Caller holds the write lock.
func (e *Engine) execInsert(st *InsertStmt, params []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, unknownTableError(st.Table)
	}
	colIdx := make([]int, 0, len(st.Columns))
	if len(st.Columns) == 0 {
		for i := range t.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range st.Columns {
			i := t.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("sqlmini: unknown column %q in table %q", c, st.Table)
			}
			colIdx = append(colIdx, i)
		}
	}
	ctx := &evalCtx{params: params}
	// Evaluate every VALUES row, then store them in one batch. A row
	// that fails to evaluate ends the statement after the rows before
	// it went in, exactly as if each row were appended as it was built.
	rows := make([]Row, 0, len(st.Rows))
	var evalErr error
	for _, exprs := range st.Rows {
		row, err := evalInsertRow(exprs, colIdx, len(t.Cols), ctx)
		if err != nil {
			evalErr = err
			break
		}
		rows = append(rows, row)
	}
	n, err := t.insertRows(rows)
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return &Result{Affected: n}, nil
}

// evalInsertRow builds one stored row from a VALUES tuple: the listed
// columns from their expressions, every other column NULL.
func evalInsertRow(exprs []Expr, colIdx []int, width int, ctx *evalCtx) (Row, error) {
	if len(exprs) != len(colIdx) {
		return nil, fmt.Errorf("sqlmini: INSERT expects %d values, got %d", len(colIdx), len(exprs))
	}
	row := make(Row, width)
	for i := range row {
		row[i] = Null
	}
	for i, ex := range exprs {
		be, err := bind(ex, &binder{}) // no tables: VALUES sees no columns
		if err != nil {
			return nil, err
		}
		v, err := eval(be, ctx)
		if err != nil {
			return nil, err
		}
		row[colIdx[i]] = v
	}
	return row, nil
}

// execUpdate runs an UPDATE. Caller holds the write lock.
func (e *Engine) execUpdate(st *UpdateStmt, params []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, unknownTableError(st.Table)
	}
	b := &binder{}
	b.addTable(st.Table, t.Cols)
	where, err := bind(st.Where, b) // nil binds to nil
	if err != nil {
		return nil, err
	}
	type setOp struct {
		col  int
		expr Expr
	}
	sets := make([]setOp, len(st.Set))
	for i, s := range st.Set {
		ci := t.ColumnIndex(s.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqlmini: unknown column %q in table %q", s.Column, st.Table)
		}
		be, err := bind(s.Expr, b)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{ci, be}
	}

	// The columns the statement assigns, ascending, each once.
	var setCols []int
	for _, so := range sets {
		if at, dup := slices.BinarySearch(setCols, so.col); !dup {
			setCols = slices.Insert(setCols, at, so.col)
		}
	}

	res := &Result{}
	ctx := &evalCtx{cur: make([]cursor, 1), params: params} // the statement's one table

	// A matched row is rewritten as a private copy (the stored one may
	// back a published view), which later SET expressions see, and
	// collected; the row store takes the copies in one replace at the end,
	// copying each touched chunk's vectors of the assigned columns once.
	// The pk index is persistent, so a pk-changing row updates it right
	// away and the uniqueness check of the next row sees it.
	var idxs []int
	var news []Row
	old := make([]Value, len(setCols)) // the stored values of setCols
	apply := func(idx int) error {
		nr := t.rows.at(idx)
		for k, col := range setCols {
			old[k] = nr[col]
		}
		ctx.cur[0] = cursor{row: nr}
		for _, so := range sets {
			v, err := eval(so.expr, ctx)
			if err != nil {
				return err
			}
			if nr[so.col], err = coerce(v, t.Cols[so.col].Type); err != nil {
				return err
			}
		}
		if k, set := slices.BinarySearch(setCols, t.pkCol); set && keyOf(nr[t.pkCol]) != keyOf(old[k]) {
			if _, dup := t.pk.find(nr[t.pkCol]); dup {
				return fmt.Errorf("sqlmini: duplicate primary key %s", nr[t.pkCol])
			}
			t.pk = t.pk.del(keyOf(old[k])).set(keyOf(nr[t.pkCol]), idx)
		}
		for k, col := range setCols {
			if nr[col] != old[k] {
				t.changed[col] = true
			}
		}
		idxs = append(idxs, idx)
		news = append(news, nr)
		return nil
	}
	// A failing row ends the statement; the rows before it stay updated.
	// Fast path: a WHERE that is one conjunct, pk = literal.
	cs, n := cmpLits(st.Where)
	pkEq := false
	if n == 1 && cs[0].mask == PassEQ {
		_, col, _ := b.resolve(cs[0].ref) // bind resolved it
		pkEq = col == t.pkCol
	}
	if pkEq {
		res.Scanned++
		if idx, hit := t.pk.find(params[cs[0].lit.Slot]); hit {
			err = apply(idx)
		}
	} else {
		for idx, n := 0, t.rows.len(); idx < n && err == nil; idx++ {
			res.Scanned++
			if where != nil {
				t.rows.seek(&ctx.cur[0], idx)
				var v Value
				if v, err = eval(where, ctx); err != nil || !v.Truth() {
					continue
				}
			}
			err = apply(idx)
		}
	}
	if len(idxs) > 0 {
		t.rows = t.rows.replace(idxs, news, setCols)
		t.touched = true
	}
	if err != nil {
		return nil, err
	}
	res.Affected = len(idxs)
	return res, nil
}

// execDelete runs a DELETE. Caller holds the write lock.
func (e *Engine) execDelete(st *DeleteStmt, params []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, unknownTableError(st.Table)
	}
	b := &binder{}
	b.addTable(st.Table, t.Cols)
	where, err := bind(st.Where, b) // nil binds to nil
	if err != nil {
		return nil, err
	}
	res := &Result{}
	ctx := &evalCtx{cur: make([]cursor, 1), params: params} // the statement's one table
	n := t.rows.len()
	dead := make([]bool, n)
	for idx := 0; idx < n; idx++ {
		res.Scanned++
		dead[idx] = true
		if where != nil {
			t.rows.seek(&ctx.cur[0], idx)
			v, err := eval(where, ctx)
			if err != nil {
				return nil, err
			}
			dead[idx] = v.Truth()
		}
		if dead[idx] {
			res.Affected++
		}
	}
	// Compaction moves every row behind a deleted one, so a DELETE that
	// hit anything refills the table from the rows it kept; one that hit
	// nothing changes nothing.
	if res.Affected > 0 {
		kept := make([]Row, 0, n-res.Affected)
		for idx := 0; idx < n; idx++ {
			if !dead[idx] {
				kept = append(kept, t.rows.at(idx))
			}
		}
		t.rebuild(kept)
	}
	return res, nil
}
