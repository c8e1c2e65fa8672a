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
// tuple as one cursor per bound table (cur[k] names the row of table k;
// a single-table statement has a tuple of one), the params of the
// statement being executed (a Lit reads params[Slot]), and, in
// aggregate mode, the current group's aggregate values by Agg.slot.
// What the cursors name is only read: it may belong to a published view.
// err is where a compiled expression records its failure (compile.go);
// eval returns its errors instead.
type evalCtx struct {
	cur    []cursor
	params []Value
	aggs   []Value
	err    error
}

// eval evaluates an expression; ColRefs must have been rewritten to
// boundCol by bind.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return ctx.params[x.Slot], nil
	case *boundCol:
		return ctx.cur[x.table].value(x.col), nil
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
}

// release puts everything back and the scratch itself with it.
func (sc *scratch) release() {
	sc.pos.giveAll()
	sc.accs.giveAll()
	sc.values.giveAll()
	sc.slots.giveAll()
	sc.words.giveAll()
	sc.hkeys.giveAll()
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
// at most minPooled, else drawn from the run's part of a pool.
func take[T any](x *execRun, part func(*scratch) *drawn[T], n int) []T {
	if n <= minPooled {
		return make([]T, 0, n)
	}
	return part(x.scratch()).take(n)
}

// grow returns s with room for more elements: grown as append would
// while it stays within minPooled, else copied into a drawn slab.
func grow[T any](x *execRun, part func(*scratch) *drawn[T], s []T, more int) []T {
	if len(s)+more <= minPooled {
		return slices.Grow(s, more)
	}
	return part(x.scratch()).grow(s, more)
}

// give hands s, which take or grow returned, back before the run
// returns: to the pool when the run drew it.
func give[T any](x *execRun, part func(*scratch) *drawn[T], s []T) {
	if cap(s) > minPooled {
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

// add accumulates the current tuple into group g. The operand of a SUM,
// AVG or COUNT is read as a number, unboxed (cexpr.num); any other as a
// Value.
func (gs *groups) add(x *execRun, g int) error {
	ec := &x.ec
	base := g * len(gs.aggs)
	for i, a := range gs.aggs {
		acc := &gs.acc[base+i]
		if a.arg == nil { // COUNT(*)
			acc.count++
			continue
		}
		if !a.distinct && a.fn <= aggAvg {
			v := a.arg.num(ec)
			if ec.err != nil {
				return ec.takeErr()
			}
			acc.add(v)
			continue
		}
		v, err := a.arg.get(ec)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		if a.distinct {
			gv := [2]Value{Int(int64(g)), v}
			if gs.seen[i].get(gv[:]) != 0 {
				continue
			}
			gs.seen[i].put(x, gv[:], 1)
		}
		switch a.fn {
		case aggMin:
			if ext := &gs.ext[base+i]; ext.IsNull() || Compare(v, *ext) < 0 {
				*ext = v
			}
		case aggMax:
			if ext := &gs.ext[base+i]; ext.IsNull() || Compare(v, *ext) > 0 {
				*ext = v
			}
		default:
			acc.add(num{v.I, v.F, v.K})
		}
	}
	return nil
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
				out[i] = Float(acc.sum)
			} else {
				out[i] = Int(acc.isum)
			}
		case aggAvg:
			if acc.count == 0 {
				out[i] = Null
			} else if acc.nonInt {
				out[i] = Float(acc.sum / float64(acc.count))
			} else {
				out[i] = Float(float64(acc.isum) / float64(acc.count))
			}
		case aggMin, aggMax:
			out[i] = gs.ext[base+i]
		}
	}
}

// groupRows partitions the tuples by the group key and accumulates the
// aggregates. Groups come back in first-seen order. The key is the
// plan's groupKey: what identifies a group, which may be less than the
// GROUP BY list (selectPlan.groupKey says what is left out and why).
// When groupInt is set the key is one or two bare INT columns, and a
// tuple with no NULL among them is keyed by their int64s (keyMap's
// getInts) without a Value; any other tuple, or any other key, is keyed
// by the Values of the compiled key (ckey) through get. A key of one such
// column whose values span a range dense enough for the tuples keys them
// densely (useDense).
func groupRows(x *execRun, in tuples) (*groups, error) {
	p := x.p
	key, intKey := p.ckey, p.groupInt
	gs := newGroups(x, p.caggs, in.n)
	index := newKeyMap(len(key), in.n, 0) // group key -> group id + 1
	var intCols []*boundCol
	if intKey {
		for _, ke := range p.groupKey {
			intCols = append(intCols, ke.(*boundCol))
		}
	}
	if len(intCols) == 1 {
		bc := intCols[0]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < in.n; i++ {
			if k, ok := x.stores[bc.table].int(in.pos(i, bc.table), bc.col); ok {
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		index.useDense(x, lo, hi, in.n)
	}
	kv := make([]Value, len(key))
	for i := 0; i < in.n; i++ {
		x.load(&in, i)
		var ints [2]int64
		byInts := intKey
		for c, bc := range intCols {
			var ok bool
			if ints[c], ok = x.ec.cur[bc.table].int(bc.col); !ok {
				byInts = false
				break
			}
		}
		var gi int32
		if byInts {
			gi = index.getInts(ints)
		} else {
			for c, ke := range key {
				kv[c] = ke.val(&x.ec)
			}
			if x.ec.err != nil {
				return nil, x.ec.takeErr()
			}
			gi = index.get(kv)
		}
		if gi == 0 {
			gi = gs.open(x, i)
			if byInts {
				index.putInts(x, ints, gi)
			} else {
				index.put(x, kv, gi)
			}
		}
		if err := gs.add(x, int(gi-1)); err != nil {
			return nil, err
		}
	}
	// A global aggregation over zero rows still yields one group.
	if len(key) == 0 && in.n == 0 {
		gs.open(x, -1)
	}
	return gs, nil
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
			var ob, nb [32]byte
			ok, nk := appendKey(ob[:0], old[k]), appendKey(nb[:0], nr[t.pkCol])
			t.pk = t.pk.del(string(ok)).set(string(nk), idx)
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
