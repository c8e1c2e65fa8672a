package sqlmini

import (
	"context"
	"fmt"
	"slices"
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
type evalCtx struct {
	cur    []cursor
	params []Value
	aggs   []Value
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

// pkLookup detects "pk = literal" (optionally table-qualified) in a
// WHERE clause that consists of exactly that condition, and returns the
// literal.
func pkLookup(where Expr, t *Table, alias string) (*Lit, bool) {
	bo, ok := where.(*BinOp)
	if !ok || bo.Op != "=" {
		return nil, false
	}
	cr, lit := bo.L, bo.R
	c, ok := cr.(*ColRef)
	if !ok {
		if c, ok = lit.(*ColRef); !ok {
			return nil, false
		}
		lit = cr
	}
	l, ok := lit.(*Lit)
	if !ok {
		return nil, false
	}
	if c.Table != "" && c.Table != alias {
		return nil, false
	}
	if t.pkCol < 0 || t.Cols[t.pkCol].Name != c.Column {
		return nil, false
	}
	return l, true
}

// groups is the aggregate state of one run's groups, in arrays indexed
// by group id that grow by append as groups open, so a run allocates per
// growth of the arrays, not per group.
type groups struct {
	aggs   []*Agg
	sample []int32   // group g's first input tuple; -1 for the empty global group
	acc    []aggAcc  // aggregate i of group g at g*len(aggs)+i
	ext    []Value   // likewise, a MIN's or MAX's extremum so far; nil when no aggregate is either
	seen   []*keyMap // per DISTINCT aggregate: the (group id, value) pairs it has counted
}

// aggAcc is what a SUM, AVG or COUNT keeps of one group; its zero value
// is the empty group's.
type aggAcc struct {
	count  int64
	sum    float64
	nonInt bool // a counted value was not an INT: SUM is a FLOAT
}

func newGroups(aggs []*Agg) *groups {
	gs := &groups{aggs: aggs, seen: make([]*keyMap, len(aggs))}
	for i, a := range aggs {
		if a.Func == "MIN" || a.Func == "MAX" {
			gs.ext = []Value{}
		}
		if a.Distinct {
			gs.seen[i] = newKeyMap(2, 0)
		}
	}
	return gs
}

// open starts a group at tuple sample and returns its id + 1.
func (gs *groups) open(sample int) int32 {
	gs.sample = append(gs.sample, int32(sample))
	for range gs.aggs {
		gs.acc = append(gs.acc, aggAcc{})
		if gs.ext != nil {
			gs.ext = append(gs.ext, Null)
		}
	}
	return int32(len(gs.sample))
}

// add accumulates the current tuple into group g.
func (gs *groups) add(g int, ctx *evalCtx) error {
	base := g * len(gs.aggs)
	for i, a := range gs.aggs {
		acc := &gs.acc[base+i]
		if a.E == nil { // COUNT(*)
			acc.count++
			continue
		}
		if a.bare != nil {
			// The column's own number, straight from its vector: what the
			// steps below make of the Value eval would box it in.
			if f, isInt, ok := ctx.cur[a.bare.table].num(a.bare.col); ok {
				acc.count++
				acc.sum += f
				acc.nonInt = acc.nonInt || !isInt
			}
			continue
		}
		v, err := eval(a.E, ctx)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		if a.Distinct {
			gv := [2]Value{Int(int64(g)), v}
			if gs.seen[i].get(gv[:]) != 0 {
				continue
			}
			gs.seen[i].put(gv[:], 1)
		}
		switch a.Func {
		case "MIN":
			if ext := &gs.ext[base+i]; ext.IsNull() || Compare(v, *ext) < 0 {
				*ext = v
			}
		case "MAX":
			if ext := &gs.ext[base+i]; ext.IsNull() || Compare(v, *ext) > 0 {
				*ext = v
			}
		default:
			acc.count++
			if f, ok := v.AsFloat(); ok {
				acc.sum += f
			}
			acc.nonInt = acc.nonInt || v.K != KindInt
		}
	}
	return nil
}

// values writes group g's value of aggs[i] to out[i], the layout eval
// reads through Agg.slot.
func (gs *groups) values(g int, out []Value) {
	base := g * len(gs.aggs)
	for i, a := range gs.aggs {
		acc := &gs.acc[base+i]
		switch a.Func {
		case "COUNT":
			out[i] = Int(acc.count)
		case "SUM":
			if acc.count == 0 {
				out[i] = Null
			} else if acc.nonInt {
				out[i] = Float(acc.sum)
			} else {
				out[i] = Int(int64(acc.sum))
			}
		case "AVG":
			if acc.count == 0 {
				out[i] = Null
			} else {
				out[i] = Float(acc.sum / float64(acc.count))
			}
		case "MIN", "MAX":
			out[i] = gs.ext[base+i]
		}
	}
}

// groupRows partitions the tuples by the group key and accumulates the
// aggregates. Groups come back in first-seen order. The key is the
// plan's groupKey: what identifies a group, which may be less than the
// GROUP BY list (selectPlan.groupKey says what is left out and why).
// When intKey is set the key is one or two bare INT columns, and a
// tuple with no NULL among them is hashed as their int64s (keyMap's
// getInts) without going through eval; any other tuple, or any other
// key, goes through eval and the keyMap's hkeys.
func groupRows(x *execRun, in tuples, key []Expr, intKey bool, aggs []*Agg) (*groups, error) {
	gs := newGroups(aggs)
	index := newKeyMap(len(key), 0) // group key -> group id + 1
	var intCols []*boundCol
	if intKey {
		index.withInts(0)
		for _, ke := range key {
			intCols = append(intCols, ke.(*boundCol))
		}
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
				v, err := eval(ke, &x.ec)
				if err != nil {
					return nil, err
				}
				kv[c] = v
			}
			gi = index.get(kv)
		}
		if gi == 0 {
			gi = gs.open(i)
			if byInts {
				index.putInts(ints, gi)
			} else {
				index.put(kv, gi)
			}
		}
		if err := gs.add(int(gi-1), &x.ec); err != nil {
			return nil, err
		}
	}
	// A global aggregation over zero rows still yields one group.
	if len(key) == 0 && in.n == 0 {
		gs.open(-1)
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
	if l, ok := pkLookup(st.Where, t, st.Table); ok {
		// Fast path: WHERE pk = literal.
		res.Scanned++
		if idx, hit := t.pk.find(params[l.Slot]); hit {
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
