package sqlmini

import (
	"context"
	"fmt"
	"strings"
)

// binder resolves column references against the joined row layout of a
// query: a flat slice of slots, one per (table alias, column).
type binder struct {
	slots []slot
}

type slot struct {
	alias string // table alias (or name)
	table *Table
	col   int
	base  int // index of the slot in the joined row
}

func (b *binder) addTable(alias string, t *Table) {
	base := len(b.slots)
	for i := range t.Cols {
		b.slots = append(b.slots, slot{alias: alias, table: t, col: i, base: base + i})
	}
}

// resolve returns the joined-row index of a column reference.
func (b *binder) resolve(r *ColRef) (int, error) {
	found := -1
	for _, s := range b.slots {
		if s.table.Cols[s.col].Name != r.Column {
			continue
		}
		if r.Table != "" && s.alias != r.Table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlmini: ambiguous column %q", r.Column)
		}
		found = s.base
	}
	if found < 0 {
		name := r.Column
		if r.Table != "" {
			name = r.Table + "." + r.Column
		}
		return 0, fmt.Errorf("sqlmini: unknown column %q", name)
	}
	return found, nil
}

// evalCtx carries the current joined row, the statement's extracted
// literal parameters (plan.go normalization), and, in aggregate mode,
// the accumulated aggregate values keyed by expression identity.
type evalCtx struct {
	row    Row
	params []Value
	aggs   map[*Agg]Value
}

// eval evaluates an expression; ColRefs must have been rewritten to
// boundCol by bind.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *boundCol:
		return ctx.row[x.idx], nil
	case *boundParam:
		return ctx.params[x.idx], nil
	case *ColRef:
		return Null, fmt.Errorf("sqlmini: unbound column %q", x.Column)
	case *Agg:
		if ctx.aggs == nil {
			return Null, fmt.Errorf("sqlmini: aggregate %s outside aggregation", x.Func)
		}
		v, ok := ctx.aggs[x]
		if !ok {
			return Null, fmt.Errorf("sqlmini: aggregate %s not computed", x.Func)
		}
		return v, nil
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
func likeMatch(s, pattern string) bool {
	// Dynamic programming over pattern and string positions.
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRec(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeRec(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeRec(s[1:], p[1:])
	}
}

// boundCol replaces ColRef after binding.
type boundCol struct {
	idx  int
	name string
}

func (*boundCol) isExpr() {}

// bind rewrites an expression tree, resolving every ColRef through the
// binder. It returns a new tree; the input is not modified.
func bind(e Expr, b *binder) (Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Lit:
		return x, nil
	case *boundCol:
		return x, nil
	case *boundParam:
		return x, nil
	case *ColRef:
		idx, err := b.resolve(x)
		if err != nil {
			return nil, err
		}
		return &boundCol{idx: idx, name: x.Column}, nil
	case *UnOp:
		inner, err := bind(x.E, b)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: x.Op, E: inner}, nil
	case *BinOp:
		l, err := bind(x.L, b)
		if err != nil {
			return nil, err
		}
		r, err := bind(x.R, b)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, L: l, R: r}, nil
	case *Between:
		ee, err := bind(x.E, b)
		if err != nil {
			return nil, err
		}
		lo, err := bind(x.Lo, b)
		if err != nil {
			return nil, err
		}
		hi, err := bind(x.Hi, b)
		if err != nil {
			return nil, err
		}
		return &Between{E: ee, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case *InList:
		ee, err := bind(x.E, b)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			bl, err := bind(le, b)
			if err != nil {
				return nil, err
			}
			list[i] = bl
		}
		return &InList{E: ee, List: list, Negate: x.Negate}, nil
	case *IsNull:
		ee, err := bind(x.E, b)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: ee, Negate: x.Negate}, nil
	case *Agg:
		if x.E == nil {
			return x, nil
		}
		ee, err := bind(x.E, b)
		if err != nil {
			return nil, err
		}
		return &Agg{Func: x.Func, E: ee, Distinct: x.Distinct}, nil
	}
	return nil, fmt.Errorf("sqlmini: cannot bind %T", e)
}

// collectAggs gathers the aggregate nodes of a bound expression tree.
func collectAggs(e Expr, out *[]*Agg) {
	switch x := e.(type) {
	case *Agg:
		*out = append(*out, x)
	case *UnOp:
		collectAggs(x.E, out)
	case *BinOp:
		collectAggs(x.L, out)
		collectAggs(x.R, out)
	case *Between:
		collectAggs(x.E, out)
		collectAggs(x.Lo, out)
		collectAggs(x.Hi, out)
	case *InList:
		collectAggs(x.E, out)
		for _, le := range x.List {
			collectAggs(le, out)
		}
	case *IsNull:
		collectAggs(x.E, out)
	}
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
func (e *Engine) execSelect(ctx context.Context, st *SelectStmt, v *readView) (*Result, error) {
	p, params, err := e.planFor(st, v)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if err := p.run(ctx, v, params, res); err != nil {
		return nil, err
	}
	return res, nil
}

// pkLookup detects "pk = literal" (optionally table-qualified) in a
// WHERE clause that consists of exactly that condition.
func pkLookup(where Expr, t *Table, alias string) (Value, bool) {
	bo, ok := where.(*BinOp)
	if !ok || bo.Op != "=" {
		return Null, false
	}
	cr, lit := bo.L, bo.R
	c, ok := cr.(*ColRef)
	if !ok {
		c, ok = lit.(*ColRef)
		if !ok {
			return Null, false
		}
		cr, lit = lit, cr
		_ = cr
	}
	l, ok := lit.(*Lit)
	if !ok {
		return Null, false
	}
	if c.Table != "" && c.Table != alias {
		return Null, false
	}
	if t.pkCol < 0 || t.Cols[t.pkCol].Name != c.Column {
		return Null, false
	}
	return l.V, true
}

// group accumulates aggregate state for one group.
type group struct {
	sample Row
	aggs   []*Agg
	count  []int64
	sum    []float64
	min    []Value
	max    []Value
	sawInt []bool
	seen   []map[string]bool // per aggregate, for DISTINCT
}

func newGroup(sample Row, aggs []*Agg) *group {
	g := &group{
		sample: sample,
		aggs:   aggs,
		count:  make([]int64, len(aggs)),
		sum:    make([]float64, len(aggs)),
		min:    make([]Value, len(aggs)),
		max:    make([]Value, len(aggs)),
		sawInt: make([]bool, len(aggs)),
	}
	g.seen = make([]map[string]bool, len(aggs))
	for i := range g.min {
		g.min[i] = Null
		g.max[i] = Null
		g.sawInt[i] = true
		if aggs[i].Distinct {
			g.seen[i] = make(map[string]bool)
		}
	}
	return g
}

func (g *group) add(ctx *evalCtx) error {
	for i, a := range g.aggs {
		if a.E == nil { // COUNT(*)
			g.count[i]++
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
			k := v.key()
			if g.seen[i][k] {
				continue
			}
			g.seen[i][k] = true
		}
		g.count[i]++
		if f, ok := v.AsFloat(); ok {
			g.sum[i] += f
			if v.K != KindInt {
				g.sawInt[i] = false
			}
		} else {
			g.sawInt[i] = false
		}
		if g.min[i].IsNull() || Compare(v, g.min[i]) < 0 {
			g.min[i] = v
		}
		if g.max[i].IsNull() || Compare(v, g.max[i]) > 0 {
			g.max[i] = v
		}
	}
	return nil
}

func (g *group) aggValues() map[*Agg]Value {
	out := make(map[*Agg]Value, len(g.aggs))
	for i, a := range g.aggs {
		switch a.Func {
		case "COUNT":
			out[a] = Int(g.count[i])
		case "SUM":
			if g.count[i] == 0 {
				out[a] = Null
			} else if g.sawInt[i] {
				out[a] = Int(int64(g.sum[i]))
			} else {
				out[a] = Float(g.sum[i])
			}
		case "AVG":
			if g.count[i] == 0 {
				out[a] = Null
			} else {
				out[a] = Float(g.sum[i] / float64(g.count[i]))
			}
		case "MIN":
			out[a] = g.min[i]
		case "MAX":
			out[a] = g.max[i]
		}
	}
	return out
}

// groupRows partitions rows by the group expressions and accumulates the
// aggregates, preserving first-seen group order.
func groupRows(rows []Row, groupExprs []Expr, aggs []*Agg, params []Value) (map[string]*group, []string, error) {
	groups := make(map[string]*group)
	var order []string
	ctx := &evalCtx{params: params}
	for _, r := range rows {
		ctx.row = r
		var sb strings.Builder
		for _, ge := range groupExprs {
			v, err := eval(ge, ctx)
			if err != nil {
				return nil, nil, err
			}
			sb.WriteString(v.key())
			sb.WriteByte('|')
		}
		k := sb.String()
		g, ok := groups[k]
		if !ok {
			g = newGroup(r, aggs)
			groups[k] = g
			order = append(order, k)
		}
		if err := g.add(ctx); err != nil {
			return nil, nil, err
		}
	}
	// A global aggregation over zero rows still yields one group.
	if len(groupExprs) == 0 && len(rows) == 0 {
		g := newGroup(nil, aggs)
		groups[""] = g
		order = append(order, "")
	}
	return groups, order, nil
}

// execInsert runs an INSERT. Caller holds the write lock.
func (e *Engine) execInsert(st *InsertStmt) (*Result, error) {
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
	ctx := &evalCtx{}
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
		be, err := bind(ex, &binder{}) // no columns available in VALUES
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
func (e *Engine) execUpdate(st *UpdateStmt) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, unknownTableError(st.Table)
	}
	b := &binder{}
	b.addTable(st.Table, t)
	var where Expr
	var err error
	if st.Where != nil {
		where, err = bind(st.Where, b)
		if err != nil {
			return nil, err
		}
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

	res := &Result{}
	ctx := &evalCtx{}

	// Matched rows are rewritten as private copies (the stored Row may
	// back a published view) and collected; the row store takes them in
	// one replace at the end, copying each touched chunk once. The pk
	// index is persistent, so a pk-changing row updates it right away
	// and the uniqueness check of the next row sees it.
	var idxs []int
	var news []Row
	apply := func(idx int, old Row) error {
		nr := make(Row, len(old))
		copy(nr, old)
		ctx.row = nr
		for _, s := range sets {
			v, err := eval(s.expr, ctx)
			if err != nil {
				return err
			}
			if nr[s.col], err = coerce(v, t.Cols[s.col].Type); err != nil {
				return err
			}
		}
		if t.pkCol >= 0 && nr[t.pkCol] != old[t.pkCol] {
			if ok, nk := old[t.pkCol].key(), nr[t.pkCol].key(); nk != ok {
				if _, dup := t.pk.get(nk); dup {
					return fmt.Errorf("sqlmini: duplicate primary key %s", nr[t.pkCol])
				}
				t.pk = t.pk.del(ok).set(nk, idx)
			}
		}
		for _, s := range sets {
			if nr[s.col] != old[s.col] {
				t.changed[s.col] = true
			}
		}
		idxs = append(idxs, idx)
		news = append(news, nr)
		return nil
	}
	// A failing row ends the statement; the rows before it stay updated.
	if v, ok := pkLookup(st.Where, t, st.Table); ok {
		// Fast path: WHERE pk = literal.
		res.Scanned++
		if idx, hit := t.pk.get(v.key()); hit {
			err = apply(idx, t.rows.at(idx))
		}
	} else {
	scan:
		for k := 0; k < t.rows.runs(); k++ {
			for j, r := range t.rows.run(k) {
				res.Scanned++
				if where != nil {
					ctx.row = r
					var v Value
					if v, err = eval(where, ctx); err != nil {
						break scan
					}
					if !v.Truth() {
						continue
					}
				}
				if err = apply(k*rowChunkLen+j, r); err != nil {
					break scan
				}
			}
		}
	}
	if len(idxs) > 0 {
		t.rows = t.rows.replace(idxs, news)
		t.touched = true
	}
	if err != nil {
		return nil, err
	}
	res.Affected = len(idxs)
	return res, nil
}

// execDelete runs a DELETE. Caller holds the write lock.
func (e *Engine) execDelete(st *DeleteStmt) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, unknownTableError(st.Table)
	}
	b := &binder{}
	b.addTable(st.Table, t)
	var where Expr
	var err error
	if st.Where != nil {
		where, err = bind(st.Where, b)
		if err != nil {
			return nil, err
		}
	}
	res := &Result{}
	ctx := &evalCtx{}
	kept := make([]Row, 0, t.rows.len())
	for k := 0; k < t.rows.runs(); k++ {
		for _, r := range t.rows.run(k) {
			res.Scanned++
			del := true
			if where != nil {
				ctx.row = r
				v, err := eval(where, ctx)
				if err != nil {
					return nil, err
				}
				del = v.Truth()
			}
			if del {
				res.Affected++
			} else {
				kept = append(kept, r)
			}
		}
	}
	// Compaction moves every row behind a deleted one, so a DELETE that
	// hit anything refills the table; one that hit nothing changes
	// nothing.
	if res.Affected > 0 {
		t.rebuild(kept)
	}
	return res, nil
}
