package sqlmini

import "fmt"

// The tests' oracle: eval, a tree walk over a bound expression, defines
// what every operator answers. The compiled forms (compile.go), the scan
// kernels (kernel.go) and the index's run (indexOrder.run) are held to
// it, value for value and error for error; no production path runs it.

// oracle is what eval reads: the tuple — its row of table k is the one
// at position pos[k] of stores[k], read through rowStore.value — the
// statement's params and, in aggregate mode, the group's aggregates.
type oracle struct {
	stores []*rowStore
	pos    []int
	params []Value
	aggs   []Value
}

// column returns column col of the tuple's row of table.
func (o *oracle) column(table, col int) Value {
	return o.stores[table].value(o.pos[table], col)
}

// rowOf returns a store that holds r alone, at position 0: an UPDATE's
// own copy of a row, read as a tail row.
func rowOf(kinds []Kind, r Row) *rowStore {
	return &rowStore{kinds: kinds, tail: []Row{r}}
}

// eval evaluates an expression; ColRefs must have been rewritten to
// boundCol by bind.
func eval(e Expr, ctx *oracle) (Value, error) {
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

func evalBin(x *BinOp, ctx *oracle) (Value, error) {
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
