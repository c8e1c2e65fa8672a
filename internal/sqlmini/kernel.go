package sqlmini

// The scan's vector kernels: pushed-down conjuncts of the shape
// "column <op> literal" on an INT or FLOAT column, which a full scan
// checks on the column's vector a chunk at a time instead of boxing
// every element into a Value for eval. eval stays the definition of the
// operators: a kernel answers, element by element, what eval answers for
// the same conjunct (TestKernelsAgainstEval), it only gets there without
// the tree walk.

// Which outcomes of Compare(element, literal) a comparison accepts.
const (
	passLT uint8 = 1 << iota
	passEQ
	passGT
)

var opMask = map[string]uint8{
	"<": passLT, "<=": passLT | passEQ, "=": passEQ, "<>": passLT | passGT, ">": passGT, ">=": passGT | passEQ,
}

// vecCond is one comparison a scan runs on a column vector: the rows it
// keeps are those whose col compares to the literal with an outcome in
// mask. A NULL on either side keeps nothing, as eval's NULL is not true.
type vecCond struct {
	col  int
	mask uint8
	lit  *Lit
}

// vecConds splits a scan's pushed-down conjuncts, in order, into the
// comparisons that run as kernels and the conjuncts left to eval. A
// "col <op> literal" (either way round) or a plain BETWEEN two literals
// on an INT or FLOAT column becomes one or two vecConds, as long as
// every conjunct before it is a kernel too or cannot fail (infallible):
// kernels run first, so a row one of them drops never reaches the
// conjuncts it skipped over, and an error one of those would have raised
// on it must not go missing.
func vecConds(filter []Expr, t *Table) (vec []vecCond, rest []Expr) {
	hoist := true
	for _, f := range filter {
		if cs := asVecConds(f, t); hoist && cs != nil {
			vec = append(vec, cs...)
			continue
		}
		rest = append(rest, f)
		hoist = hoist && infallible(f)
	}
	return vec, rest
}

// asVecConds returns the comparisons a conjunct amounts to, or nil.
func asVecConds(f Expr, t *Table) []vecCond {
	numeric := func(e Expr) (int, bool) {
		bc, ok := e.(*boundCol)
		if !ok || (t.Cols[bc.col].Type != KindInt && t.Cols[bc.col].Type != KindFloat) {
			return 0, false
		}
		return bc.col, true
	}
	switch x := f.(type) {
	case *BinOp:
		mask, ok := opMask[x.Op]
		if !ok {
			return nil
		}
		if col, ok := numeric(x.L); ok {
			if lit, ok := x.R.(*Lit); ok {
				return []vecCond{{col, mask, lit}}
			}
		} else if col, ok := numeric(x.R); ok {
			if lit, ok := x.L.(*Lit); ok { // k < col reads col > k
				return []vecCond{{col, opMask[flipped[x.Op]], lit}}
			}
		}
	case *Between:
		col, ok := numeric(x.E)
		lo, lok := x.Lo.(*Lit)
		hi, hok := x.Hi.(*Lit)
		if ok && lok && hok && !x.Negate {
			return []vecCond{{col, passGT | passEQ, lo}, {col, passLT | passEQ, hi}}
		}
	}
	return nil
}

// infallible reports whether eval can never return an error for e:
// comparisons, LIKE, the logic operators, BETWEEN, IN and IS NULL over
// columns and literals. Arithmetic and negation fail on text; an
// aggregate fails outside aggregation.
func infallible(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case *BinOp:
			switch x.Op {
			case "+", "-", "*", "/":
				ok = false
			}
		case *UnOp:
			ok = ok && x.Op == "NOT"
		case *Agg, *ColRef:
			ok = false
		}
		return ok
	})
	return ok
}

// everyRow is the selection a chunk starts from: all its offsets.
var everyRow = func() (sel [rowChunkLen]uint16) {
	for i := range sel {
		sel[i] = uint16(i)
	}
	return sel
}()

// narrow keeps, in place, the offsets of sel whose element of the
// chunk's vector passes the comparison with lit.
func (vc vecCond) narrow(sel []uint16, c *rowChunk, lit Value) []uint16 {
	v := &c.cols[vc.col]
	if v.nulls != nil {
		n := 0
		for _, i := range sel {
			if !v.nulls.has(int(i)) {
				sel[n] = i
				n++
			}
		}
		sel = sel[:n]
	}
	switch {
	case lit.K == KindNull:
		return sel[:0]
	case lit.K == KindText:
		// Compare puts every number below text.
		if vc.mask&passLT == 0 {
			return sel[:0]
		}
		return sel
	case v.kind == KindInt && lit.K == KindInt:
		return narrowIntInt(sel, v.ints, lit.I, vc.mask)
	case v.kind == KindInt:
		return narrowIntFloat(sel, v.ints, lit.F, vc.mask)
	case lit.K == KindInt:
		return narrowFloatInt(sel, v.floats, lit.I, vc.mask)
	}
	return narrowFloatFloat(sel, v.floats, lit.F, vc.mask)
}

// The four loops below differ in how they rank an element against the
// literal — 0 below, 1 equal, 2 above, as Compare does for the two
// kinds — and share the rest: the offset is written back and kept when
// the mask has the rank's bit.

func narrowIntInt(sel []uint16, xs []int64, k int64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		rank := uint8(1)
		if x := xs[i]; x < k {
			rank = 0
		} else if x > k {
			rank = 2
		}
		sel[n] = i
		n += int(mask >> rank & 1)
	}
	return sel[:n]
}

func narrowFloatFloat(sel []uint16, xs []float64, k float64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		rank := uint8(1)
		if x := xs[i]; x < k {
			rank = 0
		} else if x > k {
			rank = 2
		} else if x != k { // a NaN: below every number, equal to itself
			if k == k {
				rank = 0
			} else if x == x {
				rank = 2
			}
		}
		sel[n] = i
		n += int(mask >> rank & 1)
	}
	return sel[:n]
}

func narrowIntFloat(sel []uint16, xs []int64, k float64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		sel[n] = i
		n += int(mask >> uint8(compareIntFloat(xs[i], k)+1) & 1)
	}
	return sel[:n]
}

func narrowFloatInt(sel []uint16, xs []float64, k int64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		sel[n] = i
		n += int(mask >> uint8(1-compareIntFloat(k, xs[i])) & 1)
	}
	return sel[:n]
}
