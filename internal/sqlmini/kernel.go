package sqlmini

// The scan's vector kernels: the comparisons of an INT or FLOAT column
// with a literal that the planner's conjunct analysis reads out of a
// scan's pushed-down conjuncts (cmpLits, plan.go), which a full scan
// checks on the column's vector a chunk at a time instead of evaluating
// the conjunct per row. A kernel answers, element by element, what the
// tests' eval answers for the same conjunct (TestKernelsAgainstEval).

// vecConds splits the conjuncts a scan keeps, in order, into the
// comparisons that run as kernels and the conjuncts left; filter is
// conjs bound. A conjunct that amounts to comparisons of an INT or
// FLOAT column with literals (cmpLits) runs as one or two kernels, as
// long as every conjunct before it is a kernel too or cannot fail
// (infallible): kernels run first, so a row one of them drops never
// reaches the conjuncts it skipped over, and an error one of those would
// have raised on it must not go missing.
func vecConds(conjs []conjunct, filter []Expr, t *Table) (vec []cmpLit, rest []Expr) {
	hoist := true
	for i, cj := range conjs {
		if typ := t.Cols[cj.cmps[0].col].Type; hoist && cj.ncmp > 0 && (typ == KindInt || typ == KindFloat) {
			vec = append(vec, cj.cmps[:cj.ncmp]...)
			continue
		}
		rest = append(rest, filter[i])
		hoist = hoist && infallible(filter[i], false)
	}
	return vec, rest
}

// infallible reports whether evaluating e can never fail:
// comparisons, LIKE, the logic operators, BETWEEN, IN and IS NULL over
// columns, literals and, where e is evaluated against a group (grouped),
// aggregates, which read the group's value. Arithmetic and negation fail
// on text; an aggregate fails outside aggregation.
func infallible(e Expr, grouped bool) bool {
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
		case *Agg:
			ok = ok && grouped
			return false // its operand is groups.add's to evaluate
		case *ColRef:
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
func (vc cmpLit) narrow(sel []uint16, c *rowChunk, lit Value) []uint16 {
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
		if vc.mask&PassLT == 0 {
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
