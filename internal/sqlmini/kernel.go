package sqlmini

// The typed loops of a filter: a conjunct that compares an INT or FLOAT
// column with params (loopTyped, compiler.conjuncts) runs, over a
// block's selected tuples, as a loop over the column's vector — a
// sealed chunk's own or a gathered one — instead of evaluating the
// conjunct per tuple (execRun.narrow). A loop answers, element by
// element, what the tests' eval answers for the same conjunct
// (TestKernelsAgainstEval).

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

// everyRow is the selection a block starts from: all its tuples.
var everyRow = func() (sel [rowChunkLen]uint16) {
	for i := range sel {
		sel[i] = uint16(i)
	}
	return sel
}()

// typedLoop narrows sel by the typed-loop conjunct c into dst.
func (x *execRun) typedLoop(dst, sel []uint16, c *cexpr) []uint16 {
	v, p := x.ec.vecs[c.l.ref], x.ec.params
	if c.op == opBetween {
		sel = narrowVec(dst, sel, v, PassGT|PassEQ, p[c.r.slot])
		return narrowVec(sel, sel, v, PassLT|PassEQ, p[c.hi.slot])
	}
	return narrowVec(dst, sel, v, c.mask, p[c.r.slot])
}

// narrowVec writes to dst, in order, those of the tuples sel names
// whose element of v is not NULL and compares to lit with an outcome in
// mask, and returns them; dst may be sel itself.
func narrowVec(dst, sel []uint16, v *colVec, mask uint8, lit Value) []uint16 {
	if v.nulls != nil {
		n := 0
		for _, i := range sel {
			dst[n] = i
			if !v.nulls.has(int(i)) {
				n++
			}
		}
		sel = dst[:n]
	}
	switch {
	case lit.K == KindNull:
		return dst[:0]
	case lit.K == KindText:
		// Compare puts every number below text.
		if mask&PassLT == 0 {
			return dst[:0]
		}
		return dst[:copy(dst, sel)]
	case v.kind == KindInt && lit.K == KindInt:
		return narrowIntInt(dst, sel, v.ints, lit.I, mask)
	case v.kind == KindInt:
		return narrowIntFloat(dst, sel, v.ints, lit.F, mask)
	case lit.K == KindInt:
		return narrowFloatInt(dst, sel, v.floats, lit.I, mask)
	}
	return narrowFloatFloat(dst, sel, v.floats, lit.F, mask)
}

// The four loops below differ in how they rank an element against the
// literal — 0 below, 1 equal, 2 above, as Compare does for the two
// kinds — and share the rest: the tuple is written to dst and kept when
// the mask has the rank's bit.

func narrowIntInt(dst, sel []uint16, xs []int64, k int64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		rank := uint8(1)
		if x := xs[i]; x < k {
			rank = 0
		} else if x > k {
			rank = 2
		}
		dst[n] = i
		n += int(mask >> rank & 1)
	}
	return dst[:n]
}

func narrowFloatFloat(dst, sel []uint16, xs []float64, k float64, mask uint8) []uint16 {
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
		dst[n] = i
		n += int(mask >> rank & 1)
	}
	return dst[:n]
}

func narrowIntFloat(dst, sel []uint16, xs []int64, k float64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		dst[n] = i
		n += int(mask >> uint8(compareIntFloat(xs[i], k)+1) & 1)
	}
	return dst[:n]
}

func narrowFloatInt(dst, sel []uint16, xs []float64, k int64, mask uint8) []uint16 {
	n := 0
	for _, i := range sel {
		dst[n] = i
		n += int(mask >> uint8(1-compareIntFloat(k, xs[i])) & 1)
	}
	return dst[:n]
}
