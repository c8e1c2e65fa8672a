package sqlmini

import "math/bits"

// Blocks. The loops of a run that evaluate compiled forms per tuple — a
// scan's filter, a join step's candidate checks and residuals, the group
// key and the aggregates' operands, the outputs — take their tuples a
// block at a time: up to blockLen of them. For each block the loop
// gathers the columns its forms read (its read set, compileAll) from the
// tuples' rows into the run's block vectors, one typed loop per column,
// and the forms then read tuple k of the block at index k of those
// vectors (evalCtx.at): no cursor is positioned per tuple, and a scan no
// form reads is never touched. A scan of a sealed chunk needs no gather:
// the chunk's own vectors are the block, indexed by offset.
//
// A loop evaluates the block's tuples in their order, each as far as the
// tuple-at-a-time loop went, so results, their order, float sums and the
// first error are those of evaluating tuple after tuple. Where a loop
// takes one form over the whole block before the next — groupRows's
// aggregates, narrow's conjuncts over a selection vector — a block that
// meets an error is evaluated again tuple by tuple to find the error
// that order meets first.

// blockLen is the most tuples a block holds: a chunk's worth, so a
// block's null map is a chunk's.
const blockLen = rowChunkLen

// blockBufs is a run's block storage, kept in its scratch: a vector and
// a null map per read of the plan, and what a gather works with. It is
// kept with the scratch across runs, so a run that gathers allocates
// nothing once the pool is warm.
type blockBufs struct {
	vecs  []vecBuilder
	nulls []nullMap
	pos   []int32   // the positions of one scan's rows of the block
	pick  []int32   // the tuples a block is made of, where a loop picks them
	ptrs  []*colVec // the evalCtx's vecs
	used  int       // the most elements of a vector a gather wrote since the last scrub
	dict  vecBuilder
	// A join step's key columns of a block, and their null maps; a
	// group key's slots by the codes of a chunk's dictionaries.
	keys     [2]vecBuilder
	keyNulls [2]nullMap
	codes    []int32
	one      oneRow // a small run's copied one-tuple block
}

// vecsFor readies a vector for each of the plan's reads.
func (bb *blockBufs) vecsFor(p *selectPlan) {
	if len(bb.vecs) < len(p.reads) {
		bb.vecs = append(bb.vecs, make([]vecBuilder, len(p.reads)-len(bb.vecs))...)
		bb.nulls = append(bb.nulls, make([]nullMap, len(p.reads)-len(bb.nulls))...)
	}
	if bb.pos == nil {
		bb.pos, bb.pick = make([]int32, blockLen), make([]int32, 0, blockLen)
	}
}

// scrub drops the strings and the vectors the block holds, so a pooled
// scratch keeps nothing of a view alive.
func (bb *blockBufs) scrub() {
	for r := range bb.vecs {
		clear(bb.vecs[r].strs[:min(bb.used, len(bb.vecs[r].strs))])
	}
	for c := range bb.keys {
		clear(bb.keys[c].strs[:min(bb.used, len(bb.keys[c].strs))])
	}
	clear(bb.ptrs[:cap(bb.ptrs)])
	bb.dict.strs, bb.used = nil, 0
	for i := range bb.one.vals {
		bb.one.vals[i].s[0] = ""
	}
}

// blockOf returns the run's block storage, ready for its plan.
func (x *execRun) blockOf() *blockBufs {
	if x.bb == nil {
		x.bb = &x.scratch().blk
		x.bb.vecsFor(x.p)
		if cap(x.bb.ptrs) < len(x.p.reads) {
			x.bb.ptrs = make([]*colVec, len(x.p.reads))
		}
	}
	x.ec.vecs = x.bb.ptrs[:len(x.p.reads)]
	return x.bb
}

// oneRow is the block of a gather of one tuple in a small run (smallRun)
// that is not read in place: a vector of one element per read, in the
// run's scratch. Two reads cover a pk read of a column or two.
type oneRow struct {
	vecs [2]vecBuilder
	vals [2]struct {
		i [1]int64
		f [1]float64
		s [1]string
	}
}

// oneNull is the null map of a one-element vector holding NULL; it is
// only read.
var oneNull = nullMap{1}

// gather makes tuple t of in (over the scans from scan0 on; t < 0: every
// column NULL) the block, reading the columns refs into x.ec.vecs.
func (o *oneRow) gather(x *execRun, in *tuples, scan0, t int, refs []int) {
	for _, r := range refs {
		at := x.p.reads[r]
		b, val := &o.vecs[r], &o.vals[r]
		b.kind, b.ints, b.floats, b.strs, b.nulls = x.p.scans[at.scan].t.Cols[at.col].Type, val.i[:], val.f[:], val.s[:], nil
		v := Null
		if t >= 0 {
			v = x.stores[at.scan].value(in.pos(t, at.scan-scan0), at.col)
		}
		switch v.K {
		case KindNull:
			b.nulls = &oneNull
		case KindInt:
			val.i[0] = v.I
		case KindFloat:
			val.f[0] = v.F
		case KindText:
			val.s[0] = v.S
		}
		x.ec.vecs[r] = (*colVec)(b)
	}
}

// gatherOne makes tuple t of in the block in a small run, and returns
// where in the block's vectors the tuple is. A row of a sealed chunk of
// a one-scan plan is read in place — the chunk's vectors, at the row's
// offset — when inPlace (the caller reads the tuple at the index
// returned), which draws nothing; any other is copied into the oneRow
// of the run's scratch, at 0.
func (x *execRun) gatherOne(in *tuples, scan0, t int, refs []int, inPlace bool) int {
	x.ec.vecs = x.small.ptrs[:len(x.p.reads)]
	if st := x.stores[0]; inPlace && len(x.p.scans) == 1 && t >= 0 {
		if p := in.pos(t, 0); p < len(st.chunks)*rowChunkLen {
			c := st.chunks[p/rowChunkLen]
			for _, r := range refs {
				x.ec.vecs[r] = &c.cols[x.p.reads[r].col]
			}
			return p % rowChunkLen
		}
	}
	x.scratch().blk.one.gather(x, in, scan0, t, refs)
	return 0
}

// gatherAt is gather of the tuples from, from+1, … (m of them), which
// returns where in the block's vectors the first of them is: a lone row
// of a sealed chunk of a one-scan plan is read in place, at its offset;
// any other block starts at 0.
func (x *execRun) gatherAt(in *tuples, scan0, from, m int, refs []int) int {
	if x.small != nil && m == 1 && len(refs) > 0 {
		return x.gatherOne(in, scan0, from, refs, true)
	}
	x.gather(in, scan0, from, m, nil, refs)
	return 0
}

// gather makes tuples of in the block: tuples from, from+1, … (m of
// them) or, when pick is not nil, tuples pick[0], pick[1], … — a
// negative one standing for the tuple of every column NULL (an
// aggregation over no rows). in's tuples are over the plan's scans from
// scan0 on: 0 for a join step's tuples, k for scan k's own output. It
// reads the columns refs into the block's vectors and points the run's
// evalCtx at them; a form of the loop then reads tuple k with x.ec.at =
// k.
func (x *execRun) gather(in *tuples, scan0, from, m int, pick []int32, refs []int) {
	x.gatherSel(in, scan0, from, m, pick, nil, refs)
}

// gatherSel is gather of the tuples of the block sel names, when it is
// not nil: the vectors hold NULL at the others.
func (x *execRun) gatherSel(in *tuples, scan0, from, m int, pick []int32, sel []uint16, refs []int) {
	if len(refs) == 0 {
		return
	}
	if x.small != nil && sel == nil && (m == 1 && pick == nil || len(pick) == 1) {
		t := from
		if pick != nil {
			t = int(pick[0])
		}
		x.gatherOne(in, scan0, t, refs, false)
		return
	}
	bb := x.blockOf()
	x.res.modes |= modeGather
	if pick != nil {
		m = len(pick)
	}
	bb.used = max(bb.used, m)
	pos := bb.pos[:m]
	scan := -1
	for _, r := range refs {
		at := x.p.reads[r]
		if at.scan != scan {
			scan = at.scan
			switch {
			case sel != nil && len(sel) < m:
				for k := range pos {
					pos[k] = -1
				}
				for _, k := range sel {
					pos[k] = int32(in.pos(from+int(k), scan-scan0))
				}
			default:
				for k := range pos {
					t := from + k
					if pick != nil {
						t = int(pick[k])
					}
					if t < 0 {
						pos[k] = -1
					} else {
						pos[k] = int32(in.pos(t, scan-scan0))
					}
				}
			}
		}
		b := &bb.vecs[r]
		b.ready(x.p.scans[scan].t.Cols[at.col].Type, m)
		b.gather(x.stores[scan], at.col, pos, &bb.nulls[r])
		x.ec.vecs[r] = (*colVec)(b)
	}
}

// gather reads column col of the rows at pos (-1: a NULL) into the
// vector's first len(pos) elements, with nm as its null map: a loop per
// kind, whose sealed rows read the chunk's vector.
func (b *vecBuilder) gather(st *rowStore, col int, pos []int32, nm *nullMap) {
	clear(nm[:(len(pos)+63)/64])
	nulls := false
	sealed := int32(len(st.chunks) * rowChunkLen)
	null := func(k int) {
		nm[k>>6] |= 1 << (uint(k) & 63)
		nulls = true
	}
	switch b.kind {
	case KindInt:
		out := b.ints[:len(pos)]
		for k, p := range pos {
			if uint32(p) < uint32(sealed) {
				v := &st.chunks[p/rowChunkLen].cols[col]
				out[k] = v.ints[p%rowChunkLen]
				if v.nulls != nil && v.nulls.has(int(p%rowChunkLen)) {
					null(k)
				}
			} else if p >= 0 && st.tail[p-sealed][col].K == KindInt {
				out[k] = st.tail[p-sealed][col].I
			} else {
				null(k)
			}
		}
	case KindFloat:
		out := b.floats[:len(pos)]
		for k, p := range pos {
			if uint32(p) < uint32(sealed) {
				v := &st.chunks[p/rowChunkLen].cols[col]
				out[k] = v.floats[p%rowChunkLen]
				if v.nulls != nil && v.nulls.has(int(p%rowChunkLen)) {
					null(k)
				}
			} else if p >= 0 && st.tail[p-sealed][col].K == KindFloat {
				out[k] = st.tail[p-sealed][col].F
			} else {
				null(k)
			}
		}
	case KindText:
		out := b.strs[:len(pos)]
		for k, p := range pos {
			if uint32(p) < uint32(sealed) {
				v := &st.chunks[p/rowChunkLen].cols[col]
				out[k] = v.strs[p%rowChunkLen]
				if v.nulls != nil && v.nulls.has(int(p%rowChunkLen)) {
					null(k)
				}
			} else if p >= 0 && st.tail[p-sealed][col].K == KindText {
				out[k] = st.tail[p-sealed][col].S
			} else {
				null(k)
			}
		}
	}
	b.nulls = nil
	if nulls {
		b.nulls = nm
	}
}

// chunkBlock makes the rows at offsets of the sealed chunk c the block,
// for the reads refs of one scan: the chunk's own vectors, read at the
// offset (x.ec.at = offset).
func (x *execRun) chunkBlock(c *rowChunk, refs []int) {
	if len(refs) > 0 {
		x.blockOf()
	}
	for _, r := range refs {
		x.ec.vecs[r] = &c.cols[x.p.reads[r].col]
	}
}

// dictCond is a conjunct of a scan's rest that is decided once per entry
// of a column's dictionary (compiler.dictConds): the ith of crest, and
// the read of the TEXT column it tests.
type dictCond struct {
	i, ref int
}

// dictConds picks the conjuncts of crest a chunk scan may decide per
// dictionary entry: a comparison, IN, BETWEEN or LIKE of one TEXT column
// with params, which cannot fail and whose outcome is a function of the
// column's string — among the first 64, and with only conjuncts that
// cannot fail before it (rest bound), since the scan takes them first.
func (c *compiler) dictConds(crest []*cexpr, rest []Expr) []dictCond {
	if c.counting || c.interpret {
		return nil
	}
	var out []dictCond
	for i, n := range crest {
		if i == 64 {
			break
		}
		if ref, ok := dictForm(n); ok {
			out = append(out, dictCond{i: i, ref: ref})
		} else if !infallible(rest[i], false) {
			break
		}
	}
	return out
}

// dictForm reports whether n is a condition dictConds takes, and the
// read of its column: the column is one operand — IN's tested value, not
// an element of its list — and every other operand a param, so a NULL
// in the column makes the condition NULL.
func dictForm(n *cexpr) (int, bool) {
	ops := []*cexpr{n.l, n.r, n.hi}
	switch n.op {
	case opCmp, opLike, opBetween:
	case opIn:
		ops = append(ops[:1], n.list...)
	default:
		return 0, false
	}
	ref, cols := 0, 0
	for i, o := range ops {
		switch {
		case o == nil:
		case o.op == opText && (n.op != opIn || i == 0):
			ref, cols = o.ref, cols+1
		case o.op != opParam:
			return 0, false
		}
	}
	return ref, cols == 1
}

// dictPass decides dc for every entry of the dictionary of v, the
// column's vector in a chunk: bit e of the result is set when the
// conjunct holds of entry e.
func (x *execRun) dictPass(dc dictCond, cond *cexpr, v *colVec) (pass [dictMax / 64]uint64) {
	bb := x.blockOf()
	bb.dict.kind, bb.dict.strs, bb.dict.nulls = KindText, v.dict, nil
	saved, at := x.ec.vecs[dc.ref], x.ec.at
	x.ec.vecs[dc.ref] = (*colVec)(&bb.dict)
	for e := range v.dict {
		x.ec.at = e
		if cond.cond(&x.ec) == tTrue {
			pass[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	x.ec.vecs[dc.ref], x.ec.at = saved, at
	return pass
}

// ready makes b a block vector of kind with room for m elements. It
// keeps the slices it has while they are long enough, and grows them to
// a power of two, so a scratch that only ever serves small runs keeps
// small vectors — less for the collector to scan in a pooled scratch.
func (b *vecBuilder) ready(kind Kind, m int) {
	b.kind = kind
	size := min(blockLen, max(8, 1<<bits.Len(uint(m-1))))
	switch kind {
	case KindInt:
		if len(b.ints) < m {
			b.ints = make([]int64, size)
		}
	case KindFloat:
		if len(b.floats) < m {
			b.floats = make([]float64, size)
		}
	case KindText:
		if len(b.strs) < m {
			b.strs = make([]string, size)
		}
	}
}

// keyBlock gathers column col of the rows of scan whose positions tuples
// from, from+1, … (m of them) of in hold — in's tuples over the scans
// from scan0 on — into the block's c-th key vector, and returns it.
func (x *execRun) keyBlock(c int, in *tuples, scan0, scan, col, from, m int) *colVec {
	bb := x.blockOf()
	bb.used = max(bb.used, m)
	pos := bb.pos[:m]
	for k := range pos {
		pos[k] = int32(in.pos(from+k, scan-scan0))
	}
	b := &bb.keys[c]
	b.ready(x.p.scans[scan].t.Cols[col].Type, m)
	b.gather(x.stores[scan], col, pos, &bb.keyNulls[c])
	return (*colVec)(b)
}
