package sqlmini

import (
	"cmp"
	"fmt"
	"slices"
)

// Compiled expressions: the one evaluator of production code. buildPlan
// compiles every expression a run evaluates — constant conjuncts, scan
// filters, join residuals, group keys, aggregate arguments, HAVING,
// projections and ORDER BY keys — once, into a tree of cexpr nodes the
// plan keeps (selectPlan.compileAll); a write compiles its VALUES, SET
// and WHERE expressions per statement (writeScratch, exec.go). A node has
// its operator and, for a column, its declared type and its read (the
// block vector it reads, block.go) resolved, so evaluating it switches on
// a small integer. Three evaluators share the tree: val yields a Value,
// num a number unboxed (arithmetic and aggregate arguments), cond a
// condition's outcome (filters, AND, OR, NOT); each node is evaluated by
// the one its parent needs, and converts when that is not its own.
//
// A node answers what the tests' tree-walking eval (eval_test.go)
// answers for its bound expression, value for value and error for error
// (TestCompiledAgainstEval, FuzzCompiledExpr): operands are evaluated in
// eval's order and no further than eval goes, NULL propagates before a
// type check, and floats are combined in the same order.
//
// An error does not unwind: the node that fails records it in the
// evalCtx (fail), the first one recorded stands, and the root returns it
// (get, holds). Evaluating on past a failure is harmless: nothing is
// written but the error, and every node before it in eval's order has
// already been evaluated as eval would have.

// cop is a compiled node's operation. The order matters: each evaluator
// handles one range itself and converts the others.
type cop uint8

const (
	// Leaves, read as Values (val).
	opParam cop = iota // the statement's param slot
	opInt              // column col of the tuple's row of scan, declared INT
	opFloat            // likewise, declared FLOAT
	opText             // likewise, declared TEXT
	opCol              // likewise, declared without a type: always NULL
	opAgg              // the current group's aggregate in slot
	opFail             // fails with err: a tree the parser never makes; a write's unresolved column

	// Numbers (num).
	opNeg
	opAdd
	opSub
	opMul
	opDiv

	// Conditions (cond).
	opNot
	opAnd
	opOr
	opCmp // = <> < <= > >=: true when mask has Compare(l, r)'s outcome
	opLike
	opBetween // l BETWEEN r AND hi
	opIn      // l IN list
	opIsNull
)

// cexpr is one node of a compiled expression. The plan shares it with
// every run; a run writes nothing into it.
type cexpr struct {
	op     cop
	mask   uint8 // opCmp: PassLT, PassEQ and PassGT as in cmpLit
	negate bool  // NOT BETWEEN, NOT IN, IS NOT NULL
	// text marks a comparison or BETWEEN with a TEXT column among its
	// operands: they are read as Values, whose strings decide. Any other
	// is read as numbers, a text param's string read only when two texts
	// meet.
	text      bool
	loop      loop // a conjunct's: how narrow takes it over a block
	scan, col int  // a column's place in the tuple
	ref       int  // a column's read: its place in selectPlan.reads, and its vector's in a block; a dictionary conjunct's, its column's
	slot      int  // opParam, opAgg
	l, r, hi  *cexpr
	list      []*cexpr
	err       error // what eval returns where this node fails
}

// loop is how narrow takes a conjunct over a block's selected tuples
// (compiler.conjuncts marks it).
type loop uint8

const (
	loopTuple loop = iota // the form evaluated tuple by tuple
	loopDict              // a condition of a TEXT column with params (loopOf): decided once per entry of a chunk's dictionary (dictNarrow), where its vector has one, else tuple by tuple
	loopTyped             // a comparison or BETWEEN of an INT or FLOAT column with params: a typed loop over the column's vector (narrowVec)
)

// num is a value read as a number: an INT in i, a FLOAT in f, the other
// zero; k KindText for a text, whose string it does not carry.
type num struct {
	i int64
	f float64
	k Kind
}

// tri is a condition's outcome: NULL is neither true nor false.
type tri uint8

const (
	tFalse tri = iota
	tTrue
	tNull
)

func truth(b bool) tri {
	if b {
		return tTrue
	}
	return tFalse
}

var (
	errArith  = fmt.Errorf("sqlmini: arithmetic on non-numeric values")
	errNegate = fmt.Errorf("sqlmini: cannot negate %s", KindText)
)

// colOps are the reads of a column by its declared type.
var colOps = [...]cop{KindNull: opCol, KindInt: opInt, KindFloat: opFloat, KindText: opText}

// cmpMasks are the outcomes each comparison operator passes.
var cmpMasks = map[string]uint8{"=": PassEQ, "<>": PassLT | PassGT, "<": PassLT, "<=": PassLT | PassEQ, ">": PassGT, ">=": PassGT | PassEQ}

// compile compiles an expression: a plan's, bound, whose columns name
// the plan's scans and whose aggregates carry their slots, or a write's,
// whose columns the compiler resolves through its binder. The declared
// type of a column's table picks its read.
func (c *compiler) compile(e Expr) *cexpr {
	switch x := e.(type) {
	case nil: // a write without WHERE
		return nil
	case *Lit:
		return c.node(cexpr{op: opParam, slot: x.Slot})
	case *boundCol:
		return c.node(cexpr{op: colOps[c.p.scans[x.table].t.Cols[x.col].Type], scan: x.table, col: x.col, ref: c.ref(x.table, x.col)})
	case *ColRef: // a write's: its binder resolves it
		table, col, err := c.b.resolve(x)
		if err != nil {
			c.err = cmp.Or(c.err, err)
			return c.node(cexpr{op: opFail, err: err})
		}
		return c.node(cexpr{op: colOps[c.b.tables[table].cols[col].Type], scan: table, col: col, ref: c.ref(table, col)})
	case *Agg:
		if c.b != nil && x.E != nil {
			c.compile(x.E) // a write's operand must resolve, though it is never evaluated
		}
		return c.node(cexpr{op: opAgg, slot: x.slot, err: fmt.Errorf("sqlmini: aggregate %s outside aggregation", x.Func)})
	case *UnOp:
		n := cexpr{l: c.compile(x.E)}
		switch x.Op {
		case "NOT":
			n.op = opNot
		case "-":
			n.op, n.err = opNeg, errNegate
		default:
			n.op, n.err = opFail, fmt.Errorf("sqlmini: unknown unary op %q", x.Op)
		}
		return c.node(n)
	case *BinOp:
		l, r := c.compile(x.L), c.compile(x.R)
		n := cexpr{l: l, r: r, text: l.op == opText || r.op == opText}
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			n.op, n.mask = opCmp, cmpMasks[x.Op]
		case "AND":
			n.op = opAnd
		case "OR":
			n.op = opOr
		case "LIKE":
			n.op = opLike
		case "+":
			n.op, n.err = opAdd, errArith
		case "-":
			n.op, n.err = opSub, errArith
		case "*":
			n.op, n.err = opMul, errArith
		case "/":
			n.op, n.err = opDiv, errArith
		default:
			n.op, n.err = opFail, fmt.Errorf("sqlmini: unknown operator %q", x.Op)
		}
		return c.node(n)
	case *Between:
		l, r, hi := c.compile(x.E), c.compile(x.Lo), c.compile(x.Hi)
		return c.node(cexpr{op: opBetween, l: l, r: r, hi: hi, negate: x.Negate, text: l.op == opText || r.op == opText || hi.op == opText})
	case *InList:
		n := cexpr{op: opIn, l: c.compile(x.E), negate: x.Negate, list: c.list(len(x.List))}
		for i, le := range x.List {
			if m := c.compile(le); n.list != nil {
				n.list[i] = m
			}
		}
		return c.node(n)
	case *IsNull:
		return c.node(cexpr{op: opIsNull, l: c.compile(x.E), negate: x.Negate})
	}
	return c.node(cexpr{op: opFail, err: fmt.Errorf("sqlmini: unknown expression %T", e)})
}

// compiler makes compiled forms: a plan's (p) — its nodes cut from one
// slab and its lists from another, each sized by a first pass that only
// counts, so they cost it two allocations, and its read sets (ref) — or
// a write's (writeScratch, p nil), its columns resolved through b.
type compiler struct {
	p   *selectPlan
	b   *binder
	err error // the first column b did not resolve
	// counting marks the first pass: node and list count what they would
	// hand out, and hand out counted and nil.
	counting      bool
	nnodes, nptrs int
	nodes         []cexpr
	ptrs          []*cexpr
	// site is the read set of the forms being compiled: a loop that
	// evaluates them gathers those columns into its block (block.go).
	site *[]int
}

// counted is what node hands out while counting; nothing writes it.
var counted cexpr

// compileAll fills the forms a run evaluates from the plan's bound
// expressions: its constant conjuncts, its scans' filters, its join
// residuals, group key, aggregates, HAVING, outputs and ORDER BY
// expressions.
func (p *selectPlan) compileAll() {
	c := &compiler{p: p, counting: true}
	p.fill(c)
	c.nodes, c.ptrs = make([]cexpr, 0, c.nnodes), make([]*cexpr, 0, c.nptrs)
	c.counting = false
	p.reads = nil
	p.fill(c)
}

// fill sets every compiled form of the plan through c, and the read set
// of each loop that evaluates them: a scan's filters, a join step's
// residuals, the group key with the aggregates' operands, and what is
// evaluated per output row.
func (p *selectPlan) fill(c *compiler) {
	p.cconsts = c.roots(p.consts) // they read no column
	for i := range p.scans {
		s := &p.scans[i]
		s.reads, c.site = nil, &s.reads
		s.cfilter, s.cinRange = c.conjuncts(s.filter), c.conjuncts(s.inRange)
	}
	for i := range p.joins {
		j := &p.joins[i]
		c.site = new([]int) // narrow gathers what each conjunct reads
		j.cextra = c.conjuncts(j.extra)
		if f := p.scans[i+1].filter; j.probe >= 0 {
			j.cprobe = c.list(len(f) + len(j.extra))
			copy(j.cprobe[copy(j.cprobe, p.scans[i+1].cfilter):], j.cextra)
		}
	}
	p.groupReads, c.site = nil, &p.groupReads
	p.ckey = c.roots(p.groupKey)
	p.outReads, c.site = nil, &p.outReads
	p.outs = c.roots(p.outExprs)
	p.chaving = nil
	if p.having != nil {
		p.chaving = c.root(p.having)
	}
	// What ranks a candidate of an ORDER BY: its own expressions and,
	// ranking before projecting (selectThenProject), HAVING and the
	// outputs the ORDER BY names.
	p.rankReads, c.site = nil, &p.rankReads
	if p.having != nil {
		c.read(p.having)
	}
	for _, oi := range p.keyOuts {
		c.read(p.outExprs[oi])
	}
	c.site = &p.groupReads
	p.caggs = nil
	if !c.counting && len(p.aggs) > 0 {
		p.caggs = make([]cagg, len(p.aggs))
	}
	for i, a := range p.aggs {
		var arg *cexpr
		if a.E != nil {
			arg = c.root(a.E)
		}
		if p.caggs != nil {
			p.caggs[i] = cagg{fn: aggFns[a.Func], arg: arg, distinct: a.Distinct}
		}
	}
	c.site = &p.rankReads
	for i := range p.orderBy {
		if o := &p.orderBy[i]; o.expr != nil {
			o.c = c.root(o.expr)
		}
	}
}

// ref returns the read of column col of scan's row, and adds it to the
// read set being made: a plan's read is its place in the plan's reads,
// added when new; a write's is the column itself.
func (c *compiler) ref(scan, col int) int {
	if c.counting {
		return 0
	}
	if c.p == nil {
		if !slices.Contains(*c.site, col) {
			*c.site = append(*c.site, col)
		}
		return col
	}
	p, at := c.p, colPos{scan, col}
	r := slices.Index(p.reads, at)
	if r < 0 {
		r = len(p.reads)
		p.reads = append(p.reads, at)
	}
	// A site's reads go by scan, so a gather finds a scan's positions once.
	site := *c.site
	if !slices.Contains(site, r) {
		i, _ := slices.BinarySearchFunc(site, at, func(have int, at colPos) int {
			return cmp.Or(cmp.Compare(p.reads[have].scan, at.scan), cmp.Compare(p.reads[have].col, at.col))
		})
		*c.site = slices.Insert(site, i, r)
	}
	return r
}

// read adds the columns e reads to the read set being made. An
// aggregate's operand is not the reading expression's: groupRows reads
// it.
func (c *compiler) read(e Expr) {
	walkExpr(e, func(x Expr) bool {
		if bc, ok := x.(*boundCol); ok {
			c.ref(bc.table, bc.col)
		}
		_, agg := x.(*Agg)
		return !agg
	})
}

// root returns the compiled form of e, and adds the columns it reads to
// the read set being made.
func (c *compiler) root(e Expr) *cexpr {
	c.read(e)
	return c.compile(e)
}

// roots returns the compiled forms of es.
func (c *compiler) roots(es []Expr) []*cexpr {
	out := c.list(len(es))
	for i, e := range es {
		n := c.root(e)
		if out != nil {
			out[i] = n
		}
	}
	return out
}

// conjuncts returns the compiled forms of the conjuncts es, each marked
// with how narrow takes it (cexpr.loop), in one order: typed loops
// first, then dictionary decisions, then the rest, each group in the
// order written — and no conjunct moves past one that can fail
// (infallible), so an error a tuple raises there still comes out where
// a conjunct after it would have dropped the tuple.
func (c *compiler) conjuncts(es []Expr) []*cexpr {
	out := c.roots(es)
	if out == nil {
		return nil
	}
	sort := func(ns []*cexpr) {
		slices.SortStableFunc(ns, func(a, b *cexpr) int { return cmp.Compare(b.loop, a.loop) })
	}
	from := 0
	for i, n := range out {
		if n.loop = loopOf(n); !infallible(es[i], false) {
			sort(out[from:i])
			from = i + 1
		}
	}
	sort(out[from:])
	return out
}

// loopOf returns how narrow takes the conjunct n. A comparison,
// BETWEEN, LIKE or IN whose one column operand — IN's tested value, not
// an element of its list — is compared with params alone cannot fail,
// and a NULL in the column makes it NULL: of a TEXT column it is a
// dictionary conjunct, whose ref becomes the column's read; a
// comparison or plain BETWEEN of an INT or FLOAT column, a typed loop's,
// read from the column's side (k < col as col > k).
func loopOf(n *cexpr) loop {
	ops := []*cexpr{n.l, n.r, n.hi}
	switch n.op {
	case opCmp, opLike, opBetween:
	case opIn:
		ops = append(ops[:1], n.list...)
	default:
		return loopTuple
	}
	var col *cexpr
	for i, o := range ops {
		switch {
		case o == nil:
		case col == nil && o.op >= opInt && o.op <= opText && (n.op != opIn || i == 0):
			col = o
		case o.op != opParam:
			return loopTuple
		}
	}
	switch {
	case col == nil:
	case col.op == opText:
		n.ref = col.ref
		return loopDict
	case n.op == opCmp && col == n.r:
		n.l, n.r, n.mask = n.r, n.l, n.mask&PassEQ|n.mask&PassLT<<2|n.mask&PassGT>>2
		return loopTyped
	case n.op == opCmp || n.op == opBetween && col == n.l && !n.negate:
		return loopTyped
	}
	return loopTuple
}

// node returns a node holding n, cut from the slab.
func (c *compiler) node(n cexpr) *cexpr {
	if c.counting {
		c.nnodes++
		return &counted
	}
	c.nodes = append(c.nodes, n)
	return &c.nodes[len(c.nodes)-1]
}

// list returns room for k nodes, cut from the slab; nil for none, and
// while counting.
func (c *compiler) list(k int) []*cexpr {
	if c.counting {
		c.nptrs += k
		return nil
	}
	if k == 0 {
		return nil
	}
	if cap(c.ptrs)-len(c.ptrs) < k {
		c.ptrs = make([]*cexpr, 0, max(k, 2*cap(c.ptrs)))
	}
	at := len(c.ptrs)
	c.ptrs = c.ptrs[:at+k]
	return c.ptrs[at : at+k : at+k]
}

// fail records err unless an earlier failure stands.
func (ec *evalCtx) fail(err error) {
	if ec.err == nil {
		ec.err = err
	}
}

// takeErr returns the recorded failure and clears it.
func (ec *evalCtx) takeErr() error {
	err := ec.err
	ec.err = nil
	return err
}

// reads appends the reads of n's column leaves to dst.
func (n *cexpr) reads(dst []int) []int {
	switch n.op {
	case opInt, opFloat, opText, opCol:
		return append(dst, n.ref)
	}
	for _, o := range [...]*cexpr{n.l, n.r, n.hi} {
		if o != nil {
			dst = o.reads(dst)
		}
	}
	for _, o := range n.list {
		dst = o.reads(dst)
	}
	return dst
}

// get evaluates the compiled expression n against ec: eval's Value, or
// its error.
func (n *cexpr) get(ec *evalCtx) (Value, error) {
	v := n.val(ec)
	if ec.err != nil {
		return Null, ec.takeErr()
	}
	return v, nil
}

// holds reports whether the compiled condition n holds against ec —
// whether eval's Value is true — or eval's error.
func (n *cexpr) holds(ec *evalCtx) (bool, error) {
	t := n.cond(ec)
	if ec.err != nil {
		return false, ec.takeErr()
	}
	return t == tTrue, nil
}

// val evaluates n as a Value.
func (n *cexpr) val(ec *evalCtx) Value {
	switch n.op {
	case opParam:
		return ec.params[n.slot]
	case opInt:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return Value{K: KindInt, I: v.ints[ec.at]}
		}
		return Null
	case opFloat:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return Value{K: KindFloat, F: v.floats[ec.at]}
		}
		return Null
	case opText:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return Value{K: KindText, S: v.strs[ec.at]}
		}
		return Null
	case opCol:
		return Null
	case opAgg:
		if ec.aggs == nil {
			ec.fail(n.err)
			return Null
		}
		return ec.aggs[n.slot]
	case opFail:
		ec.fail(n.err)
		return Null
	}
	if n.op >= opNot {
		switch n.cond(ec) {
		case tTrue:
			return Int(1)
		case tFalse:
			return Int(0)
		}
		return Null
	}
	v := n.num(ec)
	return Value{K: v.k, I: v.i, F: v.f}
}

var nullNum = num{}

// num evaluates n as a number. What eval would make a TEXT comes back
// with k KindText; an error, as NULL.
func (n *cexpr) num(ec *evalCtx) num {
	switch n.op {
	case opParam:
		v := &ec.params[n.slot]
		return num{v.I, v.F, v.K}
	case opInt:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return num{i: v.ints[ec.at], k: KindInt}
		}
		return nullNum
	case opFloat:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return num{f: v.floats[ec.at], k: KindFloat}
		}
		return nullNum
	case opText:
		if v := ec.vecs[n.ref]; v.nulls == nil || !v.nulls.has(ec.at) {
			return num{k: KindText}
		}
		return nullNum
	case opCol:
		return nullNum
	case opNeg:
		v := n.l.num(ec)
		switch v.k {
		case KindInt:
			return num{i: -v.i, k: KindInt}
		case KindFloat:
			return num{f: -v.f, k: KindFloat}
		case KindText:
			ec.fail(n.err)
		}
		return nullNum
	case opAdd, opSub, opMul, opDiv:
		l, r := n.l.num(ec), n.r.num(ec)
		if l.k == KindNull || r.k == KindNull {
			return nullNum
		}
		if l.k == KindText || r.k == KindText {
			ec.fail(n.err)
			return nullNum
		}
		if l.k == KindInt && r.k == KindInt {
			switch n.op {
			case opAdd:
				return num{i: l.i + r.i, k: KindInt}
			case opSub:
				return num{i: l.i - r.i, k: KindInt}
			case opMul:
				return num{i: l.i * r.i, k: KindInt}
			}
		}
		if l.k == KindInt {
			l.f = float64(l.i)
		}
		if r.k == KindInt {
			r.f = float64(r.i)
		}
		switch n.op {
		case opAdd:
			return num{f: l.f + r.f, k: KindFloat}
		case opSub:
			return num{f: l.f - r.f, k: KindFloat}
		case opMul:
			return num{f: l.f * r.f, k: KindFloat}
		}
		if r.f == 0 {
			return nullNum
		}
		return num{f: l.f / r.f, k: KindFloat}
	}
	if n.op >= opNot {
		switch n.cond(ec) {
		case tTrue:
			return num{i: 1, k: KindInt}
		case tFalse:
			return num{k: KindInt}
		}
		return nullNum
	}
	v := n.val(ec)
	return num{v.I, v.F, v.K}
}

// order is Compare for two values num read, both not NULL; false when
// both are TEXT, which their strings order.
func order(a, b num) (int, bool) {
	switch {
	case a.k == KindInt && b.k == KindInt:
		return cmp.Compare(a.i, b.i), true
	case a.k == KindFloat && b.k == KindFloat:
		return cmp.Compare(a.f, b.f), true
	case a.k == KindInt && b.k == KindFloat:
		return compareIntFloat(a.i, b.f), true
	case a.k == KindFloat && b.k == KindInt:
		return -compareIntFloat(b.i, a.f), true
	case a.k == KindText && b.k == KindText:
		return 0, false
	}
	return cmp.Compare(kindRank[a.k], kindRank[b.k]), true
}

// compare is Compare(a, b) for a comparison's operands read as numbers,
// reading them again as Values when two texts meet. Only a leaf yields a
// text, and reading a leaf twice reads the same.
func compare(ec *evalCtx, a, b *cexpr, av, bv num) int {
	if c, ok := order(av, bv); ok {
		return c
	}
	return Compare(a.val(ec), b.val(ec))
}

// cond evaluates n as a condition.
func (n *cexpr) cond(ec *evalCtx) tri {
	switch n.op {
	case opNot:
		switch n.l.cond(ec) {
		case tTrue:
			return tFalse
		case tFalse:
			return tTrue
		}
		return tNull
	case opAnd:
		l := n.l.cond(ec)
		if l == tFalse {
			return tFalse
		}
		return truth(n.r.cond(ec) == tTrue && l == tTrue)
	case opOr:
		l := n.l.cond(ec)
		if l == tTrue {
			return tTrue
		}
		return truth(n.r.cond(ec) == tTrue)
	case opCmp:
		var c int
		if n.text {
			l, r := n.l.val(ec), n.r.val(ec)
			if l.K == KindNull || r.K == KindNull {
				return tNull
			}
			c = Compare(l, r)
		} else {
			l, r := n.l.num(ec), n.r.num(ec)
			if l.k == KindNull || r.k == KindNull {
				return tNull
			}
			c = compare(ec, n.l, n.r, l, r)
		}
		return tri(n.mask >> uint(c+1) & 1)
	case opLike:
		l, r := n.l.val(ec), n.r.val(ec)
		if l.K != KindText || r.K != KindText {
			return tNull
		}
		return truth(likeMatch(l.S, r.S))
	case opBetween:
		var in bool
		if n.text {
			v, lo, hi := n.l.val(ec), n.r.val(ec), n.hi.val(ec)
			if v.K == KindNull || lo.K == KindNull || hi.K == KindNull {
				return tNull
			}
			in = Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		} else {
			v, lo, hi := n.l.num(ec), n.r.num(ec), n.hi.num(ec)
			if v.k == KindNull || lo.k == KindNull || hi.k == KindNull {
				return tNull
			}
			in = compare(ec, n.l, n.r, v, lo) >= 0 && compare(ec, n.l, n.hi, v, hi) <= 0
		}
		return truth(in != n.negate)
	case opIn:
		v := n.l.val(ec)
		if v.K == KindNull {
			return tNull
		}
		found := false
		for _, le := range n.list {
			// A param, the usual element, is compared where it is.
			var lv *Value
			if le.op == opParam {
				lv = &ec.params[le.slot]
			} else {
				val := le.val(ec)
				lv = &val
			}
			if lv.K != KindNull && Compare(v, *lv) == 0 {
				found = true
				break
			}
		}
		return truth(found != n.negate)
	case opIsNull:
		return truth((n.l.num(ec).k == KindNull) != n.negate)
	}
	v := n.num(ec)
	switch v.k {
	case KindNull:
		return tNull
	case KindInt:
		return truth(v.i != 0)
	case KindFloat:
		return truth(v.f != 0)
	}
	return tFalse
}
