package sqlmini

//qcpa:deterministic — plan choice feeds replicated execution; the same
// statement and statistics must yield a bit-identical plan on every
// replica, run, and worker count.

// This file is the sqlmini query planner (DESIGN.md §13):
//
//   - Normalized-statement plan cache. A deterministic AST walk renders
//     every SELECT to a canonical shape string with literals replaced by
//     "?" (the same normalization the cluster's query journal applies to
//     SQL text) and extracts the literal values as parameters. The cache
//     maps shape -> fully bound plan, so repeated query classes skip
//     parsing's downstream work entirely: binder resolution, conjunct
//     analysis, join ordering, and output binding all happen once per
//     class. A cached plan is valid for a view, not for a generation: it
//     names the tables (by *Table identity) and the index sets it was
//     bound to, and its own lookup drops it when the current view no
//     longer carries them (DROP+CREATE, a restore, CREATE INDEX) or a
//     row count has drifted 4x. Nothing flushes the cache; plans on
//     tables a migration did not touch survive it. A pinned view that
//     does not match gets an uncached transient plan.
//
//   - Cost-based join ordering. Joins of up to maxDPTables tables get an
//     exact dynamic program over subsets (left-deep, bitmask-indexed
//     slices — no map iteration anywhere near the choice); larger graphs
//     fall back to a greedy nearest-neighbor order. Neither takes a
//     table no equi key connects to the prefix while a connected one
//     remains. The model prices what runs (joinGraph.step): a scan costs
//     the rows it reads, a hash join build + probe + output, an index
//     step prefix x (1 + bucket) and no scan, a keyless step every pair.
//     Cardinalities come from the per-view statistics in tablestats.go:
//     scan output after pushdown, equi selectivity 1/max(ndv_l, ndv_r),
//     once per pair of tables however many keys link them.
//
//   - Access paths. WHERE and ON are split into conjuncts at plan time.
//     A conjunct on one table runs at that table's scan, or picks its
//     access (pk probe, secondary-index probe); an equality linking two
//     tables becomes a join key; everything else runs at the first step
//     where all its tables are present. A join step reaches the table it
//     adds in one of two ways, chosen per run by one rule
//     (joinNode.probeBelow): when a key lands on the table's pk or on a
//     secondary index and the prefix holds fewer tuples than that column
//     has distinct values, it probes the index per prefix tuple and never
//     scans the table; otherwise it scans (filtering) and hash-joins.
//     selectPlan.describe prints the choice.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxDPTables is the largest join graph planned by exact DP; beyond it
// the greedy order kicks in. 10 tables = 1023 subsets of at most 10
// transitions each: microseconds, once per cached plan. (At 6, TPC-H q8
// — 7 tables — fell to the greedy order.)
const maxDPTables = 10

// planCacheCap bounds the plan cache. When full, the least-frequently
// used eighth is evicted (ties broken in sorted key order), matching the
// cluster journal's eviction policy.
const planCacheCap = 512

// planDriftFactor is the row-count ratio past which a cached plan's
// join order is considered stale and the plan is rebuilt.
const planDriftFactor = 4

// planDriftMinRows exempts small tables from drift checks: join order
// barely matters under this size and tiny tables cross any ratio with a
// handful of inserts.
const planDriftMinRows = 64

// boundParam is a literal extracted by statement normalization: the
// idx-th "?" of the canonical shape. Execution supplies the actual
// values through evalCtx.params, so one cached plan serves every
// literal binding of its query class.
type boundParam struct{ idx int }

func (*boundParam) isExpr() {}

// ---------------------------------------------------------------------
// Statement normalization
// ---------------------------------------------------------------------

// canonizer renders a SELECT to its canonical shape, collecting literal
// values in order. With build set it additionally produces a
// parameterized copy of each expression (literals replaced by
// boundParam) for the plan builder to bind.
type canonizer struct {
	sb     strings.Builder
	params []Value
	build  bool
}

func (c *canonizer) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		c.sb.WriteByte('_')
		return nil
	case *Lit:
		c.sb.WriteByte('?')
		idx := len(c.params)
		c.params = append(c.params, x.V)
		if c.build {
			return &boundParam{idx: idx}
		}
		return x
	case *boundParam:
		c.sb.WriteByte('?')
		c.params = append(c.params, Null)
		return x
	case *ColRef:
		c.sb.WriteString("c<")
		c.sb.WriteString(x.Table)
		c.sb.WriteByte('.')
		c.sb.WriteString(x.Column)
		c.sb.WriteByte('>')
		return x
	case *BinOp:
		c.sb.WriteByte('(')
		c.sb.WriteString(x.Op)
		c.sb.WriteByte(' ')
		l := c.expr(x.L)
		c.sb.WriteByte(' ')
		r := c.expr(x.R)
		c.sb.WriteByte(')')
		if c.build {
			return &BinOp{Op: x.Op, L: l, R: r}
		}
		return x
	case *UnOp:
		c.sb.WriteString("(u")
		c.sb.WriteString(x.Op)
		c.sb.WriteByte(' ')
		inner := c.expr(x.E)
		c.sb.WriteByte(')')
		if c.build {
			return &UnOp{Op: x.Op, E: inner}
		}
		return x
	case *Between:
		c.sb.WriteString("(bt")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		c.sb.WriteByte(' ')
		lo := c.expr(x.Lo)
		c.sb.WriteByte(' ')
		hi := c.expr(x.Hi)
		c.sb.WriteByte(')')
		if c.build {
			return &Between{E: ee, Lo: lo, Hi: hi, Negate: x.Negate}
		}
		return x
	case *InList:
		c.sb.WriteString("(in")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			c.sb.WriteByte(' ')
			list[i] = c.expr(le)
		}
		c.sb.WriteByte(')')
		if c.build {
			return &InList{E: ee, List: list, Negate: x.Negate}
		}
		return x
	case *IsNull:
		c.sb.WriteString("(nul")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		c.sb.WriteByte(')')
		if c.build {
			return &IsNull{E: ee, Negate: x.Negate}
		}
		return x
	case *Agg:
		c.sb.WriteString("(agg:")
		c.sb.WriteString(x.Func)
		if x.Distinct {
			c.sb.WriteString(":d")
		}
		c.sb.WriteByte(' ')
		var ee Expr
		if x.E == nil {
			c.sb.WriteByte('*')
		} else {
			ee = c.expr(x.E)
		}
		c.sb.WriteByte(')')
		if c.build {
			return &Agg{Func: x.Func, E: ee, Distinct: x.Distinct}
		}
		return x
	}
	// Unknown node kinds make the statement unplannable through the
	// cache; binding will reject them with a precise error.
	c.sb.WriteString("!?")
	return e
}

// canonSelect renders the canonical shape of st, extracts its literal
// parameters, and (when build is set) returns a parameterized copy.
func canonSelect(st *SelectStmt, build bool) (string, []Value, *SelectStmt) {
	c := &canonizer{build: build}
	var out *SelectStmt
	if build {
		out = &SelectStmt{
			Distinct: st.Distinct,
			Table:    st.Table,
			Alias:    st.Alias,
			Limit:    st.Limit,
		}
	}
	c.sb.WriteByte('S')
	if st.Distinct {
		c.sb.WriteByte('D')
	}
	for _, it := range st.Items {
		c.sb.WriteString("|i:")
		if it.Star {
			c.sb.WriteByte('*')
			if build {
				out.Items = append(out.Items, SelectItem{Star: true})
			}
			continue
		}
		ex := c.expr(it.Expr)
		if it.Alias != "" {
			c.sb.WriteString(":a<")
			c.sb.WriteString(it.Alias)
			c.sb.WriteByte('>')
		}
		if build {
			out.Items = append(out.Items, SelectItem{Expr: ex, Alias: it.Alias})
		}
	}
	c.sb.WriteString("|f:")
	c.sb.WriteString(st.Table)
	c.sb.WriteString(":a<")
	c.sb.WriteString(st.Alias)
	c.sb.WriteByte('>')
	for _, j := range st.Joins {
		c.sb.WriteString("|j:")
		c.sb.WriteString(j.Table)
		c.sb.WriteString(":a<")
		c.sb.WriteString(j.Alias)
		c.sb.WriteString(">:")
		on := c.expr(j.On)
		if build {
			out.Joins = append(out.Joins, JoinClause{Table: j.Table, Alias: j.Alias, On: on})
		}
	}
	if st.Where != nil {
		c.sb.WriteString("|w:")
		w := c.expr(st.Where)
		if build {
			out.Where = w
		}
	}
	for _, g := range st.GroupBy {
		c.sb.WriteString("|g:")
		bg := c.expr(g)
		if build {
			out.GroupBy = append(out.GroupBy, bg)
		}
	}
	if st.Having != nil {
		c.sb.WriteString("|h:")
		h := c.expr(st.Having)
		if build {
			out.Having = h
		}
	}
	for _, ob := range st.OrderBy {
		c.sb.WriteString("|o:")
		oe := c.expr(ob.Expr)
		if ob.Desc {
			c.sb.WriteString(":d")
		}
		if build {
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: oe, Desc: ob.Desc})
		}
	}
	if st.Limit >= 0 {
		c.sb.WriteString("|l:")
		c.sb.WriteString(strconv.Itoa(st.Limit))
	}
	return c.sb.String(), c.params, out
}

// ---------------------------------------------------------------------
// Conjunct analysis
// ---------------------------------------------------------------------

// predKind classifies a single-table conjunct for selectivity
// estimation.
type predKind uint8

const (
	predOther predKind = iota
	predEqConst
	predRange
	predBetween
	predIn
	predLike
	predIsNull
)

// conjunct is one AND-term of WHERE/ON, annotated with the (textual)
// tables it references and the patterns the planner exploits.
type conjunct struct {
	expr Expr   // parameterized, unbound
	mask uint64 // bitmask of textual table indices referenced

	// Equi-join shape: tblL.colL = tblR.colR across two tables.
	isEquiJoin       bool
	eqLTable, eqLCol int
	eqRTable, eqRCol int

	// Single-table constant shape and selectivity class.
	kind     predKind
	constCol int  // column (within its table) for predEqConst
	constVal Expr // Lit/boundParam for predEqConst
	inLen    int
}

// splitConjuncts flattens top-level ANDs. Splitting is semantics
// preserving under eval's three-valued logic: a row passes "a AND b"
// exactly when both conjuncts evaluate truthy (NULL counts as false in
// both forms).
func splitConjuncts(e Expr, out *[]Expr) {
	if e == nil {
		return
	}
	if bo, ok := e.(*BinOp); ok && bo.Op == "AND" {
		splitConjuncts(bo.L, out)
		splitConjuncts(bo.R, out)
		return
	}
	*out = append(*out, e)
}

// collectColRefs gathers every column reference of an expression.
func collectColRefs(e Expr, out *[]*ColRef) {
	switch x := e.(type) {
	case *ColRef:
		*out = append(*out, x)
	case *UnOp:
		collectColRefs(x.E, out)
	case *BinOp:
		collectColRefs(x.L, out)
		collectColRefs(x.R, out)
	case *Between:
		collectColRefs(x.E, out)
		collectColRefs(x.Lo, out)
		collectColRefs(x.Hi, out)
	case *InList:
		collectColRefs(x.E, out)
		for _, le := range x.List {
			collectColRefs(le, out)
		}
	case *IsNull:
		collectColRefs(x.E, out)
	case *Agg:
		collectColRefs(x.E, out)
	}
}

// isConstExpr reports whether e evaluates without a row (literal or
// extracted parameter).
func isConstExpr(e Expr) bool {
	switch e.(type) {
	case *Lit, *boundParam:
		return true
	}
	return false
}

// classifyConjunct resolves a conjunct's column references against the
// textual binder and annotates the planner-relevant shapes.
func classifyConjunct(e Expr, tb *binder) (conjunct, error) {
	c := conjunct{expr: e}
	var refs []*ColRef
	collectColRefs(e, &refs)
	for _, r := range refs {
		table, _, err := tb.resolve(r)
		if err != nil {
			return c, err
		}
		c.mask |= 1 << uint(table)
	}
	nTables := bits.OnesCount64(c.mask)

	// Every reference resolved above, so the lookups below cannot fail.
	switch x := e.(type) {
	case *BinOp:
		switch x.Op {
		case "=":
			lc, lok := x.L.(*ColRef)
			rc, rok := x.R.(*ColRef)
			if lok && rok && nTables == 2 {
				lt, lcol, _ := tb.resolve(lc)
				rt, rcol, _ := tb.resolve(rc)
				if lt != rt {
					c.isEquiJoin = true
					c.eqLTable, c.eqLCol = lt, lcol
					c.eqRTable, c.eqRCol = rt, rcol
				}
				return c, nil
			}
			if nTables == 1 {
				if lok && isConstExpr(x.R) {
					_, col, _ := tb.resolve(lc)
					c.kind, c.constCol, c.constVal = predEqConst, col, x.R
				} else if rok && isConstExpr(x.L) {
					_, col, _ := tb.resolve(rc)
					c.kind, c.constCol, c.constVal = predEqConst, col, x.L
				}
			}
		case "<", "<=", ">", ">=":
			if nTables == 1 {
				c.kind = predRange
			}
		case "LIKE":
			if nTables == 1 {
				c.kind = predLike
			}
		}
	case *Between:
		if nTables == 1 {
			c.kind = predBetween
		}
	case *InList:
		if nTables == 1 {
			c.kind = predIn
			c.inLen = len(x.List)
		}
	case *IsNull:
		if nTables == 1 {
			c.kind = predIsNull
		}
	}
	return c, nil
}

// conjunctSelectivity estimates the fraction of a table's rows passing
// a single-table conjunct. The constants are coarse on purpose: the
// planner only needs relative magnitudes good enough to order joins.
func conjunctSelectivity(c conjunct, tv *tableView) float64 {
	n := float64(tv.rows.len())
	if n < 1 {
		n = 1
	}
	switch c.kind {
	case predEqConst:
		return 1 / tv.ndvEstimate(c.constCol)
	case predRange:
		return 0.30
	case predBetween:
		return 0.25
	case predIn:
		sel := float64(c.inLen) / n
		if sel > 1 {
			sel = 1
		}
		if sel < 1/n {
			sel = 1 / n
		}
		return sel
	case predLike:
		return 0.25
	case predIsNull:
		return 0.10
	default:
		return 0.33
	}
}

// ---------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------

// equiEdge is the equi-join relationship between two tables as a
// weighted edge of the join graph. However many keys link the pair — a
// composite foreign key is one relationship, and multiplying its keys'
// selectivities underestimates its output by orders of magnitude — the
// edge carries the most selective key's selectivity, and for each side
// the smallest bucket a key reaches that side through.
type equiEdge struct {
	a, b int // textual table indices, a < b
	sel  float64
	// bucketA (bucketB) is how many rows of a (b) one key value finds
	// through a's (b's) primary key or a secondary index: what a join
	// step adding that table by probing reads per prefix tuple. 0 when
	// no key of the edge lands on either.
	bucketA, bucketB float64
}

// joinGraph is what the join order is chosen from, per textual table.
type joinGraph struct {
	rows  []float64 // rows in the table
	read  []float64 // rows its own access path reads: all of them, one pk row, one index bucket
	cards []float64 // rows its scan hands on, after the pushed-down filters
	edges []equiEdge
}

// link records one equi key between tables a and b.
func (g *joinGraph) link(a, b int, sel, bucketA, bucketB float64) {
	if a > b {
		a, b, bucketA, bucketB = b, a, bucketB, bucketA
	}
	tighter := func(old, bucket float64) float64 {
		if bucket > 0 && (old == 0 || bucket < old) {
			return bucket
		}
		return old
	}
	for i := range g.edges {
		if e := &g.edges[i]; e.a == a && e.b == b {
			e.sel = min(e.sel, sel)
			e.bucketA, e.bucketB = tighter(e.bucketA, bucketA), tighter(e.bucketB, bucketB)
			return
		}
	}
	g.edges = append(g.edges, equiEdge{a: a, b: b, sel: sel, bucketA: bucketA, bucketB: bucketB})
}

// joinStep is the model's account of one join step: what it costs and
// how many tuples it hands on.
type joinStep struct{ cost, out float64 }

// step models joining table next to an accumulated prefix of leftCard
// tuples over the placed tables, as the executor will run it:
//
//   - no key: nested loop — the scan, then every pair;
//   - a key that lands on next's pk or an index, and a prefix that
//     reads less of the table through it than a scan would (the rule of
//     joinNode.probeBelow): prefix x (1 + bucket) probes and candidates,
//     and no scan;
//   - otherwise hash join: the scan, then build + probe.
//
// Each adds the tuples it emits.
func (g *joinGraph) step(leftCard float64, placed uint64, next int) joinStep {
	keyed := false
	sel, bucket := 1.0, 0.0
	for _, e := range g.edges {
		var b float64
		switch {
		case e.a == next && placed&(1<<uint(e.b)) != 0:
			b = e.bucketA
		case e.b == next && placed&(1<<uint(e.a)) != 0:
			b = e.bucketB
		default:
			continue
		}
		keyed = true
		sel *= e.sel
		if b > 0 && (bucket == 0 || b < bucket) {
			bucket = b
		}
	}
	out := leftCard * g.cards[next] * sel
	switch {
	case !keyed:
		return joinStep{g.read[next] + leftCard*g.cards[next] + out, out}
	case bucket > 0 && leftCard*bucket < g.rows[next]:
		return joinStep{leftCard*(1+bucket) + out, out}
	default:
		return joinStep{g.read[next] + leftCard + g.cards[next] + out, out}
	}
}

// connected returns the unplaced tables an equi key links to a placed
// one. While there is one, neither ordering takes a table outside this
// set: a keyless step multiplies the prefix by a whole table.
func (g *joinGraph) connected(placed uint64) uint64 {
	var out uint64
	for _, e := range g.edges {
		a, b := uint64(1)<<uint(e.a), uint64(1)<<uint(e.b)
		if placed&a != 0 {
			out |= b
		}
		if placed&b != 0 {
			out |= a
		}
	}
	return out &^ placed
}

// chooseJoinOrder picks the join order for the graph's tables. Exact
// left-deep DP up to maxDPTables, greedy beyond. The result is a
// permutation of 0..n-1 and a pure function of the graph:
// bitmask-indexed slices and ascending iteration keep it bit-identical
// across runs.
func (g *joinGraph) chooseJoinOrder() []int {
	n := len(g.cards)
	if n <= 1 {
		return []int{0}
	}
	if n <= maxDPTables {
		return g.dpJoinOrder()
	}
	return g.greedyJoinOrder()
}

func (g *joinGraph) dpJoinOrder() []int {
	n := len(g.cards)
	full := uint64(1)<<uint(n) - 1
	type dpEnt struct {
		cost, card float64
		last       int
		prev       uint64
		ok         bool
	}
	dp := make([]dpEnt, full+1)
	for i := 0; i < n; i++ {
		m := uint64(1) << uint(i)
		dp[m] = dpEnt{cost: g.read[i], card: g.cards[i], last: i, prev: 0, ok: true}
	}
	for mask := uint64(1); mask <= full; mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		best := dpEnt{}
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if mask&bit == 0 {
				continue
			}
			prev := mask &^ bit
			pe := dp[prev]
			if !pe.ok {
				continue // prev is reachable only through a keyless step
			}
			if conn := g.connected(prev); conn != 0 && conn&bit == 0 {
				continue
			}
			st := g.step(pe.card, prev, j)
			total := pe.cost + st.cost
			if !best.ok || total < best.cost {
				best = dpEnt{cost: total, card: st.out, last: j, prev: prev, ok: true}
			}
		}
		dp[mask] = best
	}
	order := make([]int, 0, n)
	for mask := full; mask != 0; {
		e := dp[mask]
		order = append(order, e.last)
		mask = e.prev
	}
	slices.Reverse(order) // backtracking produced last-to-first
	return order
}

func (g *joinGraph) greedyJoinOrder() []int {
	n := len(g.cards)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if g.cards[i] < g.cards[start] {
			start = i
		}
	}
	order = append(order, start)
	placed := uint64(1) << uint(start)
	curCard := g.cards[start]
	for len(order) < n {
		conn := g.connected(placed)
		best := -1
		var bestStep joinStep
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if placed&bit != 0 || (conn != 0 && conn&bit == 0) {
				continue
			}
			if st := g.step(curCard, placed, j); best < 0 || st.cost < bestStep.cost {
				best, bestStep = j, st
			}
		}
		order = append(order, best)
		placed |= 1 << uint(best)
		curCard = bestStep.out
	}
	return order
}

// ---------------------------------------------------------------------
// Plan structure
// ---------------------------------------------------------------------

type accessKind uint8

const (
	accessFull accessKind = iota
	accessPkEq
	accessIdxEq
)

// scanNode is one base-table access in physical (join) order.
type scanNode struct {
	table string
	alias string
	t     *Table // schema identity captured at plan time
	// indexes is how many secondary indexes the table's view carried at
	// plan time. A table's index set only grows, so an equal count means
	// the same set: the plan chose among exactly the access paths a view
	// of t with this count offers.
	indexes int

	access  accessKind
	keyCol  int  // probed column (pk or indexed) for accessPkEq/IdxEq
	keyExpr Expr // const expr supplying the probe value

	filter []Expr // pushed-down conjuncts; they read only this scan's row

	planRows int     // view row count at plan time, for drift detection
	estRows  float64 // tuples the model expects after this step
}

// colPos names a column of a tuple: column col of scan's row.
type colPos struct{ scan, col int }

// joinNode joins scans[i+1] to the tuples over scans[0..i].
type joinNode struct {
	leftKeys  []colPos // key columns within the prefix tuple
	rightKeys []int    // key columns within the joined table's row
	extra     []Expr   // residual conjuncts over prefix and joined table

	// probe is the key pair whose right column is the joined table's
	// primary key or carries a secondary index — the one with the
	// smallest bucket — or -1. probeBelow is that column's distinct
	// count at plan time. The one rule that picks the step's access: a
	// run whose prefix holds fewer than probeBelow tuples probes the
	// index once per tuple and never scans the table; any other run
	// scans it and hash-joins. Below that size the probes read less of
	// the table than the scan would (prefix x bucket < rows); from it on
	// they read all of it, through the index, in prefix order.
	probe      int
	probeBelow int
}

// orderSpec is one pre-resolved ORDER BY item.
type orderSpec struct {
	outIdx int  // >= 0: sort by that output column
	expr   Expr // else: bound expression over the input tuple
	desc   bool
}

// selectPlan is a fully bound, immutable, concurrently executable plan
// for one normalized SELECT class.
type selectPlan struct {
	tables int

	consts []Expr // conjuncts referencing no columns
	scans  []scanNode
	joins  []joinNode

	outExprs []Expr
	outNames []string
	aggs     []*Agg
	groupBy  []Expr
	having   Expr
	distinct bool
	orderBy  []orderSpec
	limit    int

	reordered bool // join order differs from textual order
}

// schemaMatches reports whether the plan was made for v: every scanned
// table must exist with the same schema identity (the *Table pointer is
// stable for a table's lifetime; DROP+CREATE and restores produce a new
// one) and the index set the plan chose its access paths from.
func (p *selectPlan) schemaMatches(v *readView) bool {
	for i := range p.scans {
		s := &p.scans[i]
		tv, ok := v.tables[s.table]
		if !ok || tv.t != s.t || len(tv.indexes) != s.indexes {
			return false
		}
	}
	return true
}

// describe renders the plan one line per step, in join order: the
// table, how the step reaches it, the conjuncts pushed down to it, and
// the tuples the model expects the step to hand on. The access is
//
//	full             scan of every row (first step)
//	pk=              primary-key probe by a constant
//	index(col)=      secondary-index probe by a constant
//	probe pk         join step: pk probe per prefix tuple, no scan
//	probe index(col) join step: index probe per prefix tuple, no scan
//	hash             join step: scan, then hash join on the equi keys
//	cross            join step: scan, then every pair (no equi key)
//
// A join step that can probe is shown as a run with the model's prefix
// would execute it; the bound follows in parentheses either way, since
// each run applies it to its own prefix.
func (p *selectPlan) describe() string {
	var sb strings.Builder
	for i := range p.scans {
		s := &p.scans[i]
		access := "full"
		switch s.access {
		case accessPkEq:
			access = "pk="
		case accessIdxEq:
			access = "index(" + s.t.Cols[s.keyCol].Name + ")="
		}
		if i > 0 {
			j := &p.joins[i-1]
			switch {
			case j.probe >= 0:
				via := "pk"
				if col := j.rightKeys[j.probe]; col != s.t.pkCol {
					via = "index(" + s.t.Cols[col].Name + ")"
				}
				if p.scans[i-1].estRows < float64(j.probeBelow) {
					access = fmt.Sprintf("probe %s (prefix < %d)", via, j.probeBelow)
				} else {
					access = fmt.Sprintf("hash (prefix >= %d of %s)", j.probeBelow, via)
				}
			case len(j.leftKeys) == 0:
				access = "cross"
			case s.access == accessFull:
				access = "hash"
			}
		}
		filters := make([]string, len(s.filter))
		for k, f := range s.filter {
			filters[k] = exprString(f)
		}
		name := s.table
		if s.alias != s.table {
			name += " " + s.alias
		}
		fmt.Fprintf(&sb, "%s: %s [%s] ~%.4g\n", name, access, strings.Join(filters, " AND "), s.estRows)
	}
	return sb.String()
}

// exprString renders a bound, parameterized expression for describe.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *Lit:
		if x.V.K == KindText {
			return "'" + x.V.S + "'"
		}
		return x.V.String()
	case *boundParam:
		return "?"
	case *boundCol:
		return x.name
	case *UnOp:
		return x.Op + " " + exprString(x.E)
	case *BinOp:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case *Between:
		return exprString(x.E) + negated(x.Negate) + " BETWEEN " + exprString(x.Lo) + " AND " + exprString(x.Hi)
	case *InList:
		items := make([]string, len(x.List))
		for i, le := range x.List {
			items[i] = exprString(le)
		}
		return exprString(x.E) + negated(x.Negate) + " IN (" + strings.Join(items, ", ") + ")"
	case *IsNull:
		return exprString(x.E) + " IS" + negated(x.Negate) + " NULL"
	}
	return fmt.Sprintf("%T", e)
}

func negated(not bool) string {
	if not {
		return " NOT"
	}
	return ""
}

// drifted reports whether any scanned table's row count moved more than
// planDriftFactor from plan time, invalidating the join order.
func (p *selectPlan) drifted(v *readView) bool {
	if p.tables < 2 {
		return false // no join order to get wrong
	}
	for i := range p.scans {
		tv, ok := v.tables[p.scans[i].table]
		if !ok {
			return true
		}
		cur, old := tv.rows.len(), p.scans[i].planRows
		if cur < planDriftMinRows && old < planDriftMinRows {
			continue
		}
		if cur > old*planDriftFactor || old > cur*planDriftFactor {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

type planEntry struct {
	plan *selectPlan
	uses atomic.Int64
}

// planCache maps canonical statement shape -> bound plan, with LFU
// eviction; an entry the current view no longer matches is dropped by
// the lookup that finds it. The hit path takes only
// the read lock plus atomic counter bumps — concurrent snapshot reads
// must not serialize on the planner (the whole point of PR 6's
// lock-free read epochs). mu (write) guards the map itself; the
// counters are atomics surfacing through Engine.PlannerStats.
type planCache struct {
	mu      sync.RWMutex
	entries map[string]*planEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	joinPlans     atomic.Int64
	reordered     atomic.Int64
}

// lookup returns the cached plan for key if it is valid for view v.
// current marks v as the engine's latest view: only then is an entry
// that does not match dropped (a pinned historical view must not evict
// plans that are fine for the present).
func (c *planCache) lookup(key string, v *readView, current bool) *selectPlan {
	c.mu.RLock()
	en := c.entries[key]
	c.mu.RUnlock()
	if en == nil {
		c.misses.Add(1)
		return nil
	}
	p := en.plan
	if p.schemaMatches(v) && !p.drifted(v) {
		en.uses.Add(1)
		c.hits.Add(1)
		return p
	}
	if current {
		c.mu.Lock()
		if c.entries[key] == en { // keep a racing replacement
			delete(c.entries, key)
			c.invalidations.Add(1)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return nil
}

// store caches a freshly built plan, evicting the least-frequently-used
// eighth when full. A plan built against a view that a racing publish
// has since replaced is dropped by the next lookup's match, so no
// re-check is needed here.
func (c *planCache) store(key string, p *selectPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*planEntry)
	}
	if _, exists := c.entries[key]; !exists && len(c.entries) >= planCacheCap {
		type keyUses struct {
			k string
			u int64
		}
		all := make([]keyUses, 0, len(c.entries))
		for k, en := range c.entries {
			all = append(all, keyUses{k, en.uses.Load()})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].u != all[j].u {
				return all[i].u < all[j].u
			}
			return all[i].k < all[j].k
		})
		drop := planCacheCap / 8
		if drop < 1 {
			drop = 1
		}
		for i := 0; i < drop && i < len(all); i++ {
			delete(c.entries, all[i].k)
			c.evictions.Add(1)
		}
	}
	c.entries[key] = &planEntry{plan: p}
}

// notePlan records planning telemetry for one built plan (cached or
// transient).
func (c *planCache) notePlan(p *selectPlan) {
	if p.tables < 2 {
		return
	}
	c.joinPlans.Add(1)
	if p.reordered {
		c.reordered.Add(1)
	}
}

// PlannerStats is a snapshot of the engine's planner counters.
type PlannerStats struct {
	Hits          int64 // plan-cache hits
	Misses        int64 // plan-cache misses (plan built)
	Invalidations int64 // entries dropped because the current view no longer matched
	Evictions     int64 // LFU evictions
	Entries       int64 // current cached plans
	JoinPlans     int64 // plans built covering >= 2 tables
	Reordered     int64 // join plans whose order differs from the SQL text
}

// PlannerStats returns the engine's planner counters.
func (e *Engine) PlannerStats() PlannerStats {
	c := &e.plans
	c.mu.RLock()
	entries := int64(len(c.entries))
	c.mu.RUnlock()
	return PlannerStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		JoinPlans:     c.joinPlans.Load(),
		Reordered:     c.reordered.Load(),
	}
}

// ---------------------------------------------------------------------
// Plan building
// ---------------------------------------------------------------------

// planFor returns a plan for st valid against v, consulting the cache.
// Plans built against the engine's current view are cached; plans built
// against a pinned historical view (or racing a concurrent publish) are
// transient.
func (e *Engine) planFor(st *SelectStmt, v *readView) (*selectPlan, []Value, error) {
	key, params, _ := canonSelect(st, false)
	current := v == e.view.Load()
	if p := e.plans.lookup(key, v, current); p != nil {
		return p, params, nil
	}
	p, err := e.buildPlan(st, v)
	if err != nil {
		return nil, nil, err
	}
	e.plans.notePlan(p)
	if current {
		e.plans.store(key, p)
	}
	return p, params, nil
}

// Explain returns the plan a SELECT gets against the engine's current
// view, one line per step (selectPlan.describe): join order, access per
// step, pushed-down filters, estimated rows. It is exported only because
// internal/cluster's tests assert a copied replica's access path from
// outside this package; there is no SQL statement for it. The plan is
// built afresh and thrown away: inspecting a statement neither reads nor
// changes the plan cache or its counters.
func (e *Engine) Explain(sql string) (string, error) {
	st, err := Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqlmini: Explain requires SELECT, got %T", st)
	}
	p, err := e.buildPlan(sel, e.loadView())
	if err != nil {
		return "", err
	}
	return p.describe(), nil
}

// buildPlan compiles one SELECT against a view: normalization, conjunct
// analysis, access-path selection, join ordering, and output binding.
func (e *Engine) buildPlan(st *SelectStmt, v *readView) (*selectPlan, error) {
	_, _, pst := canonSelect(st, true)

	// Textual table list.
	type tableRef struct {
		name, alias string
		tv          *tableView
	}
	refs := make([]tableRef, 0, 1+len(pst.Joins))
	addRef := func(name, alias string) error {
		tv, ok := v.tables[name]
		if !ok {
			return unknownTableError(name)
		}
		if alias == "" {
			alias = name
		}
		refs = append(refs, tableRef{name, alias, tv})
		return nil
	}
	if err := addRef(pst.Table, pst.Alias); err != nil {
		return nil, err
	}
	for _, j := range pst.Joins {
		if err := addRef(j.Table, j.Alias); err != nil {
			return nil, err
		}
	}
	n := len(refs)
	if n > 64 {
		return nil, fmt.Errorf("sqlmini: too many joined tables (%d)", n)
	}

	// Textual binder for conjunct classification.
	tb := &binder{}
	for _, r := range refs {
		tb.addTable(r.alias, r.tv.t)
	}

	// Split and classify conjuncts from WHERE and every ON.
	var conjExprs []Expr
	splitConjuncts(pst.Where, &conjExprs)
	for _, j := range pst.Joins {
		splitConjuncts(j.On, &conjExprs)
	}
	var consts []Expr
	perTable := make([][]conjunct, n)
	var joinConjs []conjunct
	for _, ce := range conjExprs {
		c, err := classifyConjunct(ce, tb)
		if err != nil {
			return nil, err
		}
		switch bits.OnesCount64(c.mask) {
		case 0:
			consts = append(consts, c.expr)
		case 1:
			ti := bits.TrailingZeros64(c.mask)
			perTable[ti] = append(perTable[ti], c)
		default:
			joinConjs = append(joinConjs, c)
		}
	}

	// Access path, rows read and post-pushdown cardinality per textual
	// table.
	type accessChoice struct {
		kind    accessKind
		keyCol  int
		keyExpr Expr
		rest    []conjunct
	}
	access := make([]accessChoice, n)
	g := &joinGraph{rows: make([]float64, n), read: make([]float64, n), cards: make([]float64, n)}
	for i, r := range refs {
		t := r.tv.t
		choice := accessChoice{kind: accessFull}
		consumed := -1
		// Prefer a primary-key probe, then a secondary-index probe.
		for ci, cj := range perTable[i] {
			if cj.kind == predEqConst && t.pkCol >= 0 && cj.constCol == t.pkCol {
				choice = accessChoice{kind: accessPkEq, keyCol: t.pkCol, keyExpr: cj.constVal}
				consumed = ci
				break
			}
		}
		if consumed < 0 {
			for ci, cj := range perTable[i] {
				if cj.kind == predEqConst && r.tv.index(cj.constCol) != nil {
					choice = accessChoice{kind: accessIdxEq, keyCol: cj.constCol, keyExpr: cj.constVal}
					consumed = ci
					break
				}
			}
		}
		rows := max(float64(r.tv.rows.len()), 1)
		card := rows
		for ci, cj := range perTable[i] {
			card *= conjunctSelectivity(cj, r.tv)
			if ci != consumed {
				choice.rest = append(choice.rest, cj)
			}
		}
		access[i] = choice
		g.rows[i], g.read[i], g.cards[i] = rows, rows, max(card, 1e-3)
		if choice.kind != accessFull {
			g.read[i] = r.tv.bucket(choice.keyCol)
		}
	}

	// Equi edges for the cost model. A table with an access path of its
	// own is not probed by a join step: its scan already reads a bucket.
	bucket := func(table, col int) float64 {
		if access[table].kind != accessFull {
			return 0
		}
		return refs[table].tv.bucket(col)
	}
	for _, jc := range joinConjs {
		if !jc.isEquiJoin {
			continue
		}
		ndv := max(refs[jc.eqLTable].tv.ndvEstimate(jc.eqLCol), refs[jc.eqRTable].tv.ndvEstimate(jc.eqRCol))
		g.link(jc.eqLTable, jc.eqRTable, 1/ndv, bucket(jc.eqLTable, jc.eqLCol), bucket(jc.eqRTable, jc.eqRCol))
	}

	order := g.chooseJoinOrder()

	p := &selectPlan{
		tables: n,
		consts: consts,
		limit:  pst.Limit,
	}
	for pos, ti := range order {
		if ti != pos {
			p.reordered = true
		}
	}

	// Every expression of the plan binds against the tables in join
	// order: a column becomes (scan, column within that scan's row).
	// scanOf maps a textual table to its scan.
	pb := &binder{}
	scanOf := make([]int, n)
	for pos, ti := range order {
		scanOf[ti] = pos
		pb.addTable(refs[ti].alias, refs[ti].tv.t)
	}

	// Scans in join order, with their pushed-down filters.
	for _, ti := range order {
		r := refs[ti]
		ac := access[ti]
		s := scanNode{
			table:    r.name,
			alias:    r.alias,
			t:        r.tv.t,
			indexes:  len(r.tv.indexes),
			access:   ac.kind,
			keyCol:   ac.keyCol,
			keyExpr:  ac.keyExpr,
			planRows: r.tv.rows.len(),
		}
		for _, cj := range ac.rest {
			be, err := bind(cj.expr, pb)
			if err != nil {
				return nil, err
			}
			s.filter = append(s.filter, be)
		}
		p.scans = append(p.scans, s)
	}

	// Join steps: assign every multi-table conjunct to the first step
	// where all its tables are placed; equi conjuncts linking the new
	// table to the prefix become join keys, the rest are residuals.
	assigned := make([]bool, len(joinConjs))
	placed := uint64(1) << uint(order[0])
	p.scans[0].estRows = g.cards[order[0]]
	for pos := 1; pos < n; pos++ {
		right := order[pos]
		rightBit := uint64(1) << uint(right)
		nowPlaced := placed | rightBit
		jn := joinNode{probe: -1}
		probeBucket := 0.0
		p.scans[pos].estRows = g.step(p.scans[pos-1].estRows, placed, right).out
		for ci := range joinConjs {
			if assigned[ci] {
				continue
			}
			jc := &joinConjs[ci]
			if jc.mask&^nowPlaced != 0 {
				continue // references a table not yet placed
			}
			if jc.isEquiJoin && jc.mask&rightBit != 0 {
				var leftTable, leftCol, rightCol int
				if jc.eqRTable == right {
					leftTable, leftCol, rightCol = jc.eqLTable, jc.eqLCol, jc.eqRCol
				} else {
					leftTable, leftCol, rightCol = jc.eqRTable, jc.eqRCol, jc.eqLCol
				}
				// The key with the smallest bucket probes; the first of equals.
				if b := bucket(right, rightCol); b > 0 && (jn.probe < 0 || b < probeBucket) {
					jn.probe, probeBucket = len(jn.rightKeys), b
					jn.probeBelow = int(refs[right].tv.ndvEstimate(rightCol))
				}
				jn.leftKeys = append(jn.leftKeys, colPos{scanOf[leftTable], leftCol})
				jn.rightKeys = append(jn.rightKeys, rightCol)
				assigned[ci] = true
				continue
			}
			be, err := bind(jc.expr, pb)
			if err != nil {
				return nil, err
			}
			jn.extra = append(jn.extra, be)
			assigned[ci] = true
		}
		p.joins = append(p.joins, jn)
		placed = nowPlaced
	}

	// Output expressions. SELECT * expands in textual table order (the
	// user-visible contract), whatever the join order.
	for _, it := range pst.Items {
		if it.Star {
			for ti := 0; ti < n; ti++ {
				t := refs[ti].tv.t
				for col := range t.Cols {
					p.outExprs = append(p.outExprs, &boundCol{table: scanOf[ti], col: col, name: t.Cols[col].Name})
					p.outNames = append(p.outNames, t.Cols[col].Name)
				}
			}
			continue
		}
		be, err := bind(it.Expr, pb)
		if err != nil {
			return nil, err
		}
		p.outExprs = append(p.outExprs, be)
		name := it.Alias
		if name == "" {
			if bc, ok := be.(*boundCol); ok {
				name = bc.name
			} else {
				name = fmt.Sprintf("col%d", len(p.outNames)+1)
			}
		}
		p.outNames = append(p.outNames, name)
	}

	// Aggregates, grouping, HAVING.
	for _, oe := range p.outExprs {
		collectAggs(oe, &p.aggs)
	}
	if pst.Having != nil {
		h, err := bind(pst.Having, pb)
		if err != nil {
			return nil, err
		}
		p.having = h
		collectAggs(p.having, &p.aggs)
	}
	for _, g := range pst.GroupBy {
		bg, err := bind(g, pb)
		if err != nil {
			return nil, err
		}
		p.groupBy = append(p.groupBy, bg)
	}
	p.distinct = pst.Distinct

	// ORDER BY: output column by name, else bound input-row expression.
	for _, ob := range pst.OrderBy {
		spec := orderSpec{outIdx: -1, desc: ob.Desc}
		if cr, ok := ob.Expr.(*ColRef); ok && cr.Table == "" {
			for i, on := range p.outNames {
				if on == cr.Column {
					spec.outIdx = i
					break
				}
			}
		}
		if spec.outIdx < 0 {
			be, err := bind(ob.Expr, pb)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: ORDER BY: %w", err)
			}
			var hasAgg []*Agg
			collectAggs(be, &hasAgg)
			if len(hasAgg) > 0 {
				return nil, fmt.Errorf("sqlmini: ORDER BY aggregate must be a named output column")
			}
			spec.expr = be
		}
		p.orderBy = append(p.orderBy, spec)
	}
	return p, nil
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

// tuples is what one join step hands to the next: n tuples over the
// first w scans of the plan, each tuple the positions of its base rows
// in those scans' outputs (execRun.rows). A step that matches a prefix
// tuple with a row appends w+1 integers; no column is copied until an
// expression reads it, whatever the width of the joined tables, and
// the slab holds no pointer for the collector to follow. Tuples keep
// the order the step produced them in.
type tuples struct {
	w   int
	n   int
	ids []int32 // n*w positions, tuple-major; nil when w == 1: tuple i is row i of scan 0
}

// pos returns the position of tuple i's row within scan's output.
func (t *tuples) pos(i, scan int) int {
	if t.ids == nil {
		return i
	}
	return int(t.ids[i*t.w+scan])
}

// execRun is the state of one execution of a plan. Everything a run
// writes lives here and nothing of it in the selectPlan, so any number
// of goroutines may run one plan at once; base rows are referenced,
// never written.
type execRun struct {
	ctx  context.Context
	p    *selectPlan
	res  *Result
	rows [][]Row // output of each scan, in join order
	ec   evalCtx // ec.tup is the current tuple, one base row per scan
}

// smallRun backs execRun.rows and the current tuple of a plan over at
// most len(smallRun.tup) tables with one allocation, which keeps a pk
// probe at the allocation count it had before tuples existed.
type smallRun struct {
	rows [2][]Row
	tup  [2]Row
}

// load makes tuple i of in the current tuple. i < 0 stands for the
// tuple an aggregation over no rows evaluates its plain columns
// against: every column NULL.
func (x *execRun) load(in *tuples, i int) {
	if i < 0 {
		for k := range x.p.scans {
			x.ec.tup[k] = make(Row, len(x.p.scans[k].t.Cols))
		}
		return
	}
	if in.ids == nil {
		x.ec.tup[0] = x.rows[0][i]
		return
	}
	for k, pos := range in.ids[i*in.w : (i+1)*in.w] {
		x.ec.tup[k] = x.rows[k][pos]
	}
}

// poll reports the context's error every cancelCheckRows-th i.
func (x *execRun) poll(i int) error {
	if i%cancelCheckRows == 0 {
		return x.ctx.Err()
	}
	return nil
}

// run executes the plan against one immutable view. The plan itself is
// read-only here: any number of goroutines may run the same plan
// concurrently.
func (p *selectPlan) run(ctx context.Context, v *readView, params []Value, res *Result) error {
	res.Columns = p.outNames
	x := &execRun{ctx: ctx, p: p, res: res}
	x.ec.params = params
	if n := len(p.scans); n <= len(smallRun{}.tup) {
		buf := new(smallRun)
		x.rows, x.ec.tup = buf.rows[:n], buf.tup[:n]
	} else {
		x.rows, x.ec.tup = make([][]Row, n), make([]Row, n)
	}
	for _, cexpr := range p.consts {
		cv, err := eval(cexpr, &x.ec)
		if err != nil {
			return err
		}
		if !cv.Truth() {
			return p.finish(x, tuples{})
		}
	}
	var cur tuples
	for i := range p.scans {
		s := &p.scans[i]
		tv, ok := v.tables[s.table]
		if !ok {
			return unknownTableError(s.table)
		}
		if tv.rows.len() > math.MaxInt32 {
			return fmt.Errorf("sqlmini: %q holds %d rows, more than a join can address", s.table, tv.rows.len())
		}
		if i > 0 && cur.n < p.joins[i-1].probeBelow {
			var err error
			if cur, err = p.joins[i-1].probeJoin(x, cur, s, tv); err != nil {
				return err
			}
			continue
		}
		scanned, err := s.scan(x, i, tv)
		if err != nil {
			return err
		}
		x.rows[i] = scanned
		if i == 0 {
			cur = tuples{w: 1, n: len(scanned)}
			continue
		}
		if cur, err = p.joins[i-1].join(x, cur, scanned); err != nil {
			return err
		}
	}
	return p.finish(x, cur)
}

// scan produces the (filtered) base rows of the plan's k-th table from
// a view. With no filter the result is the view's own shared slice
// (allRows); callers never write the slice or the rows in it.
func (s *scanNode) scan(x *execRun, k int, tv *tableView) ([]Row, error) {
	switch s.access {
	case accessPkEq:
		x.res.Scanned++
		kv, err := eval(s.keyExpr, &x.ec)
		if err != nil {
			return nil, err
		}
		if kv.IsNull() {
			return nil, nil // pk = NULL matches nothing
		}
		idx, hit := tv.pk.find(kv)
		if !hit {
			return nil, nil
		}
		// The row comes as a one-row window of the view's own rows:
		// filter it into a new slice, never in place.
		one := tv.rows.window(idx)
		if len(s.filter) == 0 {
			return one, nil
		}
		return s.appendFiltered(x, k, nil, one)
	case accessIdxEq:
		kv, err := eval(s.keyExpr, &x.ec)
		if err != nil {
			return nil, err
		}
		if kv.IsNull() {
			return nil, nil // col = NULL matches nothing
		}
		// schemaMatches holds the plan to views that carry the index.
		matches := tv.index(s.keyCol).built(tv).lookup(kv)
		x.res.Scanned += int64(len(matches))
		hits := make([]Row, len(matches))
		for i, ri := range matches {
			hits[i] = tv.rows.at(int(ri))
		}
		return s.filterOwned(x, k, hits)
	default:
		x.res.Scanned += int64(tv.rows.len())
		if len(s.filter) == 0 {
			return tv.allRows(), nil
		}
		var out []Row
		for c := 0; c < tv.rows.runs(); c++ {
			var err error
			if out, err = s.appendFiltered(x, k, out, tv.rows.run(c)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// filterOwned filters a slice this scan built, in place.
func (s *scanNode) filterOwned(x *execRun, k int, rows []Row) ([]Row, error) {
	if len(s.filter) == 0 {
		return rows, nil
	}
	return s.appendFiltered(x, k, rows[:0], rows)
}

// appendFiltered appends to dst the rows passing every pushed-down
// conjunct. dst may be rows[:0]: filtering in place never overtakes the
// read position.
func (s *scanNode) appendFiltered(x *execRun, k int, dst, rows []Row) ([]Row, error) {
	for i, r := range rows {
		if err := x.poll(i); err != nil {
			return nil, err
		}
		if ok, err := s.passes(x, k, r); err != nil {
			return nil, err
		} else if ok {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// passes evaluates the pushed-down conjuncts with r as the tuple's
// k-th row, the only one they read.
func (s *scanNode) passes(x *execRun, k int, r Row) (bool, error) {
	x.ec.tup[k] = r
	for _, f := range s.filter {
		fv, err := eval(f, &x.ec)
		if err != nil || !fv.Truth() {
			return false, err
		}
	}
	return true, nil
}

// key loads into kv the join key of one input — prefix tuple i when
// ofLeft, else row i of the joined table — and reports whether it can
// match at all: a key holding a NULL equals nothing, as the same
// predicate evaluated as a residual would find.
func (j *joinNode) key(x *execRun, left *tuples, right []Row, ofLeft bool, i int, kv []Value) bool {
	for c := range kv {
		var v Value
		if ofLeft {
			k := j.leftKeys[c]
			v = x.rows[k.scan][left.pos(i, k.scan)][k.col]
		} else {
			v = right[i][j.rightKeys[c]]
		}
		if v.IsNull() {
			return false
		}
		kv[c] = v
	}
	return true
}

// joinOut collects the tuples one join step emits: prefix tuples of
// left extended by rows of right.
type joinOut struct {
	extra []Expr // the step's residual conjuncts
	left  tuples
	right []Row
	out   tuples
}

func (j *joinNode) begin(left tuples, right []Row) joinOut {
	return joinOut{extra: j.extra, left: left, right: right,
		out: tuples{w: left.w + 1, ids: make([]int32, 0, left.n*(left.w+1))}}
}

// emit appends the tuple (prefix tuple li, row ri) if it passes the
// residual conjuncts; only those ever read it before it is appended.
// (x is a parameter, not a field: held in the joinOut it would escape,
// and every execution would pay for its execRun on the heap.)
func (o *joinOut) emit(x *execRun, li, ri int) error {
	left := &o.left
	if len(o.extra) > 0 {
		x.load(left, li)
		x.ec.tup[left.w] = o.right[ri]
		for _, ex := range o.extra {
			v, err := eval(ex, &x.ec)
			if err != nil {
				return err
			}
			if !v.Truth() {
				return nil
			}
		}
	}
	if left.ids == nil {
		o.out.ids = append(o.out.ids, int32(li), int32(ri))
	} else {
		o.out.ids = append(append(o.out.ids, left.ids[li*left.w:(li+1)*left.w]...), int32(ri))
	}
	o.out.n++
	return nil
}

// probeJoin extends the prefix tuples by the rows of s's table that an
// index finds for them; the table is never scanned. Per prefix tuple it
// looks the probe key up in the primary key or the secondary index,
// and holds each candidate to what a scan and hash join would have:
// the table's pushed-down filters, the other key pairs, the residuals.
// The tuples name their rows by position in the whole table
// (tv.allRows); they come in prefix order, and within one prefix tuple
// in position order. Scanned counts the candidates examined (one per pk
// probe). A NULL key matches nothing, on either side.
func (j *joinNode) probeJoin(x *execRun, left tuples, s *scanNode, tv *tableView) (tuples, error) {
	k := left.w
	rows := tv.allRows()
	x.rows[k] = rows
	o := j.begin(left, rows)
	pk, pcol := j.leftKeys[j.probe], j.rightKeys[j.probe]
	var ib indexBuckets
	byPk := pcol == tv.t.pkCol
	if !byPk {
		ib = tv.index(pcol).built(tv) // schemaMatches holds the plan to views that carry it
	}
	var one [1]int32
	for li := 0; li < left.n; li++ {
		if err := x.poll(li); err != nil {
			return tuples{}, err
		}
		kv := x.rows[pk.scan][left.pos(li, pk.scan)][pk.col]
		if kv.IsNull() {
			continue
		}
		var cands []int32
		if byPk {
			x.res.Scanned++
			if at, hit := tv.pk.find(kv); hit {
				one[0] = int32(at)
				cands = one[:]
			}
		} else {
			cands = ib.lookup(kv)
			x.res.Scanned += int64(len(cands))
		}
	cands:
		for _, ri := range cands {
			r := rows[ri]
			for c, lk := range j.leftKeys {
				if c == j.probe {
					continue
				}
				lv, rv := x.rows[lk.scan][left.pos(li, lk.scan)][lk.col], r[j.rightKeys[c]]
				if lv.IsNull() || rv.IsNull() || keyOf(lv) != keyOf(rv) {
					continue cands
				}
			}
			if ok, err := s.passes(x, k, r); err != nil {
				return tuples{}, err
			} else if !ok {
				continue
			}
			if err := o.emit(x, li, int(ri)); err != nil {
				return tuples{}, err
			}
		}
	}
	return o.out, nil
}

// join extends the prefix tuples by one table's rows. Equi-joins hash
// the smaller side and probe with the other; the output follows the
// probe side's order, and within one probe element the build side's.
// Both are deterministic functions of the input data, and later steps,
// LIMIT and float aggregates depend on them. Build and probe loops
// observe context cancellation.
func (j *joinNode) join(x *execRun, left tuples, right []Row) (tuples, error) {
	o := j.begin(left, right)

	if len(j.leftKeys) == 0 {
		// Nested loop: no equi keys link this table to the prefix.
		// Scanned counts evaluated pairs, as the pre-planner executor did.
		for li := 0; li < left.n; li++ {
			for ri := range right {
				if err := x.poll(int(x.res.Scanned)); err != nil {
					return tuples{}, err
				}
				x.res.Scanned++
				if err := o.emit(x, li, ri); err != nil {
					return tuples{}, err
				}
			}
		}
		return o.out, nil
	}

	// Build on the table's rows unless the prefix is smaller. A chain
	// links the build positions sharing a key: heads maps the key to the
	// first, next[b] leads from b to the one after it (both +1, 0 ends
	// the chain). Building from the back and pushing in front leaves
	// every chain in ascending position — insertion — order.
	buildLeft := left.n < len(right)
	nBuild, nProbe := len(right), left.n
	if buildLeft {
		nBuild, nProbe = nProbe, nBuild
	}
	heads := newKeyMap(len(j.leftKeys), nBuild)
	next := make([]int32, nBuild)
	kv := make([]Value, len(j.leftKeys))
	for b := nBuild - 1; b >= 0; b-- {
		if err := x.poll(b); err != nil {
			return tuples{}, err
		}
		if j.key(x, &left, right, buildLeft, b, kv) {
			next[b] = heads.get(kv)
			heads.put(kv, int32(b)+1)
		}
	}
	for i := 0; i < nProbe; i++ {
		if err := x.poll(i); err != nil {
			return tuples{}, err
		}
		if !j.key(x, &left, right, !buildLeft, i, kv) {
			continue
		}
		for b := heads.get(kv); b != 0; b = next[b-1] {
			li, ri := i, int(b-1)
			if buildLeft {
				li, ri = ri, li
			}
			if err := o.emit(x, li, ri); err != nil {
				return tuples{}, err
			}
		}
	}
	return o.out, nil
}

// finish projects, aggregates, deduplicates, orders and limits the
// joined tuples.
func (p *selectPlan) finish(x *execRun, in tuples) error {
	groupMode := len(p.aggs) > 0 || len(p.groupBy) > 0
	// A LIMIT with nothing downstream that needs every tuple (grouping,
	// DISTINCT, ORDER BY) takes the first ones: project only those.
	if !groupMode && !p.distinct && len(p.orderBy) == 0 && p.limit >= 0 && in.n > p.limit {
		in.n = p.limit
	}

	// Output rows are cut from one slab. inputs[i] is the tuple output
	// row i evaluates its ORDER BY expressions against (a group's first
	// tuple); nil while row i still comes from tuple i.
	nout := len(p.outExprs)
	var outRows []Row
	var inputs []int
	var slab []Value
	project := func(ec *evalCtx) error {
		or := slab[:nout:nout]
		for i, oe := range p.outExprs {
			v, err := eval(oe, ec)
			if err != nil {
				return err
			}
			or[i] = v
		}
		slab = slab[nout:]
		outRows = append(outRows, or)
		return nil
	}
	if groupMode {
		groups, err := groupRows(x, in, p.groupBy, p.aggs)
		if err != nil {
			return err
		}
		slab = make([]Value, len(groups)*nout)
		outRows = make([]Row, 0, len(groups))
		inputs = make([]int, 0, len(groups))
		gctx := &evalCtx{tup: x.ec.tup, params: x.ec.params, aggs: make([]Value, len(p.aggs))}
		for _, g := range groups {
			x.load(&in, g.sample)
			g.aggValues(p.aggs, gctx.aggs)
			if p.having != nil {
				hv, err := eval(p.having, gctx)
				if err != nil {
					return err
				}
				if !hv.Truth() {
					continue
				}
			}
			if err := project(gctx); err != nil {
				return err
			}
			inputs = append(inputs, g.sample)
		}
	} else {
		slab = make([]Value, in.n*nout)
		outRows = make([]Row, 0, in.n)
		for i := 0; i < in.n; i++ {
			if err := x.poll(i); err != nil {
				return err
			}
			x.load(&in, i)
			if err := project(&x.ec); err != nil {
				return err
			}
		}
	}

	if p.distinct {
		seen := newKeyMap(nout, len(outRows))
		kept := outRows[:0]
		keptIn := make([]int, 0, len(outRows))
		for i, r := range outRows {
			if seen.get(r) != 0 {
				continue
			}
			seen.put(r, 1)
			kept = append(kept, r)
			if inputs == nil {
				keptIn = append(keptIn, i)
			} else {
				keptIn = append(keptIn, inputs[i])
			}
		}
		outRows, inputs = kept, keptIn
	}

	if len(p.orderBy) > 0 {
		var err error
		if outRows, err = p.order(x, outRows, in, inputs); err != nil {
			return err
		}
	}
	if p.limit >= 0 && len(outRows) > p.limit {
		outRows = outRows[:p.limit]
	}
	x.res.Rows = outRows
	return nil
}

// sortItem is one output row with its evaluated ORDER BY keys and its
// position in the unsorted output.
type sortItem struct {
	row  Row
	keys []Value
	pos  int
}

// topRows keeps the best rows seen so far under an ORDER BY, as a
// max-heap with the worst on top once it is full.
type topRows struct {
	specs []orderSpec
	items []sortItem
}

// cmp orders two items by the ORDER BY keys, then by position: a total
// order, so any correct sort yields the one stable result.
func (h *topRows) cmp(a, b *sortItem) int {
	for oi, spec := range h.specs {
		if c := Compare(a.keys[oi], b.keys[oi]); c != 0 {
			if spec.desc {
				return -c
			}
			return c
		}
	}
	return a.pos - b.pos
}

func (h *topRows) siftDown(i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h.items); c++ {
			if h.cmp(&h.items[c], &h.items[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// order sorts the output rows by the ORDER BY keys, ties in input
// order, and returns the first LIMIT of them (all without a LIMIT).
// Keys that are not output columns are evaluated against tuple
// inputs[i] of in (tuple i when inputs is nil). Under a LIMIT k only
// the best k rows seen so far are kept, so the sort costs O(n log k)
// and k key slices, not n.
func (p *selectPlan) order(x *execRun, outRows []Row, in tuples, inputs []int) ([]Row, error) {
	keep := len(outRows)
	if p.limit >= 0 && p.limit < keep {
		keep = p.limit
	}
	nk := len(p.orderBy)
	h := &topRows{specs: p.orderBy, items: make([]sortItem, 0, keep)}
	keySlab := make([]Value, keep*nk)
	cand := sortItem{keys: make([]Value, nk)}
	for i, r := range outRows {
		loaded := false
		for oi, spec := range p.orderBy {
			if spec.outIdx >= 0 {
				cand.keys[oi] = r[spec.outIdx]
				continue
			}
			if !loaded {
				ti := i
				if inputs != nil {
					ti = inputs[i]
				}
				x.load(&in, ti)
				loaded = true
			}
			v, err := eval(spec.expr, &x.ec)
			if err != nil {
				return nil, err
			}
			cand.keys[oi] = v
		}
		cand.row, cand.pos = r, i
		if len(h.items) < keep {
			it := sortItem{row: r, keys: keySlab[len(h.items)*nk:][:nk:nk], pos: i}
			copy(it.keys, cand.keys)
			h.items = append(h.items, it)
			if len(h.items) == keep && keep < len(outRows) {
				for top := keep/2 - 1; top >= 0; top-- {
					h.siftDown(top)
				}
			}
			continue
		}
		// Full: a later row with equal keys sorts after the heap's worst
		// (larger position), so only a strictly better row displaces it.
		if keep == 0 || h.cmp(&cand, &h.items[0]) >= 0 {
			continue
		}
		copy(h.items[0].keys, cand.keys)
		h.items[0].row, h.items[0].pos = r, i
		h.siftDown(0)
	}
	slices.SortFunc(h.items, func(a, b sortItem) int { return h.cmp(&a, &b) })
	outRows = outRows[:len(h.items)]
	for i := range h.items {
		outRows[i] = h.items[i].row
	}
	return outRows, nil
}
