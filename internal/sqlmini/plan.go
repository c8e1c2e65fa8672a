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
//     class. Invalidation: DDL (CREATE/DROP TABLE, CREATE INDEX) and
//     snapshot restores bump a generation counter and drop every entry
//     (live-migration cutover restores through the same paths); row-count
//     drift beyond 4x triggers a per-plan rebuild; a pinned view whose
//     schema no longer matches the plan falls back to an uncached
//     transient plan.
//
//   - Cost-based join ordering. Joins of up to maxDPTables tables get an
//     exact dynamic program over subsets (left-deep, bitmask-indexed
//     slices — no map iteration anywhere near the choice); larger graphs
//     fall back to a greedy nearest-neighbor order. Costs come from the
//     per-view statistics in tablestats.go: scan cardinality after
//     pushdown, equi-join selectivity 1/max(ndv_l, ndv_r), hash join
//     build+probe+output, nested loop |L|x|R|.
//
//   - Predicate pushdown. WHERE and ON are split into conjuncts at plan
//     time; conjuncts referencing a single table run at that table's
//     scan (or pick its access path: pk probe, secondary-index probe),
//     equality conjuncts linking two tables become hash-join keys, and
//     everything else runs at the first join step where all referenced
//     tables are available — nothing filters the full join product
//     anymore.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxDPTables is the largest join graph planned by exact DP; beyond it
// the greedy order kicks in. 6 tables = 63 subsets, far below where DP
// cost would show up next to execution.
const maxDPTables = 6

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
// textual binder and annotates the planner-relevant shapes. slotTable
// maps binder slot index -> textual table index.
func classifyConjunct(e Expr, tb *binder, slotTable []int) (conjunct, error) {
	c := conjunct{expr: e}
	var refs []*ColRef
	collectColRefs(e, &refs)
	for _, r := range refs {
		idx, err := tb.resolve(r)
		if err != nil {
			return c, err
		}
		c.mask |= 1 << uint(slotTable[idx])
	}
	nTables := popcount(c.mask)

	resolveCol := func(r *ColRef) (table, col int) {
		idx, _ := tb.resolve(r) // already resolved above
		return slotTable[idx], tb.slots[idx].col
	}

	switch x := e.(type) {
	case *BinOp:
		switch x.Op {
		case "=":
			lc, lok := x.L.(*ColRef)
			rc, rok := x.R.(*ColRef)
			if lok && rok && nTables == 2 {
				lt, lcol := resolveCol(lc)
				rt, rcol := resolveCol(rc)
				if lt != rt {
					c.isEquiJoin = true
					c.eqLTable, c.eqLCol = lt, lcol
					c.eqRTable, c.eqRCol = rt, rcol
				}
				return c, nil
			}
			if nTables == 1 {
				if lok && isConstExpr(x.R) {
					_, col := resolveCol(lc)
					c.kind, c.constCol, c.constVal = predEqConst, col, x.R
				} else if rok && isConstExpr(x.L) {
					_, col := resolveCol(rc)
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

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
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

// equiEdge is one equi-join conjunct viewed as a weighted edge of the
// join graph.
type equiEdge struct {
	a, b int // textual table indices
	sel  float64
}

// joinStepCost models joining an accumulated intermediate of leftCard
// rows with a base table of rightCard rows. Connected pairs hash-join
// (build + probe + output); disconnected pairs nested-loop (every
// pair). Returns (cost, output cardinality).
func joinStepCost(leftCard, rightCard float64, edges []equiEdge, placed uint64, next int) (float64, float64) {
	sel := 1.0
	connected := false
	for _, e := range edges {
		if (e.a == next && placed&(1<<uint(e.b)) != 0) ||
			(e.b == next && placed&(1<<uint(e.a)) != 0) {
			connected = true
			sel *= e.sel
		}
	}
	out := leftCard * rightCard * sel
	if out < 0 {
		out = 0
	}
	if connected {
		return leftCard + rightCard + out, out
	}
	return leftCard*rightCard + out, out
}

// chooseJoinOrder picks the join order for textual tables with the
// given post-pushdown cardinalities. Exact left-deep DP up to
// maxDPTables, greedy beyond. The result is a permutation of 0..n-1 and
// is a pure function of (cards, edges): bitmask-indexed slices and
// ascending iteration keep it bit-identical across runs.
func chooseJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
	if n <= 1 {
		return []int{0}
	}
	if n <= maxDPTables {
		return dpJoinOrder(cards, edges)
	}
	return greedyJoinOrder(cards, edges)
}

func dpJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
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
		dp[m] = dpEnt{cost: cards[i], card: cards[i], last: i, prev: 0, ok: true}
	}
	for mask := uint64(1); mask <= full; mask++ {
		if popcount(mask) < 2 {
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
				continue
			}
			stepCost, out := joinStepCost(pe.card, cards[j], edges, prev, j)
			total := pe.cost + cards[j] + stepCost
			if !best.ok || total < best.cost {
				best = dpEnt{cost: total, card: out, last: j, prev: prev, ok: true}
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
	// Reverse: backtracking produced last-to-first.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func greedyJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if cards[i] < cards[start] {
			start = i
		}
	}
	order = append(order, start)
	placed := uint64(1) << uint(start)
	curCard := cards[start]
	for len(order) < n {
		best := -1
		var bestTotal, bestCard float64
		for j := 0; j < n; j++ {
			if placed&(1<<uint(j)) != 0 {
				continue
			}
			stepCost, out := joinStepCost(curCard, cards[j], edges, placed, j)
			total := cards[j] + stepCost
			if best < 0 || total < bestTotal {
				best, bestTotal, bestCard = j, total, out
			}
		}
		order = append(order, best)
		placed |= 1 << uint(best)
		curCard = bestCard
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

	access  accessKind
	keyCol  int  // probed column (pk or indexed) for accessPkEq/IdxEq
	keyExpr Expr // const expr supplying the probe value

	filter []Expr // pushed-down conjuncts, bound to this table's row

	planRows int // view row count at plan time, for drift detection
}

// joinNode joins scans[i+1] to the accumulated prefix.
type joinNode struct {
	leftKeys  []int  // key columns as prefix-layout indices
	rightKeys []int  // key columns within the right table's row
	extra     []Expr // residual conjuncts, bound to prefix+right layout
}

// orderSpec is one pre-resolved ORDER BY item.
type orderSpec struct {
	outIdx int  // >= 0: sort by that output column
	expr   Expr // else: bound expression over the input row
	desc   bool
}

// selectPlan is a fully bound, immutable, concurrently executable plan
// for one normalized SELECT class.
type selectPlan struct {
	gen    int64 // plan-cache generation the plan was built under
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

// schemaMatches reports whether the plan can execute against v: every
// scanned table must exist with the same schema identity (the *Table
// pointer is stable for a table's lifetime; DROP+CREATE and restores
// produce a new one).
func (p *selectPlan) schemaMatches(v *readView) bool {
	for i := range p.scans {
		tv, ok := v.tables[p.scans[i].table]
		if !ok || tv.t != p.scans[i].t {
			return false
		}
	}
	return true
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
// eviction and generation-based invalidation. The hit path takes only
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

// lookup returns the cached plan for key if it is valid for generation
// gen and view v. current marks v as the engine's latest view: only
// then do drift-stale entries get dropped (a pinned historical view
// must not evict plans that are fine for the present).
func (c *planCache) lookup(key string, gen int64, v *readView, current bool) *selectPlan {
	c.mu.RLock()
	en := c.entries[key]
	c.mu.RUnlock()
	if en == nil {
		c.misses.Add(1)
		return nil
	}
	p := en.plan
	stale := p.gen != gen
	if !stale && p.schemaMatches(v) && !p.drifted(v) {
		en.uses.Add(1)
		c.hits.Add(1)
		return p
	}
	// Stale: drop the entry — always on a generation mismatch, but on
	// schema/drift mismatch only for the current view.
	if stale || current {
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
// eighth when full. A plan built under an older generation than the
// current one is dropped by the next lookup's gen check, so no re-check
// is needed here.
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

// clear drops every entry (generation invalidation).
func (c *planCache) clear() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
	c.invalidations.Add(1)
}

// PlannerStats is a snapshot of the engine's planner counters.
type PlannerStats struct {
	Hits          int64 // plan-cache hits
	Misses        int64 // plan-cache misses (plan built)
	Invalidations int64 // generation bumps + stale-entry drops
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

// InvalidatePlans drops every cached plan and bumps the plan
// generation, so in-flight builds against the old schema cannot be
// served afterwards. Runs on DDL, CREATE INDEX, and snapshot restores
// (which is how live-migration cutover lands tables); safe to call at
// any time.
func (e *Engine) InvalidatePlans() {
	e.planGen.Add(1)
	e.plans.clear()
}

// ---------------------------------------------------------------------
// Plan building
// ---------------------------------------------------------------------

// planFor returns a plan for st valid against v, consulting the cache.
// Plans built against the engine's current view are cached; plans built
// against a pinned historical view (or racing a concurrent publish) are
// transient.
func (e *Engine) planFor(st *SelectStmt, v *readView) (*selectPlan, []Value, error) {
	gen := e.planGen.Load()
	key, params, _ := canonSelect(st, false)
	current := v == e.view.Load()
	if p := e.plans.lookup(key, gen, v, current); p != nil {
		return p, params, nil
	}
	p, err := e.buildPlan(st, v, gen)
	if err != nil {
		return nil, nil, err
	}
	e.plans.notePlan(p)
	if current {
		e.plans.store(key, p)
	}
	return p, params, nil
}

// buildPlan compiles one SELECT against a view: normalization, conjunct
// analysis, access-path selection, join ordering, and output binding.
func (e *Engine) buildPlan(st *SelectStmt, v *readView, gen int64) (*selectPlan, error) {
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
	var slotTable []int
	for i, r := range refs {
		tb.addTable(r.alias, r.tv.t)
		for range r.tv.t.Cols {
			slotTable = append(slotTable, i)
		}
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
		c, err := classifyConjunct(ce, tb, slotTable)
		if err != nil {
			return nil, err
		}
		switch popcount(c.mask) {
		case 0:
			consts = append(consts, c.expr)
		case 1:
			ti := lowestBit(c.mask)
			perTable[ti] = append(perTable[ti], c)
		default:
			joinConjs = append(joinConjs, c)
		}
	}

	// Access path and post-pushdown cardinality per textual table.
	type accessChoice struct {
		kind    accessKind
		keyCol  int
		keyExpr Expr
		rest    []conjunct
	}
	access := make([]accessChoice, n)
	cards := make([]float64, n)
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
				if cj.kind != predEqConst {
					continue
				}
				if r.tv.hasIndex(cj.constCol) {
					choice = accessChoice{kind: accessIdxEq, keyCol: cj.constCol, keyExpr: cj.constVal}
					consumed = ci
					break
				}
			}
		}
		card := float64(r.tv.rows.len())
		if card < 1 {
			card = 1
		}
		for ci, cj := range perTable[i] {
			card *= conjunctSelectivity(cj, r.tv)
			if ci != consumed {
				choice.rest = append(choice.rest, cj)
			}
		}
		if card < 1e-3 {
			card = 1e-3
		}
		access[i] = choice
		cards[i] = card
	}

	// Equi edges for the cost model.
	var edges []equiEdge
	for _, jc := range joinConjs {
		if !jc.isEquiJoin {
			continue
		}
		ndvL := refs[jc.eqLTable].tv.ndvEstimate(jc.eqLCol)
		ndvR := refs[jc.eqRTable].tv.ndvEstimate(jc.eqRCol)
		ndv := ndvL
		if ndvR > ndv {
			ndv = ndvR
		}
		if ndv < 1 {
			ndv = 1
		}
		edges = append(edges, equiEdge{a: jc.eqLTable, b: jc.eqRTable, sel: 1 / ndv})
	}

	order := chooseJoinOrder(cards, edges)

	p := &selectPlan{
		gen:    gen,
		tables: n,
		consts: consts,
		limit:  pst.Limit,
	}
	for pos, ti := range order {
		if ti != pos {
			p.reordered = true
		}
	}

	// Physical layout: binder over tables in chosen order, plus the base
	// offset of each textual table within it.
	pb := &binder{}
	physBase := make([]int, n)
	for _, ti := range order {
		physBase[ti] = len(pb.slots)
		pb.addTable(refs[ti].alias, refs[ti].tv.t)
	}

	// Scans in physical order, with pushed-down filters bound to the
	// single table's own row layout.
	for _, ti := range order {
		r := refs[ti]
		ac := access[ti]
		s := scanNode{
			table:    r.name,
			alias:    r.alias,
			t:        r.tv.t,
			access:   ac.kind,
			keyCol:   ac.keyCol,
			keyExpr:  ac.keyExpr,
			planRows: r.tv.rows.len(),
		}
		lb := &binder{}
		lb.addTable(r.alias, r.tv.t)
		for _, cj := range ac.rest {
			be, err := bind(cj.expr, lb)
			if err != nil {
				return nil, err
			}
			s.filter = append(s.filter, be)
		}
		p.scans = append(p.scans, s)
	}

	// Join steps: assign every multi-table conjunct to the first step
	// where all its tables are placed; equi conjuncts linking the new
	// table to the prefix become hash keys, the rest are residuals bound
	// to the prefix+right physical layout.
	assigned := make([]bool, len(joinConjs))
	placed := uint64(1) << uint(order[0])
	for pos := 1; pos < n; pos++ {
		right := order[pos]
		rightBit := uint64(1) << uint(right)
		nowPlaced := placed | rightBit
		jn := joinNode{}
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
				jn.leftKeys = append(jn.leftKeys, physBase[leftTable]+leftCol)
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
	// user-visible contract), resolving into the physical layout.
	for _, it := range pst.Items {
		if it.Star {
			for ti := 0; ti < n; ti++ {
				t := refs[ti].tv.t
				for col := range t.Cols {
					p.outExprs = append(p.outExprs, &boundCol{idx: physBase[ti] + col, name: t.Cols[col].Name})
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

func lowestBit(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

// run executes the plan against one immutable view. The plan itself is
// read-only here: any number of goroutines may run the same plan
// concurrently.
func (p *selectPlan) run(ctx context.Context, v *readView, params []Value, res *Result) error {
	res.Columns = p.outNames
	ec := &evalCtx{params: params}
	for _, cexpr := range p.consts {
		cv, err := eval(cexpr, ec)
		if err != nil {
			return err
		}
		if !cv.Truth() {
			return p.finish(ctx, nil, params, res)
		}
	}
	var rows []Row
	for i := range p.scans {
		s := &p.scans[i]
		tv, ok := v.tables[s.table]
		if !ok {
			return unknownTableError(s.table)
		}
		scanned, err := s.scan(ctx, tv, params, res)
		if err != nil {
			return err
		}
		if i == 0 {
			rows = scanned
			continue
		}
		rows, err = p.joins[i-1].join(ctx, rows, scanned, params, res)
		if err != nil {
			return err
		}
	}
	return p.finish(ctx, rows, params, res)
}

// scan produces the (filtered) base rows of one table from a view. With
// no filter the result is the view's own shared slice (allRows);
// callers never write the slice or the rows in it.
func (s *scanNode) scan(ctx context.Context, tv *tableView, params []Value, res *Result) ([]Row, error) {
	ec := &evalCtx{params: params}
	switch s.access {
	case accessPkEq:
		res.Scanned++
		kv, err := eval(s.keyExpr, ec)
		if err != nil {
			return nil, err
		}
		if kv.IsNull() {
			return nil, nil // pk = NULL matches nothing
		}
		idx, hit := tv.pk.get(kv.key())
		if !hit {
			return nil, nil
		}
		return s.filterOwned(ctx, []Row{tv.rows.at(idx)}, ec)
	case accessIdxEq:
		kv, err := eval(s.keyExpr, ec)
		if err != nil {
			return nil, err
		}
		if kv.IsNull() {
			return nil, nil // col = NULL matches nothing
		}
		if matches, indexed := tv.lookupIndex(s.keyCol, kv); indexed {
			res.Scanned += int64(len(matches))
			hits := make([]Row, len(matches))
			for i, ri := range matches {
				hits[i] = tv.rows.at(ri)
			}
			return s.filterOwned(ctx, hits, ec)
		}
		// The view predates the index (pinned snapshot): scan, applying
		// the consumed equality with the index's key semantics.
		res.Scanned += int64(tv.rows.len())
		kk := kv.key()
		hits := make([]Row, 0, 16)
		for k := 0; k < tv.rows.runs(); k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, r := range tv.rows.run(k) {
				if r[s.keyCol].key() == kk {
					hits = append(hits, r)
				}
			}
		}
		return s.filterOwned(ctx, hits, ec)
	default:
		res.Scanned += int64(tv.rows.len())
		if len(s.filter) == 0 {
			return tv.allRows(), nil
		}
		var out []Row
		for k := 0; k < tv.rows.runs(); k++ {
			var err error
			if out, err = s.appendFiltered(ctx, out, tv.rows.run(k), ec); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// filterOwned filters a slice this scan built, in place.
func (s *scanNode) filterOwned(ctx context.Context, rows []Row, ec *evalCtx) ([]Row, error) {
	if len(s.filter) == 0 {
		return rows, nil
	}
	return s.appendFiltered(ctx, rows[:0], rows, ec)
}

// appendFiltered appends to dst the rows passing every pushed-down
// conjunct (all of them when there is none). dst may be rows[:0]:
// filtering in place never overtakes the read position.
func (s *scanNode) appendFiltered(ctx context.Context, dst, rows []Row, ec *evalCtx) ([]Row, error) {
	if len(s.filter) == 0 {
		return append(dst, rows...), nil
	}
	for i, r := range rows {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ec.row = r
		keep := true
		for _, f := range s.filter {
			fv, err := eval(f, ec)
			if err != nil {
				return nil, err
			}
			if !fv.Truth() {
				keep = false
				break
			}
		}
		if keep {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// joinKey renders the composite hash key of a row over the given
// column indices.
func joinKey(r Row, cols []int) string {
	if len(cols) == 1 {
		return r[cols[0]].key()
	}
	var sb strings.Builder
	for _, c := range cols {
		sb.WriteString(r[c].key())
		sb.WriteByte('|')
	}
	return sb.String()
}

// join combines the accumulated prefix rows with one table's rows.
// Equi-joins hash on the smaller side; the output is always ordered
// with the build side's counterpart as the outer sequence, which is a
// deterministic function of the input data. Both build and probe loops
// observe context cancellation.
func (j *joinNode) join(ctx context.Context, left, right []Row, params []Value, res *Result) ([]Row, error) {
	ec := &evalCtx{params: params}
	emit := func(out []Row, lr, rr Row) ([]Row, error) {
		nr := make(Row, 0, len(lr)+len(rr))
		nr = append(nr, lr...)
		nr = append(nr, rr...)
		if len(j.extra) > 0 {
			ec.row = nr
			for _, ex := range j.extra {
				v, err := eval(ex, ec)
				if err != nil {
					return out, err
				}
				if !v.Truth() {
					return out, nil
				}
			}
		}
		return append(out, nr), nil
	}

	if len(j.leftKeys) > 0 {
		out := make([]Row, 0, len(left))
		var err error
		if len(right) <= len(left) {
			// Build on the right, probe with the prefix rows:
			// left-major output order.
			ht := make(map[string][]Row, len(right))
			for i, rr := range right {
				if i%cancelCheckRows == 0 {
					if cerr := ctx.Err(); cerr != nil {
						return nil, cerr
					}
				}
				k := joinKey(rr, j.rightKeys)
				ht[k] = append(ht[k], rr)
			}
			for i, lr := range left {
				if i%cancelCheckRows == 0 {
					if cerr := ctx.Err(); cerr != nil {
						return nil, cerr
					}
				}
				for _, rr := range ht[joinKey(lr, j.leftKeys)] {
					out, err = emit(out, lr, rr)
					if err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		}
		// Build on the (smaller) prefix, probe with the table rows:
		// right-major output order.
		ht := make(map[string][]Row, len(left))
		for i, lr := range left {
			if i%cancelCheckRows == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
			}
			k := joinKey(lr, j.leftKeys)
			ht[k] = append(ht[k], lr)
		}
		for i, rr := range right {
			if i%cancelCheckRows == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
			}
			for _, lr := range ht[joinKey(rr, j.rightKeys)] {
				out, err = emit(out, lr, rr)
				if err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	// Nested loop: no equi keys link this table to the prefix. Scanned
	// counts evaluated pairs, as the pre-planner executor did.
	out := make([]Row, 0, len(left))
	var err error
	for _, lr := range left {
		for _, rr := range right {
			if res.Scanned%cancelCheckRows == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
			}
			res.Scanned++
			out, err = emit(out, lr, rr)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// finish projects, aggregates, deduplicates, orders and limits the
// joined rows — the pre-bound successor of the old finishSelect.
func (p *selectPlan) finish(ctx context.Context, rows []Row, params []Value, res *Result) error {
	groupMode := len(p.aggs) > 0 || len(p.groupBy) > 0
	// A LIMIT with nothing downstream that needs every row (grouping,
	// DISTINCT, ORDER BY) takes the first rows: project only those.
	if !groupMode && !p.distinct && len(p.orderBy) == 0 && p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}

	var outRows []Row
	var orderInputs []Row // input (or group sample) row per output row
	if groupMode {
		groups, order, err := groupRows(rows, p.groupBy, p.aggs, params)
		if err != nil {
			return err
		}
		for _, key := range order {
			g := groups[key]
			gctx := &evalCtx{row: g.sample, aggs: g.aggValues(), params: params}
			if p.having != nil {
				hv, err := eval(p.having, gctx)
				if err != nil {
					return err
				}
				if !hv.Truth() {
					continue
				}
			}
			or := make(Row, len(p.outExprs))
			for i, oe := range p.outExprs {
				v, err := eval(oe, gctx)
				if err != nil {
					return err
				}
				or[i] = v
			}
			outRows = append(outRows, or)
			orderInputs = append(orderInputs, g.sample)
		}
	} else {
		ec := &evalCtx{params: params}
		outRows = make([]Row, 0, len(rows))
		orderInputs = rows // one output row per input row, in order
		for ri, r := range rows {
			if ri%cancelCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			ec.row = r
			or := make(Row, len(p.outExprs))
			for i, oe := range p.outExprs {
				v, err := eval(oe, ec)
				if err != nil {
					return err
				}
				or[i] = v
			}
			outRows = append(outRows, or)
		}
	}

	if p.distinct {
		seen := make(map[string]bool, len(outRows))
		kept := outRows[:0]
		// orderInputs may be a view's shared slice: compact into a new one.
		keptIn := make([]Row, 0, len(orderInputs))
		for i, r := range outRows {
			var sb strings.Builder
			for _, v := range r {
				sb.WriteString(v.key())
				sb.WriteByte('|')
			}
			k := sb.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
				keptIn = append(keptIn, orderInputs[i])
			}
		}
		outRows = kept
		orderInputs = keptIn
	}

	if len(p.orderBy) > 0 {
		var err error
		if outRows, err = p.order(outRows, orderInputs, params); err != nil {
			return err
		}
	}
	if p.limit >= 0 && len(outRows) > p.limit {
		outRows = outRows[:p.limit]
	}
	res.Rows = outRows
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
// Under a LIMIT k only the best k rows seen so far are kept, so the
// sort costs O(n log k) and k key slices, not n.
func (p *selectPlan) order(outRows, inputs []Row, params []Value) ([]Row, error) {
	keep := len(outRows)
	if p.limit >= 0 && p.limit < keep {
		keep = p.limit
	}
	nk := len(p.orderBy)
	h := &topRows{specs: p.orderBy, items: make([]sortItem, 0, keep)}
	keySlab := make([]Value, keep*nk)
	ec := &evalCtx{params: params}
	cand := sortItem{keys: make([]Value, nk)}
	for i, r := range outRows {
		for oi, spec := range p.orderBy {
			if spec.outIdx >= 0 {
				cand.keys[oi] = r[spec.outIdx]
				continue
			}
			ec.row = inputs[i]
			v, err := eval(spec.expr, ec)
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
