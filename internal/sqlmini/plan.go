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

	filter []Expr // pushed-down conjuncts; they read only this scan's row

	planRows int // view row count at plan time, for drift detection
}

// colPos names a column of a tuple: column col of scan's row.
type colPos struct{ scan, col int }

// joinNode joins scans[i+1] to the tuples over scans[0..i].
type joinNode struct {
	leftKeys  []colPos // key columns within the prefix tuple
	rightKeys []int    // key columns within the joined table's row
	extra     []Expr   // residual conjuncts over prefix and joined table
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
	// table to the prefix become hash keys, the rest are residuals.
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
		scanned, err := s.scan(x, i, tv)
		if err != nil {
			return err
		}
		if len(scanned) > math.MaxInt32 {
			return fmt.Errorf("sqlmini: scan of %q yields %d rows, more than a join can address", s.table, len(scanned))
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
		idx, hit := tv.pk.get(kv.key())
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
		if matches, indexed := tv.lookupIndex(s.keyCol, kv); indexed {
			x.res.Scanned += int64(len(matches))
			hits := make([]Row, len(matches))
			for i, ri := range matches {
				hits[i] = tv.rows.at(ri)
			}
			return s.filterOwned(x, k, hits)
		}
		// The view predates the index (pinned snapshot): scan, applying
		// the consumed equality with the index's key semantics.
		x.res.Scanned += int64(tv.rows.len())
		kk := kv.key()
		hits := make([]Row, 0, 16)
		for c := 0; c < tv.rows.runs(); c++ {
			if err := x.ctx.Err(); err != nil {
				return nil, err
			}
			for _, r := range tv.rows.run(c) {
				if r[s.keyCol].key() == kk {
					hits = append(hits, r)
				}
			}
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
// conjunct, each evaluated with the row as the tuple's k-th. dst may be
// rows[:0]: filtering in place never overtakes the read position.
func (s *scanNode) appendFiltered(x *execRun, k int, dst, rows []Row) ([]Row, error) {
rows:
	for i, r := range rows {
		if err := x.poll(i); err != nil {
			return nil, err
		}
		x.ec.tup[k] = r
		for _, f := range s.filter {
			fv, err := eval(f, &x.ec)
			if err != nil {
				return nil, err
			}
			if !fv.Truth() {
				continue rows
			}
		}
		dst = append(dst, r)
	}
	return dst, nil
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

// join extends the prefix tuples by one table's rows. Equi-joins hash
// the smaller side and probe with the other; the output follows the
// probe side's order, and within one probe element the build side's.
// Both are deterministic functions of the input data, and later steps,
// LIMIT and float aggregates depend on them. Build and probe loops
// observe context cancellation.
func (j *joinNode) join(x *execRun, left tuples, right []Row) (tuples, error) {
	out := tuples{w: left.w + 1, ids: make([]int32, 0, left.n*(left.w+1))}

	// emit appends the tuple (prefix tuple li, row ri) if it passes the
	// residual conjuncts; only those ever read it before it is appended.
	emit := func(li, ri int) error {
		if len(j.extra) > 0 {
			x.load(&left, li)
			x.ec.tup[left.w] = right[ri]
			for _, ex := range j.extra {
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
			out.ids = append(out.ids, int32(li), int32(ri))
		} else {
			out.ids = append(append(out.ids, left.ids[li*left.w:(li+1)*left.w]...), int32(ri))
		}
		out.n++
		return nil
	}

	if len(j.leftKeys) == 0 {
		// Nested loop: no equi keys link this table to the prefix.
		// Scanned counts evaluated pairs, as the pre-planner executor did.
		for li := 0; li < left.n; li++ {
			for ri := range right {
				if err := x.poll(int(x.res.Scanned)); err != nil {
					return tuples{}, err
				}
				x.res.Scanned++
				if err := emit(li, ri); err != nil {
					return tuples{}, err
				}
			}
		}
		return out, nil
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
			if err := emit(li, ri); err != nil {
				return tuples{}, err
			}
		}
	}
	return out, nil
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
