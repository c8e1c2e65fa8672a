package sqlmini

//qcpa:deterministic — plan choice feeds replicated execution; the same
// statement and statistics must yield a bit-identical plan on every
// replica, run, and worker count.

// This file is the sqlmini query planner (DESIGN.md §13):
//
//   - Normalized-statement plan cache. Parse keys every SELECT by its
//     own tokens, with each literal's tokens (a leading sign included)
//     written as "?"; the literal values travel beside the shape as the
//     statement's params. The cache maps that key -> fully bound plan,
//     so repeated query classes skip parsing's downstream work
//     entirely: binder resolution, conjunct analysis, join ordering,
//     and output binding all happen once per class. A cached plan is valid for a view, not for a generation: it
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
//     A scan whose conjuncts hold an indexed column between constants
//     reads the interval's run through the index's ordered member when
//     that is a small share of the table (rangeScanFactor), and the rows
//     come in the order the filtered scan would have kept them in. ORDER
//     BY <indexed column> LIMIT k may walk that order instead of sorting
//     (selectPlan.walk), and a one-table LIMIT with no ORDER BY stops its
//     scan at the k-th row. selectPlan.describe prints the choices.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"qcpa/internal/stats"
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

// rangeScanFactor is the one rule that picks how a scan reads an
// interval of an indexed column (scanNode.rangeCol): through the index's
// ordered member when the interval's run — counted exactly by two binary
// searches before any row is read — times this factor is below the
// table's row count, else by scanning and filtering as if there were no
// index. BenchmarkRangeScan measures the crossover; CHANGES.md (PR 18)
// quotes it.
const rangeScanFactor = 4

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
	expr Expr   // unbound
	mask uint64 // bitmask of textual table indices referenced

	// Equi-join shape: tblL.colL = tblR.colR across two tables.
	isEquiJoin       bool
	eqLTable, eqLCol int
	eqRTable, eqRCol int

	// Single-table constant shape and selectivity class.
	kind     predKind
	constCol int  // column (within its table) for predEqConst and intervals
	constVal Expr // the Lit of a predEqConst
	inLen    int

	// interval marks a predRange / predBetween that holds a bare column
	// between constants: col < k, k <= col, col BETWEEN k AND k. lo and hi
	// are the ends it sets; an index on the column finds the rows between
	// them without reading the others.
	interval bool
	lo, hi   bound
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
	walkExpr(e, func(x Expr) bool {
		if cr, ok := x.(*ColRef); ok {
			*out = append(*out, cr)
		}
		return true
	})
}

// isConstExpr reports whether e evaluates without a row: a literal.
func isConstExpr(e Expr) bool {
	_, ok := e.(*Lit)
	return ok
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
				col, k, op := x.L, x.R, x.Op
				if isConstExpr(col) { // k < col reads col > k
					col, k, op = k, col, flipped[op]
				}
				if cr, ok := col.(*ColRef); ok && isConstExpr(k) {
					_, c.constCol, _ = tb.resolve(cr)
					c.interval = true
					if b := (bound{expr: k, incl: len(op) == 2}); op[0] == '>' {
						c.lo = b
					} else {
						c.hi = b
					}
				}
			}
		case "LIKE":
			if nTables == 1 {
				c.kind = predLike
			}
		}
	case *Between:
		if nTables == 1 {
			c.kind = predBetween
			if cr, ok := x.E.(*ColRef); ok && !x.Negate && isConstExpr(x.Lo) && isConstExpr(x.Hi) {
				_, c.constCol, _ = tb.resolve(cr)
				c.interval = true
				c.lo, c.hi = bound{expr: x.Lo, incl: true}, bound{expr: x.Hi, incl: true}
			}
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

// chooseJoinOrder picks the join order for the graph's tables and
// returns it with the model's cost for it; first >= 0 fixes the table
// the order starts from (an ordered walk's). Exact left-deep DP up to
// maxDPTables, greedy beyond. The order is a permutation of 0..n-1 and
// a pure function of the graph: bitmask-indexed slices and ascending
// iteration keep it bit-identical across runs.
func (g *joinGraph) chooseJoinOrder(first int) ([]int, float64) {
	n := len(g.cards)
	if n <= 1 {
		return []int{0}, g.read[0]
	}
	if n <= maxDPTables {
		return g.dpJoinOrder(first)
	}
	return g.greedyJoinOrder(first)
}

func (g *joinGraph) dpJoinOrder(first int) ([]int, float64) {
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
		if first < 0 || i == first {
			dp[uint64(1)<<uint(i)] = dpEnt{cost: g.read[i], card: g.cards[i], last: i, prev: 0, ok: true}
		}
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
				continue // prev is reachable only through a keyless step, or lacks first
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
	return order, dp[full].cost
}

func (g *joinGraph) greedyJoinOrder(start int) ([]int, float64) {
	n := len(g.cards)
	order := make([]int, 0, n)
	if start < 0 {
		start = 0
		for i := 1; i < n; i++ {
			if g.cards[i] < g.cards[start] {
				start = i
			}
		}
	}
	order = append(order, start)
	placed := uint64(1) << uint(start)
	cost, curCard := g.read[start], g.cards[start]
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
		cost, curCard = cost+bestStep.cost, bestStep.out
	}
	return order, cost
}

// joined estimates the tuples the join of every table hands on, which
// no order changes: each table's pushed-down cardinality and each
// linked pair's selectivity enter it once.
func (g *joinGraph) joined() float64 {
	out := 1.0
	for _, c := range g.cards {
		out *= c
	}
	for _, e := range g.edges {
		out *= e.sel
	}
	return out
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
	// A scan of every row splits filter (vecConds): vec, the comparisons
	// it checks on a sealed chunk's column vectors, and rest, what eval
	// makes of the rows those leave. Reading rows by position — a probe,
	// an index's run — evaluates filter (or inRange) as it stands.
	vec  []vecCond
	rest []Expr

	// A scan of every row (accessFull) whose filter holds an indexed
	// column between constants carries that range: the column (-1: none),
	// the interval, and inRange, the filter without the conjuncts the
	// interval came from — what is left to check on a row the index's
	// ordered member found inside it. Each run that scans the table
	// applies one rule (rangeScanFactor) to the exact size of the
	// interval's run: small enough, it reads those rows through the index,
	// in position order; else it scans and filters. An ordered walk
	// (selectPlan.walk) reads its first table through the same fields,
	// with or without ends.
	rangeCol int
	lo, hi   bound
	inRange  []Expr
	runShare float64 // the model's estimate of the interval's share of the table

	// limit is how many rows the statement can use of this scan, -1 for
	// all of them: the LIMIT of a one-table statement with no ORDER BY,
	// grouping or DISTINCT, which takes whichever rows come first. The
	// scan stops at that many passing rows.
	limit int

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

	// ints marks a step whose one key pair joins two columns declared INT:
	// its hash table is keyed by the int64 itself (joinNode.intKey), which
	// matches exactly the pairs the hkeys of the two Values would.
	ints bool
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
	groupKey []Expr // what identifies a group (groupKey's doc): groupBy, less what a grouped pk determines
	groupInt bool   // groupKey is one or two bare INT columns: hashed as their int64s
	having   Expr
	distinct bool
	orderBy  []orderSpec
	limit    int

	// walk marks an ORDER BY <indexed column> LIMIT k answered in index
	// order: scans[0] is that column's table, read through the ordered
	// member of its index (scanNode.rangeCol) in key order, a window at a
	// time, until k tuples have come through the join steps — which keep
	// the prefix's order — or the index ends. finish then sorts nothing.
	walk     bool
	walkDesc bool

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
// table, how the step reaches it, the conjuncts it checks on each row it
// reaches, and the tuples the model expects the step to hand on. The
// access is
//
//	full                     scan of every row (first step)
//	pk=                      primary-key probe by a constant
//	index(col)=              secondary-index probe by a constant
//	index(col) in [lo, hi)   the rows of an interval, through the index's order
//	index(col) asc|desc      ordered walk: rows in index order, a window at a time
//	probe pk                 join step: pk probe per prefix tuple, no scan
//	probe index(col)         join step: index probe per prefix tuple, no scan
//	hash                     join step: scan, then hash join on the equi keys
//	cross                    join step: scan, then every pair (no equi key)
//
// with "limit k" where the step stops at k rows. A join step that can
// probe is shown as a run with the model's prefix would execute it; the
// bound follows in parentheses either way, since each run applies it to
// its own prefix. The same goes for an interval: it is shown as the
// model's estimate of its run would be read — "index(col) in [lo, hi)
// (run < n)", or "full (run >= n of index(col) in [lo, hi))" — and each
// run measures its own against n. A join step that scans its table
// names the scan after the join.
func (p *selectPlan) describe() string {
	var sb strings.Builder
	for i := range p.scans {
		s := &p.scans[i]
		walked := p.walk && i == 0
		// The scan by itself.
		access, filter := "full", s.filter
		switch {
		case s.access == accessPkEq:
			access = "pk="
		case s.access == accessIdxEq:
			access = "index(" + s.t.Cols[s.keyCol].Name + ")="
		case s.rangeCol >= 0:
			access = "index(" + s.t.Cols[s.rangeCol].Name + ")"
			if s.lo.expr != nil || s.hi.expr != nil {
				access += " in " + intervalString(s.lo, s.hi)
			}
			below := (s.planRows + rangeScanFactor - 1) / rangeScanFactor
			switch {
			case walked && p.walkDesc:
				access, filter = access+" desc", s.inRange
			case walked:
				access, filter = access+" asc", s.inRange
			case s.runShare*rangeScanFactor < 1:
				access, filter = fmt.Sprintf("%s (run < %d)", access, below), s.inRange
			default:
				access = fmt.Sprintf("full (run >= %d of %s)", below, access)
			}
		}
		if walked {
			access += fmt.Sprintf(" limit %d", p.limit)
		} else if s.limit >= 0 {
			access += fmt.Sprintf(" limit %d", s.limit)
		}
		// The join step that adds it.
		if i > 0 {
			j := &p.joins[i-1]
			join := ""
			switch {
			case j.probe >= 0:
				via := "pk"
				if col := j.rightKeys[j.probe]; col != s.t.pkCol {
					via = "index(" + s.t.Cols[col].Name + ")"
				}
				if p.scans[i-1].estRows < float64(j.probeBelow) {
					access, filter = fmt.Sprintf("probe %s (prefix < %d)", via, j.probeBelow), s.filter
				} else {
					join = fmt.Sprintf("hash (prefix >= %d of %s)", j.probeBelow, via)
				}
			case len(j.leftKeys) == 0:
				join = "cross"
			case s.access == accessFull:
				join = "hash"
			}
			if join != "" && s.rangeCol >= 0 {
				access = join + ", " + access
			} else if join != "" {
				access = join
			}
		}
		filters := make([]string, len(filter))
		for k, f := range filter {
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

// intervalString renders an interval's ends the way mathematics writes
// them: [lo, hi] with a round bracket at an end that is outside, -inf /
// +inf at one that is open.
func intervalString(lo, hi bound) string {
	l, r := "(-inf", "+inf)"
	if lo.expr != nil {
		if l = "(" + exprString(lo.expr); lo.incl {
			l = "[" + exprString(lo.expr)
		}
	}
	if hi.expr != nil {
		if r = exprString(hi.expr) + ")"; hi.incl {
			r = exprString(hi.expr) + "]"
		}
	}
	return l + ", " + r
}

// exprString renders a bound expression for describe.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *Lit:
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
		for _, k := range stats.ColdestEighth(c.entries, func(en *planEntry) int64 { return en.uses.Load() }) {
			delete(c.entries, k)
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

// planFor returns a plan for the SELECT shape sh valid against v,
// consulting the cache under the key Parse rendered. Plans built against
// the engine's current view are cached; plans built against a pinned
// historical view (or racing a concurrent publish) are transient.
func (e *Engine) planFor(sh *Shape, v *readView) (*selectPlan, error) {
	current := v == e.view.Load()
	if p := e.plans.lookup(sh.key, v, current); p != nil {
		return p, nil
	}
	p, err := e.buildPlan(sh.AST.(*SelectStmt), v)
	if err != nil {
		return nil, err
	}
	e.plans.notePlan(p)
	if current {
		e.plans.store(sh.key, p)
	}
	return p, nil
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
	sel, ok := st.AST.(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqlmini: Explain requires SELECT, got %T", st.AST)
	}
	p, err := e.buildPlan(sel, e.loadView())
	if err != nil {
		return "", err
	}
	return p.describe(), nil
}

// tableAccess is how a scan reaches its table, chosen from the table's
// own conjuncts — the access fields of the scanNode it will become — and
// which of the conjuncts the choice used up: consumed, the equality a
// probe by a constant makes true of every row it finds, and loFrom and
// hiFrom, where a range's ends came from (one end each, so a second
// bound on the same side stays a filter). -1 for none.
type tableAccess struct {
	scanNode
	consumed, loFrom, hiFrom int
}

// chooseAccess picks the access of one table: by the constant of an
// equality on the primary key, else on an indexed column, else by
// reading every row — where the first indexed column a conjunct holds
// between constants gives the scan its range. orderCol >= 0 asks for an
// ordered walk of that indexed column instead: no probe by a constant,
// and a range on that column alone, with ends or without.
func chooseAccess(tv *tableView, conjs []conjunct, orderCol int) tableAccess {
	ac := tableAccess{consumed: -1, loFrom: -1, hiFrom: -1}
	ac.access, ac.rangeCol, ac.runShare, ac.limit = accessFull, orderCol, 1, -1
	if orderCol < 0 {
		for ci, cj := range conjs {
			if cj.kind == predEqConst && cj.constCol == tv.t.pkCol {
				ac.access, ac.keyCol, ac.keyExpr, ac.consumed = accessPkEq, cj.constCol, cj.constVal, ci
				return ac
			}
		}
		for ci, cj := range conjs {
			if cj.kind == predEqConst && tv.index(cj.constCol) != nil {
				ac.access, ac.keyCol, ac.keyExpr, ac.consumed = accessIdxEq, cj.constCol, cj.constVal, ci
				return ac
			}
		}
	}
	for ci, cj := range conjs {
		if !cj.interval || (ac.rangeCol >= 0 && cj.constCol != ac.rangeCol) || tv.index(cj.constCol) == nil {
			continue
		}
		if (cj.lo.expr != nil && ac.lo.expr != nil) || (cj.hi.expr != nil && ac.hi.expr != nil) {
			continue // that end is taken
		}
		ac.rangeCol = cj.constCol
		if cj.lo.expr != nil {
			ac.lo, ac.loFrom = cj.lo, ci
		}
		if cj.hi.expr != nil {
			ac.hi, ac.hiFrom = cj.hi, ci
		}
		ac.runShare *= conjunctSelectivity(cj, tv)
	}
	return ac
}

// reads is the model's count of the rows the access reads: one pk row,
// one index bucket, the interval's run where the model's estimate of it
// passes the rule each run applies to the real one (rangeScanFactor),
// else the table.
func (ac *tableAccess) reads(tv *tableView) float64 {
	rows := max(float64(tv.rows.len()), 1)
	switch {
	case ac.access != accessFull:
		return tv.bucket(ac.keyCol)
	case ac.rangeCol >= 0 && ac.runShare*rangeScanFactor < 1:
		return rows * ac.runShare
	}
	return rows
}

// outputColumns names the statement's output columns — an item's alias,
// else its column's name, else colN by position; SELECT * expands in
// textual table order — and gives, beside each name, the column
// reference behind it (nil for a computed item).
func outputColumns(st *SelectStmt, tb *binder) (names []string, srcs []*ColRef) {
	for _, it := range st.Items {
		if it.Star {
			for _, bt := range tb.tables {
				for _, c := range bt.cols {
					names, srcs = append(names, c.Name), append(srcs, &ColRef{Table: bt.alias, Column: c.Name})
				}
			}
			continue
		}
		src, _ := it.Expr.(*ColRef)
		name := it.Alias
		if name == "" && src != nil {
			name = src.Column
		} else if name == "" {
			name = fmt.Sprintf("col%d", len(names)+1)
		}
		names, srcs = append(names, name), append(srcs, src)
	}
	return names, srcs
}

// orderColumn resolves the ORDER BY of a statement with exactly one
// item to the textual table and the column it sorts by, when that is a
// plain column: the one behind the first output column an unqualified
// name selects or, when it selects none, the reference itself.
func orderColumn(st *SelectStmt, tb *binder, outNames []string, outSrcs []*ColRef) (table, col int, ok bool) {
	if len(st.OrderBy) != 1 {
		return 0, 0, false
	}
	cr, isCol := st.OrderBy[0].Expr.(*ColRef)
	if !isCol {
		return 0, 0, false
	}
	if at := slices.Index(outNames, cr.Column); cr.Table == "" && at >= 0 {
		if cr = outSrcs[at]; cr == nil {
			return 0, 0, false // sorts by a computed output
		}
	}
	table, col, err := tb.resolve(cr)
	return table, col, err == nil
}

// buildPlan compiles one SELECT against a view: conjunct analysis,
// access-path selection, join ordering, and output binding. st is only
// read: bind copies every expression the plan keeps.
func (e *Engine) buildPlan(st *SelectStmt, v *readView) (*selectPlan, error) {
	// Textual table list.
	type tableRef struct {
		name, alias string
		tv          *tableView
	}
	refs := make([]tableRef, 0, 1+len(st.Joins))
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
	if err := addRef(st.Table, st.Alias); err != nil {
		return nil, err
	}
	for _, j := range st.Joins {
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
		tb.addTable(r.alias, r.tv.t.Cols)
	}

	// Split and classify conjuncts from WHERE and every ON.
	var conjExprs []Expr
	splitConjuncts(st.Where, &conjExprs)
	for _, j := range st.Joins {
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
	access := make([]tableAccess, n)
	g := &joinGraph{rows: make([]float64, n), read: make([]float64, n), cards: make([]float64, n)}
	for i, r := range refs {
		access[i] = chooseAccess(r.tv, perTable[i], -1)
		rows := max(float64(r.tv.rows.len()), 1)
		card := rows
		for _, cj := range perTable[i] {
			card *= conjunctSelectivity(cj, r.tv)
		}
		g.rows[i], g.read[i], g.cards[i] = rows, access[i].reads(r.tv), max(card, 1e-3)
	}

	// Equi edges for the cost model. A table with an access path of its
	// own is not probed by a join step: its scan already reads a bucket.
	bucket := func(table, col int) float64 {
		if access[table].access != accessFull {
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

	order, cost := g.chooseJoinOrder(-1)

	p := &selectPlan{
		tables: n,
		consts: consts,
		limit:  st.Limit,
	}

	// A LIMIT with no grouping, aggregate or DISTINCT needs only the rows
	// that come first: whichever they are without an ORDER BY (the scan of
	// a one-table statement stops there), and under ORDER BY <indexed
	// column> the first in that index's order. An ordered walk starts from
	// the column's table and reads a share of its index entries: the LIMIT
	// over the tuples the whole join would hand on. The model prices that
	// plan — the table's reads and cardinality cut to the share, the other
	// steps chosen for so small a prefix — against the best plan in any
	// order plus one unit per tuple for projecting and sorting its output.
	var aggs []*Agg
	for _, it := range st.Items {
		collectAggs(it.Expr, &aggs)
	}
	firstRows := st.Limit >= 0 && len(aggs) == 0 && len(st.GroupBy) == 0 && st.Having == nil && !st.Distinct
	if firstRows && n == 1 && len(st.OrderBy) == 0 {
		access[0].limit = st.Limit
	}
	outNames, outSrcs := outputColumns(st, tb)
	p.outNames = outNames
	if wt, wcol, ok := orderColumn(st, tb, outNames, outSrcs); ok && firstRows && refs[wt].tv.index(wcol) != nil {
		wa := chooseAccess(refs[wt].tv, perTable[wt], wcol)
		out := g.joined()
		share := min(float64(st.Limit)/out, 1)
		gw := *g
		gw.read, gw.cards = slices.Clone(g.read), slices.Clone(g.cards)
		gw.read[wt], gw.cards[wt] = share*wa.runShare*g.rows[wt], max(share*g.cards[wt], 1e-3)
		if worder, wcost := gw.chooseJoinOrder(wt); wcost < cost+out {
			g, order, access[wt] = &gw, worder, wa
			p.walk, p.walkDesc = true, st.OrderBy[0].Desc
		}
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
		pb.addTable(refs[ti].alias, refs[ti].tv.t.Cols)
	}

	// Scans in join order, with their pushed-down filters.
	for _, ti := range order {
		r := refs[ti]
		ac := access[ti]
		s := ac.scanNode
		s.table, s.alias, s.t = r.name, r.alias, r.tv.t
		s.indexes, s.planRows = len(r.tv.indexes), r.tv.rows.len()
		for ci, cj := range perTable[ti] {
			if ci == ac.consumed {
				continue
			}
			be, err := bind(cj.expr, pb)
			if err != nil {
				return nil, err
			}
			s.filter = append(s.filter, be)
			if ci != ac.loFrom && ci != ac.hiFrom {
				s.inRange = append(s.inRange, be)
			}
		}
		s.vec, s.rest = vecConds(s.filter, s.t)
		p.scans = append(p.scans, s)
	}

	// The declared type of a bound column picks the specialisations below.
	colType := func(scan, col int) Kind { return p.scans[scan].t.Cols[col].Type }

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
		jn.ints = len(jn.leftKeys) == 1 && colType(pos, jn.rightKeys[0]) == KindInt &&
			colType(jn.leftKeys[0].scan, jn.leftKeys[0].col) == KindInt
		p.joins = append(p.joins, jn)
		placed = nowPlaced
	}

	// Output expressions. SELECT * expands in textual table order (the
	// user-visible contract), whatever the join order.
	for _, it := range st.Items {
		if it.Star {
			for ti := 0; ti < n; ti++ {
				t := refs[ti].tv.t
				for col := range t.Cols {
					p.outExprs = append(p.outExprs, &boundCol{table: scanOf[ti], col: col, name: t.Cols[col].Name})
				}
			}
			continue
		}
		be, err := bind(it.Expr, pb)
		if err != nil {
			return nil, err
		}
		p.outExprs = append(p.outExprs, be)
	}

	// Aggregates, grouping, HAVING.
	for _, oe := range p.outExprs {
		collectAggs(oe, &p.aggs)
	}
	if st.Having != nil {
		h, err := bind(st.Having, pb)
		if err != nil {
			return nil, err
		}
		p.having = h
		collectAggs(p.having, &p.aggs)
	}
	for i, a := range p.aggs { // nodes of the plan's own bound copies
		a.slot = i
		// SUM, AVG and COUNT keep a count and a float sum (groups.add): of
		// a bare numeric column they add the vector's element as it is.
		if bc, ok := a.E.(*boundCol); ok && !a.Distinct && (a.Func == "SUM" || a.Func == "AVG" || a.Func == "COUNT") {
			if kind := colType(bc.table, bc.col); kind == KindInt || kind == KindFloat {
				a.bare = bc
			}
		}
	}
	for _, g := range st.GroupBy {
		bg, err := bind(g, pb)
		if err != nil {
			return nil, err
		}
		p.groupBy = append(p.groupBy, bg)
	}
	p.groupKey = groupKey(p.groupBy, p.scans)
	p.groupInt = len(p.groupKey) > 0 && len(p.groupKey) <= 2
	for _, ke := range p.groupKey {
		bc, ok := ke.(*boundCol)
		p.groupInt = p.groupInt && ok && colType(bc.table, bc.col) == KindInt
	}
	p.distinct = st.Distinct

	// ORDER BY: output column by name, else bound input-row expression.
	for _, ob := range st.OrderBy {
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

// groupKey returns what identifies a group of the bound GROUP BY list:
// the list less every other bare column of a scan whose pk column is
// itself on the list. The pk index holds a table's pk unique under
// keyOf, and a tuple's row of a scan is always a stored row (there are
// no outer joins), so tuples whose pks are the same key hold the same
// row of that scan and agree on all its columns: the key partitions the
// tuples as the whole list would. The rule is per scan, so a self-join
// grouped by one side's pk keeps the other side's columns.
func groupKey(groupBy []Expr, scans []scanNode) []Expr {
	pkGrouped := make([]bool, len(scans))
	for _, ge := range groupBy {
		if bc, ok := ge.(*boundCol); ok && bc.col == scans[bc.table].t.pkCol {
			pkGrouped[bc.table] = true
		}
	}
	var key []Expr
	for _, ge := range groupBy {
		if bc, ok := ge.(*boundCol); ok && pkGrouped[bc.table] && bc.col != scans[bc.table].t.pkCol {
			continue
		}
		key = append(key, ge)
	}
	return key
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

// tuples is what one join step hands to the next: n tuples over the
// first w scans of the plan, each tuple the positions of its base rows
// in those scans' tables. A step that matches a prefix tuple with a row
// appends w+1 integers; no column is copied until an expression reads
// it, whatever the width of the joined tables, and the slab holds no
// pointer for the collector to follow. Tuples keep the order the step
// produced them in. A scan's output is tuples of width one — the
// positions of the rows it kept — and may be an index's own slice: ids
// is never written once handed on.
type tuples struct {
	w    int
	n    int
	ids  []int32 // n*w positions, tuple-major; nil when w == 1 and tuple i is the row at position from+i
	from int     // with nil ids: where the run of rows starts (a whole table's at 0, a pk probe's at its row)
}

// pos returns the position of tuple i's row of the given scan.
func (t *tuples) pos(i, scan int) int {
	if t.ids == nil {
		return t.from + i
	}
	return int(t.ids[i*t.w+scan])
}

// execRun is the state of one execution of a plan. Everything a run
// writes lives here and nothing of it in the selectPlan, so any number
// of goroutines may run one plan at once; the stores are referenced,
// never written.
type execRun struct {
	ctx    context.Context
	p      *selectPlan
	v      *readView
	res    *Result
	stores []*rowStore // the rows of each scan's table, in join order
	ec     evalCtx     // ec.cur is the current tuple, one cursor per scan

	// An ordered walk sends one window of prefix tuples after another
	// through the join steps. kept[i] is what step i keeps between
	// windows, nil for any other plan.
	kept []stepState
}

// stepState is what a join step of an ordered walk decides or builds on
// its first window and reuses on the later ones: how it reaches its
// table, the output of its scan, and the hash table over it.
type stepState struct {
	reached, probes bool
	right           tuples
	build           *hashBuild
}

// smallRun backs the per-scan state of a plan over at most
// len(smallRun.cur) tables with one allocation, which keeps a pk probe
// at the allocation count it had before tuples existed.
type smallRun struct {
	stores [2]*rowStore
	cur    [2]cursor
}

// load makes tuple i of in the current tuple. i < 0 stands for the
// tuple an aggregation over no rows evaluates its plain columns
// against: every column NULL.
func (x *execRun) load(in *tuples, i int) {
	if i < 0 {
		for k := range x.p.scans {
			x.ec.cur[k] = cursor{row: make(Row, len(x.p.scans[k].t.Cols))}
		}
		return
	}
	if in.ids == nil {
		x.stores[0].seek(&x.ec.cur[0], in.from+i)
		return
	}
	for k, pos := range in.ids[i*in.w : (i+1)*in.w] {
		x.stores[k].seek(&x.ec.cur[k], int(pos))
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
	x := &execRun{ctx: ctx, p: p, v: v, res: res}
	x.ec.params = params
	if n := len(p.scans); n <= len(smallRun{}.cur) {
		buf := new(smallRun)
		x.stores, x.ec.cur = buf.stores[:n], buf.cur[:n]
	} else {
		x.stores, x.ec.cur = make([]*rowStore, n), make([]cursor, n)
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
	for i := range p.scans {
		tv, ok := v.tables[p.scans[i].table]
		if !ok {
			return unknownTableError(p.scans[i].table)
		}
		if tv.rows.len() > math.MaxInt32 {
			return fmt.Errorf("sqlmini: %q holds %d rows, more than a join can address", p.scans[i].table, tv.rows.len())
		}
		x.stores[i] = &tv.rows
	}
	if p.walk {
		return p.runWalk(x)
	}
	first, err := p.scans[0].scan(x, 0, v.tables[p.scans[0].table])
	if err != nil {
		return err
	}
	cur, err := x.joinAll(first)
	if err != nil {
		return err
	}
	return p.finish(x, cur)
}

// joinAll takes tuples over the first scan through every join step.
func (x *execRun) joinAll(cur tuples) (tuples, error) {
	for i := 1; i < len(x.p.scans); i++ {
		var err error
		if cur, err = x.step(i, cur); err != nil {
			return tuples{}, err
		}
	}
	return cur, nil
}

// step extends the prefix tuples by scan i: by probing its table per
// tuple where the step's rule allows (joinNode.probeBelow), else by
// scanning it and joining. An ordered walk comes here once per window
// and does as the first window did, scanning and building at most once.
func (x *execRun) step(i int, cur tuples) (tuples, error) {
	s, j := &x.p.scans[i], &x.p.joins[i-1]
	tv := x.v.tables[s.table]
	probes, first := cur.n < j.probeBelow, true
	var keep *stepState
	if x.kept != nil {
		if keep = &x.kept[i]; keep.reached {
			probes, first = keep.probes, false
		}
		keep.reached, keep.probes = true, probes
	}
	if probes {
		return j.probeJoin(x, cur, s, tv)
	}
	var right tuples
	if first {
		var err error
		if right, err = s.scan(x, i, tv); err != nil {
			return tuples{}, err
		}
		if keep != nil {
			keep.right = right
		}
	} else {
		right = keep.right
	}
	return j.join(x, cur, right, keep)
}

// indexWalk hands out the entries of a run of an index's order in the
// order ORDER BY col [DESC] asks for, ties in ascending position either
// way: ascending that is the run as it stands; descending it is the
// run's groups of equal values taken from the back, each group forwards.
type indexWalk struct {
	tv   *tableView
	col  int
	desc bool
	run  []int32 // the part not handed out yet (less group, descending)
	// group is what is left of the equal-valued group a descending walk
	// is handing out.
	group []int32
}

// next appends up to n entries to dst.
func (w *indexWalk) next(dst []int32, n int) []int32 {
	if !w.desc {
		n = min(n, len(w.run))
		dst, w.run = append(dst, w.run[:n]...), w.run[n:]
		return dst
	}
	for n > 0 && len(w.group)+len(w.run) > 0 {
		if len(w.group) == 0 {
			end := len(w.run)
			at := end - 1
			v := w.tv.rows.value(int(w.run[at]), w.col)
			for at > 0 && Compare(w.tv.rows.value(int(w.run[at-1]), w.col), v) == 0 {
				at--
			}
			w.group, w.run = w.run[at:end], w.run[:at]
		}
		k := min(n, len(w.group))
		dst, w.group = append(dst, w.group[:k]...), w.group[k:]
		n -= k
	}
	return dst
}

// runWalk executes a plan whose first scan walks an index in ORDER BY
// order (selectPlan.walk). It takes a window of entries — LIMIT of them,
// then twice as many each time — keeps those whose rows pass the scan's
// filter and sends them through the join steps, until LIMIT tuples have
// come out or the interval is exhausted: every step keeps the order of
// its prefix, so the tuples are the first of the whole join's in ORDER
// BY order, ties in the order a scan of the table would have met them.
// Scanned counts the entries fetched and what the join steps examine.
func (p *selectPlan) runWalk(x *execRun) error {
	s := &p.scans[0]
	tv := x.v.tables[s.table]
	o := tv.index(s.rangeCol).ordered(tv) // schemaMatches holds the plan to views that carry the index
	from, to := 0, len(o.pos)             // without ends the NULLs are in: lowest, as Compare has them
	if s.lo.expr != nil || s.hi.expr != nil {
		var err error
		if from, to, err = o.run(tv, s.rangeCol, s.lo, s.hi, &x.ec); err != nil {
			return err
		}
	}
	w := indexWalk{tv: tv, col: s.rangeCol, desc: p.walkDesc, run: o.pos[from:to]}
	x.kept = make([]stepState, len(p.scans))
	all := tuples{w: len(p.scans)}
	var window []int32
	for size := p.limit; all.n < p.limit && len(w.run)+len(w.group) > 0; size *= 2 {
		if err := x.ctx.Err(); err != nil {
			return err
		}
		window = w.next(window[:0], size)
		x.res.Scanned += int64(len(window))
		cur := tuples{w: 1, ids: make([]int32, 0, len(window))}
		for _, ri := range window {
			if ok, err := s.passes(x, 0, int(ri), s.inRange); err != nil {
				return err
			} else if ok {
				cur.ids = append(cur.ids, ri)
			}
		}
		cur.n = len(cur.ids)
		cur, err := x.joinAll(cur)
		if err != nil {
			return err
		}
		all.ids, all.n = append(all.ids, cur.ids...), all.n+cur.n
	}
	return p.finish(x, all)
}

// scan produces the positions of the (filtered) rows of the plan's k-th
// table in a view, in position order, stopping at s.limit of them.
// Scanned counts the rows examined.
func (s *scanNode) scan(x *execRun, k int, tv *tableView) (tuples, error) {
	switch s.access {
	case accessPkEq:
		x.res.Scanned++
		kv, err := eval(s.keyExpr, &x.ec)
		if err != nil {
			return tuples{}, err
		}
		if kv.IsNull() {
			return tuples{w: 1}, nil // pk = NULL matches nothing
		}
		idx, hit := tv.pk.find(kv)
		if !hit {
			return tuples{w: 1}, nil
		}
		if ok, err := s.passes(x, k, idx, s.filter); err != nil || !ok {
			return tuples{w: 1}, err
		}
		return tuples{w: 1, n: 1, from: idx}, nil
	case accessIdxEq:
		kv, err := eval(s.keyExpr, &x.ec)
		if err != nil {
			return tuples{}, err
		}
		if kv.IsNull() {
			return tuples{w: 1}, nil // col = NULL matches nothing
		}
		// schemaMatches holds the plan to views that carry the index.
		return s.fetch(x, k, tv.index(s.keyCol).built(tv).lookup(kv), s.filter)
	}
	if s.rangeCol >= 0 {
		o := tv.index(s.rangeCol).ordered(tv)
		from, to, err := o.run(tv, s.rangeCol, s.lo, s.hi, &x.ec)
		if err != nil {
			return tuples{}, err
		}
		if (to-from)*rangeScanFactor < tv.rows.len() {
			return s.fetchRun(x, k, o.pos[from:to])
		}
	}
	if len(s.filter) == 0 && s.limit < 0 {
		x.res.Scanned += int64(tv.rows.len())
		return tuples{w: 1, n: tv.rows.len()}, nil
	}
	return s.scanAll(x, k, &tv.rows)
}

// scanAll reads every row: a sealed chunk at a time — the conjuncts that
// run on a column vector (s.vec) narrow a selection of the chunk's rows,
// the others (s.rest) are evaluated on what is left of it — then the
// tail, row by row.
func (s *scanNode) scanAll(x *execRun, k int, rows *rowStore) (tuples, error) {
	out := tuples{w: 1}
	if s.limit == 0 {
		return out, nil
	}
	var buf [rowChunkLen]uint16
	cur := &x.ec.cur[k]
	for ci, c := range rows.chunks {
		if err := x.ctx.Err(); err != nil {
			return tuples{}, err
		}
		sel := buf[:copy(buf[:], everyRow[:])]
		for _, vc := range s.vec {
			sel = vc.narrow(sel, c, x.ec.params[vc.lit.Slot])
		}
		cur.chunk = c
		for _, off := range sel {
			cur.off = int(off)
			if ok, err := passes(s.rest, &x.ec); err != nil {
				return tuples{}, err
			} else if !ok {
				continue
			}
			out.ids = append(out.ids, int32(ci*rowChunkLen+int(off)))
			if len(out.ids) == s.limit {
				x.res.Scanned += int64(off) + 1
				out.n = len(out.ids)
				return out, nil
			}
		}
		x.res.Scanned += rowChunkLen
	}
	cur.chunk = nil
	for i, r := range rows.tail {
		x.res.Scanned++
		cur.row = r
		if ok, err := passes(s.filter, &x.ec); err != nil {
			return tuples{}, err
		} else if !ok {
			continue
		}
		out.ids = append(out.ids, int32(len(rows.chunks)*rowChunkLen+i))
		if len(out.ids) == s.limit {
			break
		}
	}
	out.n = len(out.ids)
	return out, nil
}

// fetchRun returns the rows of a run of the range's index that pass the
// rest of the filter, in position order: the rows, and the order, a scan
// of the table would have kept.
func (s *scanNode) fetchRun(x *execRun, k int, run []int32) (tuples, error) {
	at := slices.Clone(run)
	slices.Sort(at)
	return s.fetch(x, k, at, s.inRange)
}

// fetch returns those of the given positions whose rows pass conds, in
// the order given, stopping at s.limit of them. at is only read, and is
// itself the result when nothing narrows it.
func (s *scanNode) fetch(x *execRun, k int, at []int32, conds []Expr) (tuples, error) {
	if len(conds) == 0 && s.limit < 0 {
		x.res.Scanned += int64(len(at))
		return tuples{w: 1, n: len(at), ids: at}, nil
	}
	most := len(at)
	if s.limit >= 0 {
		most = min(most, s.limit)
	}
	out := make([]int32, 0, most)
	for i, ri := range at {
		if s.limit >= 0 && len(out) >= s.limit {
			break
		}
		if err := x.poll(i); err != nil {
			return tuples{}, err
		}
		x.res.Scanned++
		if ok, err := s.passes(x, k, int(ri), conds); err != nil {
			return tuples{}, err
		} else if ok {
			out = append(out, ri)
		}
	}
	return tuples{w: 1, n: len(out), ids: out}, nil
}

// passes evaluates conds — pushed-down conjuncts of this scan — with the
// row at position pos as the tuple's k-th row, the only one they read.
func (s *scanNode) passes(x *execRun, k, pos int, conds []Expr) (bool, error) {
	x.stores[k].seek(&x.ec.cur[k], pos)
	return passes(conds, &x.ec)
}

// passes reports whether every one of conds holds of the current tuple.
func passes(conds []Expr, ec *evalCtx) (bool, error) {
	for _, f := range conds {
		fv, err := eval(f, ec)
		if err != nil || !fv.Truth() {
			return false, err
		}
	}
	return true, nil
}

// key loads into kv the join key of one input — prefix tuple i when
// ofLeft, else tuple i of the joined table's scan — and reports whether
// it can match at all: a key holding a NULL equals nothing, as the same
// predicate evaluated as a residual would find.
func (j *joinNode) key(x *execRun, left, right *tuples, ofLeft bool, i int, kv []Value) bool {
	for c := range kv {
		var v Value
		if ofLeft {
			k := j.leftKeys[c]
			v = x.stores[k.scan].value(left.pos(i, k.scan), k.col)
		} else {
			v = x.stores[left.w].value(right.pos(i, 0), j.rightKeys[c])
		}
		if v.IsNull() {
			return false
		}
		kv[c] = v
	}
	return true
}

// intKey is key for a step whose one key pair joins two INT columns
// (joinNode.ints): the key as the int64 it is stored as.
func (j *joinNode) intKey(x *execRun, left, right *tuples, ofLeft bool, i int) (int64, bool) {
	if ofLeft {
		k := j.leftKeys[0]
		return x.stores[k.scan].int(left.pos(i, k.scan), k.col)
	}
	return x.stores[left.w].int(right.pos(i, 0), j.rightKeys[0])
}

// joinOut collects the tuples one join step emits: prefix tuples of
// left extended by rows of the joined table.
type joinOut struct {
	extra []Expr // the step's residual conjuncts
	left  tuples
	out   tuples
}

func (j *joinNode) begin(left tuples) joinOut {
	return joinOut{extra: j.extra, left: left,
		out: tuples{w: left.w + 1, ids: make([]int32, 0, left.n*(left.w+1))}}
}

// emit appends the tuple (prefix tuple li, the joined table's row at
// position ri) if it passes the residual conjuncts; only those ever read
// it before it is appended. (x is a parameter, not a field: held in the
// joinOut it would escape, and every execution would pay for its execRun
// on the heap.)
func (o *joinOut) emit(x *execRun, li, ri int) error {
	left := &o.left
	if len(o.extra) > 0 {
		x.load(left, li)
		x.stores[left.w].seek(&x.ec.cur[left.w], ri)
		if ok, err := passes(o.extra, &x.ec); err != nil || !ok {
			return err
		}
	}
	if left.ids == nil {
		o.out.ids = append(o.out.ids, int32(left.from+li), int32(ri))
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
// The tuples come in prefix order, and within one prefix tuple in
// position order. Scanned counts the candidates examined (one per pk
// probe). A NULL key matches nothing, on either side.
func (j *joinNode) probeJoin(x *execRun, left tuples, s *scanNode, tv *tableView) (tuples, error) {
	k := left.w
	o := j.begin(left)
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
		kv := x.stores[pk.scan].value(left.pos(li, pk.scan), pk.col)
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
			for c, lk := range j.leftKeys {
				if c == j.probe {
					continue
				}
				lv, rv := x.stores[lk.scan].value(left.pos(li, lk.scan), lk.col), tv.rows.value(int(ri), j.rightKeys[c])
				if lv.IsNull() || rv.IsNull() || keyOf(lv) != keyOf(rv) {
					continue cands
				}
			}
			if ok, err := s.passes(x, k, int(ri), s.filter); err != nil {
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

// hashBuild is a hash join's build table. A chain links the build
// positions sharing a key: heads maps the key to the first, next[b]
// leads from b to the one after it (both +1, 0 ends the chain).
type hashBuild struct {
	heads *keyMap
	next  []int32
}

// join extends the prefix tuples by the rows a scan of one table kept.
// Equi-joins hash the smaller side and probe with the other; the output
// follows the probe side's order, and within one probe element the build
// side's. Both are deterministic functions of the input data, and later
// steps, LIMIT and float aggregates depend on them. A step of an ordered
// walk (keep non-nil) always probes with the prefix, whose order it must
// keep, and builds on the table's rows once for all its windows. Build
// and probe loops observe context cancellation.
func (j *joinNode) join(x *execRun, left, right tuples, keep *stepState) (tuples, error) {
	o := j.begin(left)

	if len(j.leftKeys) == 0 {
		// Nested loop: no equi keys link this table to the prefix.
		// Scanned counts evaluated pairs, as the pre-planner executor did.
		for li := 0; li < left.n; li++ {
			for ri := 0; ri < right.n; ri++ {
				if err := x.poll(int(x.res.Scanned)); err != nil {
					return tuples{}, err
				}
				x.res.Scanned++
				if err := o.emit(x, li, right.pos(ri, 0)); err != nil {
					return tuples{}, err
				}
			}
		}
		return o.out, nil
	}

	// Build on the table's rows unless the prefix is smaller. Building
	// from the back and pushing in front leaves every chain in ascending
	// position — insertion — order.
	buildLeft := keep == nil && left.n < right.n
	nBuild, nProbe := right.n, left.n
	if buildLeft {
		nBuild, nProbe = nProbe, nBuild
	}
	kv := make([]Value, len(j.leftKeys))
	var hb *hashBuild
	if keep != nil {
		hb = keep.build
	}
	if hb == nil {
		hb = &hashBuild{next: make([]int32, nBuild)}
		if j.ints {
			hb.heads = newKeyMap(1, 0)
			hb.heads.withInts(nBuild)
		} else {
			hb.heads = newKeyMap(len(j.leftKeys), nBuild)
		}
		for b := nBuild - 1; b >= 0; b-- {
			if err := x.poll(b); err != nil {
				return tuples{}, err
			}
			if j.ints {
				if k, ok := j.intKey(x, &left, &right, buildLeft, b); ok {
					hb.next[b] = hb.heads.getInts([2]int64{k})
					hb.heads.putInts([2]int64{k}, int32(b)+1)
				}
			} else if j.key(x, &left, &right, buildLeft, b, kv) {
				hb.next[b] = hb.heads.get(kv)
				hb.heads.put(kv, int32(b)+1)
			}
		}
		if keep != nil {
			keep.build = hb
		}
	}
	for i := 0; i < nProbe; i++ {
		if err := x.poll(i); err != nil {
			return tuples{}, err
		}
		var b int32
		if j.ints {
			if k, ok := j.intKey(x, &left, &right, !buildLeft, i); ok {
				b = hb.heads.getInts([2]int64{k})
			}
		} else if j.key(x, &left, &right, !buildLeft, i, kv) {
			b = hb.heads.get(kv)
		}
		for ; b != 0; b = hb.next[b-1] {
			li, ri := i, int(b-1)
			if buildLeft {
				li, ri = ri, li
			}
			if err := o.emit(x, li, right.pos(ri, 0)); err != nil {
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
	// DISTINCT, ORDER BY) takes the first ones: project only those. An
	// ordered walk's tuples come in ORDER BY order already.
	sorted := len(p.orderBy) == 0 || p.walk
	if !groupMode && !p.distinct && sorted && p.limit >= 0 && in.n > p.limit {
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
		gs, err := groupRows(x, in, p.groupKey, p.groupInt, p.aggs)
		if err != nil {
			return err
		}
		slab = make([]Value, len(gs.sample)*nout)
		outRows = make([]Row, 0, len(gs.sample))
		inputs = make([]int, 0, len(gs.sample))
		gctx := &evalCtx{cur: x.ec.cur, params: x.ec.params, aggs: make([]Value, len(p.aggs))}
		for g, sample := range gs.sample {
			x.load(&in, int(sample))
			gs.values(g, gctx.aggs)
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
			inputs = append(inputs, int(sample))
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

	if !sorted {
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
