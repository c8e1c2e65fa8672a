package sqlmini

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// secondaryIndex is the index a table declares on one column
// (Column.Indexed, CreateIndex). It has two members, each built lazily,
// on its first use, from the rows of the view that needs it:
//
//   - buckets, from value to row positions (indexBuckets): what an
//     equality with a constant and a join step probe. A lookup is one
//     directory probe — an offset or a hash — whatever the table's size.
//   - order, the row positions sorted by Compare(value), then position:
//     what a hash cannot serve. A range predicate finds its run of
//     matches with two binary searches, and ORDER BY col LIMIT k walks
//     the first k entries. Equality stays on the buckets: a binary search
//     is a dozen or more dependent cache misses, and a join step would
//     pay them once per prefix tuple.
//
// The Table holds only the definitions (indexCols); the instances hang
// off the published tableViews. A new view shares its predecessor's
// instance — either member built or not — whenever the writes in between
// added or moved no row and changed no stored value of the column
// (cutView), so both members are the same whichever of the sharing views
// builds them; otherwise it starts a fresh, empty one. This favors the
// CDBS read patterns (long read phases, updates that leave the indexed
// columns alone) without putting index maintenance on the write path.
// The index's own mutex serializes the lazy builds among concurrent
// readers.
//
//qcpa:lazycache idempotent builds from immutable rows, serialized by mu; shared only by views whose rows yield identical buckets and order
type secondaryIndex struct {
	mu      sync.Mutex
	col     int
	buckets *indexBuckets // nil until built
	order   *indexOrder   // nil until built
}

// indexBuckets is the built hash member: the positions of the rows
// holding each non-NULL value, ascending — one run per distinct value,
// all in one array (pos, the runs cut by off) — and a directory from a
// value to its run. An INT column whose non-NULL values span at most
// denseSpread times their count (keyMap's dense rule) takes direct
// offsets: the run of value v is the (v-lo)-th, empty for a value no row
// holds. Any other column takes a flat hash directory (a keyMap from the
// value's hkey to its run + 1) whose storage is the index's own. A probe
// formats and allocates nothing; NULLs are left out, as no equality
// matches them. It is never written once the build that filled it has
// returned, so a reader that took it under mu probes it without the
// lock.
type indexBuckets struct {
	pos   []int32 // every non-NULL row's position, grouped by value, ascending in a group
	off   []int32 // run r is pos[off[r]:off[r+1]]
	dense bool    // runs are by value: run r holds lo+r
	lo    int64
	dir   keyMap // !dense: a value's run + 1
	keys  int    // the distinct values
}

// CreateIndex declares a secondary index on table.column. Point lookups
// (WHERE column = literal) and join steps whose key lands on the column
// then probe it instead of scanning the table, a range predicate on the
// column reads the rows it matches, and ORDER BY column LIMIT k the first
// k in that order (secondaryIndex). Indexing the
// primary key is redundant (it always has one) and is rejected.
// Declaring an index the column already has — from an earlier call, or
// from Column.Indexed when the table was created — changes nothing: a
// loader may copy a table's columns and then its Indexes.
func (e *Engine) CreateIndex(table, column string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[table]
	if !ok {
		return unknownTableError(table)
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("sqlmini: unknown column %q in table %q", column, table)
	}
	if ci == t.pkCol {
		return fmt.Errorf("sqlmini: column %q is the primary key (already indexed)", column)
	}
	at, dup := slices.BinarySearch(t.indexCols, ci)
	if dup {
		return nil
	}
	t.indexCols = slices.Insert(t.indexCols, at, ci)
	// Republish so the new index definition reaches readers. Views cut
	// before this point lack the index; plans that could use it are
	// replaced as their statements next run (selectPlan.schemaMatches).
	t.touched = true
	e.dirty = true
	e.publishLocked()
	return nil
}

// Indexes returns the secondary-indexed column names of a table, in
// column order. Every copy of a table — a CutTable (or CloneTable)
// installed by CreateTable + BulkInsert — carries the same set.
func (e *Engine) Indexes(table string) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[table]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(t.indexCols))
	for _, col := range t.indexCols {
		out = append(out, t.Cols[col].Name)
	}
	return out
}

// index returns the view's secondary index on col, or nil.
func (tv *tableView) index(col int) *secondaryIndex {
	for _, idx := range tv.indexes {
		if idx.col == col {
			return idx
		}
	}
	return nil
}

// built returns the index's buckets, filling them from tv's rows on
// first use.
func (idx *secondaryIndex) built(tv *tableView) *indexBuckets {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.buckets == nil {
		idx.buckets = buildBuckets(&tv.rows, idx.col)
	}
	return idx.buckets
}

// buildBuckets indexes column col of the rows by a counting sort. Each
// row's run is its value's offset from lo under direct offsets (a first
// pass finds an INT column's range), else the run the directory numbers
// its value with, kept per row; the runs' lengths are counted, summed
// into where each run starts, and every position dropped into its run in
// row order, which leaves each run ascending. It allocates the two
// arrays, the per-row run numbers and the directory as it grows; nothing
// per value.
func buildBuckets(st *rowStore, col int) *indexBuckets {
	ib := &indexBuckets{}
	n, lo, hi := 0, int64(math.MaxInt64), int64(math.MinInt64)
	if st.kinds[col] == KindInt {
		st.each(col, func(_ int, v Value) {
			if v.K == KindInt {
				n, lo, hi = n+1, min(lo, v.I), max(hi, v.I)
			}
		})
		// hi - lo as an unsigned difference is exact at the ends of int64.
		ib.dense = n > 0 && uint64(hi)-uint64(lo) <= denseSpread*uint64(n)
	}
	var run []int32 // per row: its run, -1 for NULL
	if ib.dense {
		ib.lo = lo
		ib.off = make([]int32, uint64(hi)-uint64(lo)+2)
	} else {
		ib.dir = newKeyMap(1, 0, 0)
		run = make([]int32, st.len())
		n = 0
		st.each(col, func(i int, v Value) {
			run[i] = -1
			if v.IsNull() {
				return
			}
			n++
			vals := [1]Value{v}
			r := ib.dir.get(vals[:])
			if r == 0 {
				ib.keys++
				r = int32(ib.keys)
				ib.dir.put(nil, vals[:], r)
			}
			run[i] = r - 1
		})
		ib.off = make([]int32, ib.keys+1)
	}
	runOf := func(i int, v Value) int {
		if ib.dense {
			if v.K != KindInt {
				return -1
			}
			return int(uint64(v.I) - uint64(lo))
		}
		return int(run[i])
	}
	// off[r+1] counts run r; summed, off[r] is where run r starts, and
	// it moves on as the run fills, to where run r+1 starts: shifted
	// back one run, off is every run's start again.
	st.each(col, func(i int, v Value) {
		if r := runOf(i, v); r >= 0 {
			ib.off[r+1]++
		}
	})
	for r := 1; r < len(ib.off); r++ {
		if ib.dense && ib.off[r] > 0 {
			ib.keys++
		}
		ib.off[r] += ib.off[r-1]
	}
	ib.pos = make([]int32, n)
	st.each(col, func(i int, v Value) {
		if r := runOf(i, v); r >= 0 {
			ib.pos[ib.off[r]] = int32(i)
			ib.off[r]++
		}
	})
	copy(ib.off[1:], ib.off)
	ib.off[0] = 0
	return ib
}

// lookup returns the positions, ascending, of the rows whose indexed
// column equals v (never NULL). The slice is the index's own.
func (ib *indexBuckets) lookup(v Value) []int32 {
	k := keyOf(v)
	if k.kind == KindInt {
		return ib.lookupInt(int64(k.num))
	}
	if ib.dense {
		return nil // a dense directory holds integers only
	}
	vals := [1]Value{v}
	return ib.run(int(ib.dir.get(vals[:])) - 1)
}

// lookupInt is lookup of the integer k.
func (ib *indexBuckets) lookupInt(k int64) []int32 {
	if ib.dense {
		if r := uint64(k) - uint64(ib.lo); r < uint64(len(ib.off)-1) {
			return ib.run(int(r))
		}
		return nil
	}
	return ib.run(int(ib.dir.getInts([2]int64{k})) - 1)
}

// run returns run r's positions; none for r < 0.
func (ib *indexBuckets) run(r int) []int32 {
	if r < 0 {
		return nil
	}
	return ib.pos[ib.off[r]:ib.off[r+1]:ib.off[r+1]]
}

// distinct returns the number of distinct non-NULL values of the
// indexed column: exact where the prefix sample of estimateNDV cannot
// tell four rows a key from one, which decides between probing and
// hashing (joinNode.probeBelow).
func (idx *secondaryIndex) distinct(tv *tableView) int {
	return idx.built(tv).keys
}

// indexOrder is the built ordered member: every row position of the
// view, sorted by Compare of the indexed column's value, ties in
// ascending position. Compare puts NULL below every value, so the first
// nulls entries are the rows holding NULL, which no range predicate
// matches. Like the buckets it is never written after its build.
type indexOrder struct {
	pos   []int32
	nulls int
}

// ordered returns the index's ordered member, sorting tv's rows on first
// use, by a flat copy of the column.
func (idx *secondaryIndex) ordered(tv *tableView) *indexOrder {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.order != nil {
		return idx.order
	}
	keys := make([]Value, 0, tv.rows.len())
	tv.rows.each(idx.col, func(_ int, v Value) { keys = append(keys, v) })
	o := &indexOrder{pos: make([]int32, len(keys))}
	for i, v := range keys {
		o.pos[i] = int32(i)
		if v.IsNull() {
			o.nulls++
		}
	}
	// (value, position) is a total order: any correct sort gives this one.
	slices.SortFunc(o.pos, func(a, b int32) int {
		if c := Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	idx.order = o
	return o
}

// bound is one end of the interval a range predicate keeps: the param
// and whether the end itself is inside. A nil lit leaves the end open.
type bound struct {
	lit  *Lit
	incl bool
}

// run returns the entries [from, to) of the order whose value lies
// between lo and hi, their params read from params: two binary searches
// through col of tv's rows, which are the rows the order was built from
// or share every value of col with them. A NULL end keeps nothing — the
// predicate it came from is NULL for every row — and so does an inverted
// interval.
func (o *indexOrder) run(tv *tableView, col int, lo, hi bound, params []Value) (from, to int) {
	from, to = o.nulls, len(o.pos)
	// cut returns the first entry of [from, to) whose value compares to
	// b's above min, or to; an open end answers open.
	cut := func(b bound, min, open int) int {
		if b.lit == nil {
			return open
		}
		v := params[b.lit.Slot]
		if v.IsNull() {
			from = to
			return to
		}
		return from + sort.Search(to-from, func(i int) bool {
			return Compare(tv.rows.value(int(o.pos[from+i]), col), v) > min
		})
	}
	// The run starts at the first value >= lo (> lo when lo is outside)
	// and ends before the first value > hi (>= hi).
	loMin, hiMin := 0, -1
	if lo.incl {
		loMin = -1
	}
	if hi.incl {
		hiMin = 0
	}
	from = cut(lo, loMin, from)
	to = cut(hi, hiMin, to)
	return from, max(from, to)
}
