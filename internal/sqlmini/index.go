package sqlmini

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// secondaryIndex is the index a table declares on one column
// (Column.Indexed, CreateIndex). It has two members, each built lazily,
// on its first use, from the rows of the view that needs it:
//
//   - buckets, a hash from value to row positions: what an equality with
//     a constant and a join step probe. A lookup is one hash, whatever
//     the table's size.
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
	buckets indexBuckets // nil until built
	order   *indexOrder  // nil until built
}

// indexBuckets is the built hash member: value key -> row positions,
// ascending. It is never written once the build that filled it has
// returned, so a reader that took it under mu probes it without the lock. Keys are
// hkeys (key.go): a probe formats and allocates nothing. NULLs are left
// out; no equality matches them.
type indexBuckets map[hkey][]int32

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
// column order. Every copy of a table — CloneTable + CreateTable, a
// snapshot restore — carries the same set.
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
func (idx *secondaryIndex) built(tv *tableView) indexBuckets {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.buckets != nil {
		return idx.buckets
	}
	idx.buckets = make(indexBuckets)
	tv.rows.each(idx.col, func(pos int, v Value) {
		if !v.IsNull() {
			key := keyOf(v)
			idx.buckets[key] = append(idx.buckets[key], int32(pos))
		}
	})
	return idx.buckets
}

// lookup returns the positions, ascending, of the rows whose indexed
// column equals v (never NULL). The slice is the index's own.
func (ib indexBuckets) lookup(v Value) []int32 {
	return ib[keyOf(v)]
}

// distinct returns the number of distinct non-NULL values of the
// indexed column: exact where the prefix sample of estimateNDV cannot
// tell four rows a key from one, which decides between probing and
// hashing (joinNode.probeBelow).
func (idx *secondaryIndex) distinct(tv *tableView) int {
	return len(idx.built(tv))
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

// bound is one end of the interval a range predicate keeps: the constant
// and whether the end itself is inside. A nil expr leaves the end open.
type bound struct {
	expr Expr
	incl bool
}

// run returns the entries [from, to) of the order whose value lies
// between lo and hi, evaluating the ends against ec: two binary searches
// through col of tv's rows, which are the rows the order was built from
// or share every value of col with them. A NULL end keeps nothing — the
// predicate it came from is NULL for every row — and so does an inverted
// interval.
func (o *indexOrder) run(tv *tableView, col int, lo, hi bound, ec *evalCtx) (from, to int, err error) {
	from, to = o.nulls, len(o.pos)
	// cut returns the first entry of [from, to) whose value compares to
	// b's above min, or to; an open end answers open.
	cut := func(b bound, min, open int) (int, error) {
		if b.expr == nil {
			return open, nil
		}
		v, err := eval(b.expr, ec)
		if err != nil {
			return 0, err
		}
		if v.IsNull() {
			from = to
			return to, nil
		}
		return from + sort.Search(to-from, func(i int) bool {
			return Compare(tv.rows.value(int(o.pos[from+i]), col), v) > min
		}), nil
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
	if from, err = cut(lo, loMin, from); err != nil {
		return 0, 0, err
	}
	if to, err = cut(hi, hiMin, to); err != nil {
		return 0, 0, err
	}
	return from, max(from, to), nil
}
