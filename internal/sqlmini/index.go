package sqlmini

import (
	"fmt"
	"slices"
	"sync"
)

// secondaryIndex is a hash index over one column, built lazily on the
// first indexed lookup from the rows of the view doing the lookup. The
// Table holds only the definitions (indexCols); the instances hang off
// the published tableViews. A new view shares its predecessor's
// instance — built or not — whenever the writes in between added or
// moved no row and changed no stored value of the column (cutView), so
// the buckets are the same whichever of the sharing views builds them;
// otherwise it starts a fresh, dirty one. This favors the CDBS read
// patterns (long read phases, updates that leave the indexed columns
// alone) without putting index maintenance on the write path. The
// index's own mutex serializes the lazy build among concurrent readers.
//
//qcpa:lazycache idempotent build from immutable rows, serialized by mu; shared only by views whose rows yield identical buckets
type secondaryIndex struct {
	mu      sync.Mutex
	col     int
	dirty   bool
	buckets indexBuckets
}

// indexBuckets is a built index: value key -> row positions, ascending.
// It is never written once the build that filled it has cleared dirty,
// so a reader that took it under mu probes it without the lock. Keys are
// hkeys (key.go): a probe formats and allocates nothing. NULLs are left
// out; no equality matches them.
type indexBuckets map[hkey][]int32

// CreateIndex declares a secondary hash index on table.column. Point
// lookups (WHERE column = literal) and join steps whose key lands on the
// column then probe it instead of scanning the table. Indexing the
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
	if !idx.dirty {
		return idx.buckets
	}
	idx.buckets = make(indexBuckets)
	pos := int32(0)
	for k := 0; k < tv.rows.runs(); k++ {
		for _, r := range tv.rows.run(k) {
			if !r[idx.col].IsNull() {
				key := keyOf(r[idx.col])
				idx.buckets[key] = append(idx.buckets[key], pos)
			}
			pos++
		}
	}
	idx.dirty = false
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
