package sqlmini

import (
	"fmt"
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
	buckets map[string][]int // value key -> row positions
	dirty   bool
}

// CreateIndex builds a secondary hash index on table.column. Point
// lookups (WHERE column = literal) on the table then avoid full scans.
// Indexing the primary key is redundant (it always has one) and is
// rejected, as is indexing the same column twice.
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
	for _, col := range t.indexCols {
		if col == ci {
			return fmt.Errorf("sqlmini: column %q already indexed", column)
		}
	}
	t.indexCols = append(t.indexCols, ci)
	// Republish so the new index definition reaches readers: views cut
	// before this point simply scan. Cached plans chose their access
	// paths without this index, so drop them too.
	t.touched = true
	e.dirty = true
	e.InvalidatePlans()
	e.publishLocked()
	return nil
}

// Indexes returns the secondary-indexed column names of a table.
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

// hasIndex reports whether the view carries a secondary index on col.
func (tv *tableView) hasIndex(col int) bool {
	for _, idx := range tv.indexes {
		if idx.col == col {
			return true
		}
	}
	return false
}

// lookupIndex returns the matching row positions for column = v via a
// secondary index, building the buckets from this view's rows on first
// use. The boolean reports whether an index on that column exists.
func (tv *tableView) lookupIndex(col int, v Value) ([]int, bool) {
	for _, idx := range tv.indexes {
		if idx.col != col {
			continue
		}
		idx.mu.Lock()
		if idx.dirty {
			idx.buckets = make(map[string][]int, tv.rows.len())
			for k := 0; k < tv.rows.runs(); k++ {
				for j, r := range tv.rows.run(k) {
					key := r[col].key()
					idx.buckets[key] = append(idx.buckets[key], k*rowChunkLen+j)
				}
			}
			idx.dirty = false
		}
		rows := idx.buckets[v.key()]
		idx.mu.Unlock()
		return rows, true
	}
	return nil, false
}
