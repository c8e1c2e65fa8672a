package sqlmini

import (
	"errors"
	"fmt"
)

// ErrUnknownTable is the sentinel wrapped by every unknown-table
// statement error. The cluster's read path matches it (IsMissingTable)
// to tell a stale route — the table was dropped by a live-migration
// cutover after the read was scheduled — from a genuine statement
// error that would fail identically on every replica.
var ErrUnknownTable = errors.New("sqlmini: unknown table")

// unknownTableError formats the canonical unknown-table error. The
// message is identical to the historical fmt.Errorf text, so callers
// matching on the string keep working.
func unknownTableError(name string) error {
	return fmt.Errorf("%w %q", ErrUnknownTable, name)
}

// IsMissingTable reports whether err is an unknown-table error.
func IsMissingTable(err error) bool { return errors.Is(err, ErrUnknownTable) }

// CloneTable returns a table's schema — index definitions included,
// as Column.Indexed — and its rows at one point in the update order.
// The copy is cut under the engine's read lock, so it is
// a consistent snapshot relative to concurrent writes, and the caller
// may hold it while the engine keeps serving: the slice is the
// caller's, while the Rows in it are the stored ones — the engine never
// writes a stored Row (UPDATE replaces it with a copy), and the caller
// must not either. BulkInsert copies what it is given, so handing the
// result to another engine is safe. This is the live migration's
// transport: the source backend's applier cuts the clone at an exact
// position in the global update order.
func (e *Engine) CloneTable(name string) ([]Column, []Row, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, nil, unknownTableError(name)
	}
	return t.columns(), t.rows.flat(), nil
}
