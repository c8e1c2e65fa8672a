package sqlmini

import "slices"

// This file is table transport: the cut a table is copied from.

// TableCut is one table at one point in the update order: its schema —
// index definitions included, as Column.Indexed — and its rows, held the
// way a published view holds them. Cutting copies nothing, and later
// writes to the table never reach what the cut shares with it
// (storage.go), so the holder may read it for as long as it likes while
// the engine keeps serving. This is the cluster's one table transport:
// a source backend's applier cuts the table at an exact position in the
// global update order; a live migration materialises one window of rows
// at a time, and a recovery resync installs it whole.
type TableCut struct {
	cols []Column
	rows rowStore
}

// CutTable cuts the named table under the engine's read lock: a
// consistent snapshot relative to concurrent writes.
func (e *Engine) CutTable(name string) (*TableCut, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, unknownTableError(name)
	}
	return &TableCut{cols: t.columns(), rows: t.rows}, nil
}

// Columns returns the table's schema; the slice is the caller's.
func (c *TableCut) Columns() []Column { return slices.Clone(c.cols) }

// NumRows returns the row count.
func (c *TableCut) NumRows() int { return c.rows.len() }

// Rows returns the rows at positions [from, to) as Rows of the caller's
// own: what BulkInsert takes.
func (c *TableCut) Rows(from, to int) []Row { return c.rows.rows(from, to) }

// CloneTable returns a table's schema and all its rows at one point in
// the update order: CutTable, materialised whole.
func (e *Engine) CloneTable(name string) ([]Column, []Row, error) {
	c, err := e.CutTable(name)
	if err != nil {
		return nil, nil, err
	}
	return c.cols, c.Rows(0, c.NumRows()), nil
}
