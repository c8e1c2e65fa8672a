package sqlmini

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"
)

// This file is table transport: the cut a live migration copies a table
// from, and the gob snapshots of whole engines.

// TableCut is one table at one point in the update order: its schema —
// index definitions included, as Column.Indexed — and its rows, held the
// way a published view holds them. Cutting copies nothing, and later
// writes to the table never reach what the cut shares with it
// (storage.go), so the holder may read it for as long as it likes while
// the engine keeps serving. This is the live migration's transport: the
// source backend's applier cuts the table at an exact position in the
// global update order, and the copy materialises one window of rows at a
// time.
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

// snapshotTable is the gob wire form of one table.
type snapshotTable struct {
	Name string
	Cols []Column
	Rows []Row
}

// snapshot is the gob wire form of an engine.
type snapshot struct {
	Version int
	Tables  []snapshotTable
}

const snapshotVersion = 1

// Snapshot serializes the complete engine state (schema, index
// definitions and rows) with encoding/gob. It is the data-transport
// format of the physical
// allocation: the prototype ships snapshots between backends during
// reallocation and keeps cold copies for recovery.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := snapshot{Version: snapshotVersion}
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		snap.Tables = append(snap.Tables, snapshotTable{Name: n, Cols: t.columns(), Rows: t.rows.rows(0, t.rows.len())})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// SnapshotTables serializes only the named tables.
func (e *Engine) SnapshotTables(w io.Writer, tables []string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := snapshot{Version: snapshotVersion}
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	for _, n := range sorted {
		t, ok := e.tables[n]
		if !ok {
			return unknownTableError(n)
		}
		snap.Tables = append(snap.Tables, snapshotTable{Name: n, Cols: t.columns(), Rows: t.rows.rows(0, t.rows.len())})
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Restore loads a snapshot into the engine. Tables that already exist
// are rejected (restore into a fresh engine, or drop first).
func (e *Engine) Restore(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("sqlmini: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("sqlmini: unsupported snapshot version %d", snap.Version)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range snap.Tables {
		if _, dup := e.tables[st.Name]; dup {
			return fmt.Errorf("sqlmini: table %q already exists", st.Name)
		}
	}
	defer e.publishLocked()
	for _, st := range snap.Tables {
		t, err := newTable(st.Name, st.Cols)
		if err != nil {
			return err
		}
		if _, err := t.insertRows(st.Rows); err != nil {
			return fmt.Errorf("sqlmini: restoring %q: %w", st.Name, err)
		}
		e.tables[st.Name] = t
		e.dirty = true
	}
	return nil
}
