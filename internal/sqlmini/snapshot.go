package sqlmini

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

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
		snap.Tables = append(snap.Tables, snapshotTable{Name: n, Cols: t.columns(), Rows: t.rows.flat()})
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
		snap.Tables = append(snap.Tables, snapshotTable{Name: n, Cols: t.columns(), Rows: t.rows.flat()})
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
		// The decoded rows are this call's own: hand them over as they are.
		if _, err := t.insertRows(st.Rows); err != nil {
			return fmt.Errorf("sqlmini: restoring %q: %w", st.Name, err)
		}
		e.tables[st.Name] = t
		e.dirty = true
	}
	return nil
}
