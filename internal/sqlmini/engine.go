package sqlmini

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// unknownTableError formats the canonical unknown-table error.
func unknownTableError(name string) error {
	return fmt.Errorf("sqlmini: unknown table %q", name)
}

// Table is an in-memory row store with an optional primary-key hash
// index.
type Table struct {
	Name      string
	Cols      []Column
	colIdx    map[string]int
	pkCol     int // -1 when no primary key
	rows      rowStore
	pk        pkIndex // pk key (keyOf) -> row position
	indexCols []int   // secondary-indexed columns, ascending

	// Publication bookkeeping (see view.go). view is the tableView cut
	// at the last publish; touched reports any change since then. moved
	// (a row was added or changed position) and changed (per column: a
	// stored value changed) say which of that view's lazily built
	// secondary indexes and NDV estimates the next view may inherit.
	view    *tableView
	touched bool
	moved   bool
	changed []bool
}

func newTable(name string, cols []Column) (*Table, error) {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols)), pkCol: -1, rows: newRowStore(cols), changed: make([]bool, len(cols))}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("sqlmini: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pkCol >= 0 {
				return nil, fmt.Errorf("sqlmini: table %q has multiple primary keys", name)
			}
			t.pkCol = i
		} else if c.Indexed {
			t.indexCols = append(t.indexCols, i)
		}
	}
	return t, nil
}

// columns returns a copy of the schema with Indexed set on exactly the
// columns the table indexes now: what leaves the engine with the rows.
// Cols itself is never written (lock-free readers bind against it), so
// it knows only the indexes the table was created with.
func (t *Table) columns() []Column {
	cols := slices.Clone(t.Cols)
	for i := range cols {
		cols[i].Indexed = false
	}
	for _, ci := range t.indexCols {
		cols[ci].Indexed = true
	}
	return cols
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows.len() }

// ColumnIndex returns the index of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// PrimaryKey returns the primary-key column name, or "".
func (t *Table) PrimaryKey() string {
	if t.pkCol < 0 {
		return ""
	}
	return t.Cols[t.pkCol].Name
}

// insertRows validates and stores rows in order, stopping at the first
// row that fails: the rows before it stay inserted, as with one INSERT
// per row. It returns how many went in. The rows are only read — the
// store copies their values out, coerced to the column types — so the
// caller keeps them. This is the one insert path: a SQL INSERT and
// BulkInsert (which installs a CutTable's rows) land here, so every
// batch fills the row store and the pk shards it touches once,
// pre-sized.
func (t *Table) insertRows(rows []Row) (int, error) {
	var err error
	var keys []hkey
	if t.pkCol >= 0 {
		keys = make([]hkey, len(rows))
	}
	for i, r := range rows {
		if cerr := t.checkRow(r); cerr != nil {
			rows, err = rows[:i], cerr
			break
		}
		if t.pkCol >= 0 {
			pk, _ := coerce(r[t.pkCol], t.Cols[t.pkCol].Type)
			keys[i] = keyOf(pk)
		}
	}
	if len(rows) == 0 {
		return 0, err
	}
	if t.pkCol >= 0 {
		var n int
		t.pk, n = t.pk.insertAll(keys[:len(rows)], t.rows.len())
		if n < len(rows) {
			dup, _ := coerce(rows[n][t.pkCol], t.Cols[t.pkCol].Type)
			rows, err = rows[:n], fmt.Errorf("sqlmini: duplicate primary key %s in table %q", dup, t.Name)
		}
	}
	if len(rows) > 0 {
		t.rows = t.rows.append(rows)
		t.touched, t.moved = true, true
	}
	return len(rows), err
}

// checkRow checks a row's arity and that every value can be stored in
// its column (coerce).
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("sqlmini: table %q expects %d values, got %d", t.Name, len(t.Cols), len(r))
	}
	for i := range r {
		if r[i].K == t.Cols[i].Type {
			continue // the common case, without the call
		}
		if _, err := coerce(r[i], t.Cols[i].Type); err != nil {
			return fmt.Errorf("%w (column %q)", err, t.Cols[i].Name)
		}
	}
	return nil
}

// rebuild replaces the table's contents with rows (already valid, pk
// unique): DELETE's compaction moves every later row, so the row store
// and the pk index are filled from scratch.
func (t *Table) rebuild(rows []Row) {
	t.rows, t.pk = rowStore{kinds: t.rows.kinds}, pkIndex{}
	t.touched, t.moved = true, true
	if _, err := t.insertRows(rows); err != nil {
		panic("sqlmini: rebuilding " + t.Name + " from its own rows: " + err.Error())
	}
}

// DataBytes approximates the stored size of the table in bytes (used by
// the allocation cost models).
func (t *Table) DataBytes() int64 {
	var per int64
	for _, c := range t.Cols {
		switch c.Type {
		case KindText:
			per += 24
		default:
			per += 8
		}
	}
	return per * int64(t.rows.len())
}

// Engine is an embedded single-node database instance. It is safe for
// concurrent use: SELECT runs lock-free against the latest published
// copy-on-write snapshot (see view.go), while writes take an exclusive
// lock (one writer at a time, mirroring the serial update application
// of the CDBS processing model) and publish a new read epoch on
// commit.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// view is the latest published read snapshot; epochSeq and dirty
	// (both guarded by mu) drive publication — see view.go.
	view     atomic.Pointer[readView]
	epochSeq int64
	dirty    bool
	// fault is the optional fault injector (nil when absent); see
	// fault.go. Checked once per statement at the top of
	// ExecStmtContext.
	fault atomic.Pointer[Fault]
	// plans caches bound SELECT plans per normalized statement shape.
	// An entry names the tables and indexes it was bound to and is
	// served only to a view that still carries them (plan.go), so DDL
	// has nothing to flush.
	plans planCache
}

// New returns an empty engine.
func New() *Engine {
	e := &Engine{tables: make(map[string]*Table)}
	e.view.Store(&readView{tables: map[string]*tableView{}})
	return e
}

// Result is the outcome of executing a statement.
type Result struct {
	// Columns are the output column names of a SELECT.
	Columns []string
	// Rows are the result rows of a SELECT.
	Rows []Row
	// Affected is the number of rows written by INSERT/UPDATE/DELETE.
	Affected int
	// Scanned counts the rows examined while executing; the cluster
	// layer uses it as the work measure of a request.
	Scanned int64
	// modes records the run-time choices a SELECT's run made, for the
	// package's tests to tell which paths a statement took.
	modes runMode
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under a context
// (see ExecStmtContext for cancellation semantics).
func (e *Engine) ExecContext(ctx context.Context, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement (allowing callers to parse once
// and execute on many backends, as the cluster controller does).
func (e *Engine) ExecStmt(st Statement) (*Result, error) {
	return e.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement under a context. Long
// SELECT scans observe cancellation between row batches and return
// ctx.Err(); they run lock-free against the latest published snapshot
// and never block (or are blocked by) writers. Writes check the
// context only before starting: once an update begins applying it runs
// to completion, because the cluster's ROWA replicas apply updates in
// a fixed global order and a mid-write abort on one replica would
// diverge the others. Each standalone write publishes its own read
// epoch; group-committed batches publish once per round (ApplyRound).
func (e *Engine) ExecStmtContext(ctx context.Context, st Statement) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.checkFault(); err != nil {
		return nil, err
	}
	if _, ok := st.AST.(*SelectStmt); ok {
		return e.execSelect(ctx, st, e.loadView())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	return e.execWriteLocked(st)
}

// Table returns the named table for bulk operations, or nil.
func (e *Engine) Table(name string) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// Tables returns the table names in sorted order.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateTable creates a table directly (bulk-load path).
func (e *Engine) CreateTable(name string, cols []Column) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return fmt.Errorf("sqlmini: table %q already exists", name)
	}
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	e.tables[name] = t
	e.dirty = true
	e.publishLocked()
	return nil
}

// BulkInsert appends rows without going through SQL (the cluster's
// data-loading path). Rows are validated and indexed like SQL inserts
// and only read: the caller keeps them. The whole batch becomes readable
// in one published epoch.
func (e *Engine) BulkInsert(table string, rows []Row) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[table]
	if !ok {
		return unknownTableError(table)
	}
	defer e.publishLocked()
	e.dirty = true
	_, err := t.insertRows(rows)
	return err
}

// DataBytes approximates the total stored bytes across all tables.
func (e *Engine) DataBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var total int64
	for _, t := range e.tables {
		total += t.DataBytes()
	}
	return total
}
