package sqlmini

import (
	"context"
	"fmt"
	"time"
)

// This file implements snapshot reads. The engine keeps, next to its
// tables, an immutable "read view": an epoch-versioned map of per-table
// snapshots published atomically after every committed mutation (or
// once per group-committed round, see ApplyRound). SELECT executes
// lock-free against the latest published view; a published snapshot is
// never written after it becomes visible.
//
// Sharing discipline (the whole correctness argument lives here):
//
//   - A table's rows and pk index are persistent values (storage.go):
//     a write builds a new rowStore / pkIndex that shares every node it
//     did not touch with the previous one, and installs it on the Table.
//     A tableView is a copy of those two values cut at publish time, so
//     publishing copies nothing and a view pins exactly the nodes its
//     epoch could reach.
//   - Nodes are written only while being built, before any view or
//     table version can reach them: sealed chunks and their column
//     vectors, pk directories and the shard maps they own are immutable
//     afterwards. UPDATE copies the spine, the touched chunk's vector
//     headers and its vectors of the columns it assigns (or the tail's
//     row headers); a pk write copies the root, one directory and one
//     shard; an UPDATE that assigns no pk column leaves the index alone.
//   - The one in-place write is INSERT's: it appends to the tail slab
//     and to the spine beyond the lengths every existing view was cut
//     with. Readers are bounded by their own lengths, and a table's
//     history is linear (one writer, each version replaces the last),
//     so no two versions ever claim the same free slot.
//   - A tail Row is shared across epochs, so UPDATE assigns into a copy
//     of the touched row (never writes through a possibly-published
//     Row) and the store copies every row it is handed.
//   - Schema (Cols, colIdx, pkCol) is immutable after CREATE TABLE, so
//     views reference the live *Table for binding. Everything else on
//     the Table belongs to the writer.
//
// Secondary indexes and NDV estimates are lazily built caches hanging
// off a view (index.go, tablestats.go). A table the epoch did not touch
// keeps its view, caches included. A touched table gets a new view that
// inherits each built cache the round provably left valid — no row
// added or moved, and no stored value of that column changed — and
// starts the others empty.

// readView is one immutable published snapshot of the whole engine.
//
//qcpa:published immutable after e.view.Store; readers access it lock-free
type readView struct {
	epoch  int64
	tables map[string]*tableView
}

// tableView is the immutable per-table half of a readView.
//
//qcpa:published immutable once reachable from a published readView
type tableView struct {
	t       *Table // schema only — never touch t.rows/t.pk through this
	rows    rowStore
	pk      pkIndex
	indexes []*secondaryIndex // one per indexed column, ascending
	stats   tableStats        // lazily filled planner statistics (tablestats.go)
}

// emptyView backs reads against an engine that has never published
// (zero-value engines constructed without New).
var emptyView = &readView{tables: map[string]*tableView{}}

// loadView returns the latest published view.
func (e *Engine) loadView() *readView {
	if v := e.view.Load(); v != nil {
		return v
	}
	return emptyView
}

// cutView snapshots the table's current state, inheriting from the
// previous view every cache the writes since then left valid, and
// resets the change tracking. Caller holds e.mu.
func (t *Table) cutView() *tableView {
	prev := t.view
	tv := &tableView{t: t, rows: t.rows, pk: t.pk, indexes: make([]*secondaryIndex, len(t.indexCols))}
	for i, col := range t.indexCols {
		if prev != nil && !t.moved && !t.changed[col] {
			tv.indexes[i] = prev.index(col)
		}
		if tv.indexes[i] == nil {
			tv.indexes[i] = &secondaryIndex{col: col}
		}
	}
	if prev != nil && !t.moved {
		tv.stats.ndv = prev.stats.unchanged(t.changed)
	}
	t.touched, t.moved = false, false
	clear(t.changed)
	return tv
}

// publishLocked installs a new read view covering every mutation since
// the last publish, bumping the epoch. No-op when nothing changed.
// Caller holds e.mu (write).
func (e *Engine) publishLocked() {
	if !e.dirty {
		return
	}
	e.dirty = false
	e.epochSeq++
	nv := &readView{epoch: e.epochSeq, tables: make(map[string]*tableView, len(e.tables))}
	for name, t := range e.tables {
		if t.view == nil || t.touched {
			t.view = t.cutView()
		}
		nv.tables[name] = t.view
	}
	e.view.Store(nv)
}

// Epoch returns the engine's current published epoch. It starts at 0
// for an empty engine and advances by one per published view (one per
// statement outside rounds, one per round inside ApplyRound).
func (e *Engine) Epoch() int64 {
	return e.loadView().epoch
}

// View is a pinned, immutable snapshot of the engine at one epoch.
// Queries against it see exactly the state at acquisition time, no
// matter how many rounds commit — or which tables migrate away —
// afterwards.
type View struct {
	v *readView
}

// AcquireView pins the latest published snapshot.
func (e *Engine) AcquireView() View {
	return View{v: e.loadView()}
}

// Epoch returns the pinned epoch.
func (v View) Epoch() int64 {
	if v.v == nil {
		return 0
	}
	return v.v.epoch
}

// QueryView runs one SELECT against a pinned view.
func (e *Engine) QueryView(v View, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := st.AST.(*SelectStmt); !ok {
		return nil, fmt.Errorf("sqlmini: QueryView requires SELECT, got %T", st.AST)
	}
	rv := v.v
	if rv == nil {
		rv = emptyView
	}
	return e.execSelect(context.Background(), st, rv)
}

// RoundResult is the per-statement outcome of ApplyRound.
type RoundResult struct {
	Affected int
	Scanned  int64
	Duration time.Duration
	Err      error
}

// ApplyRound applies an ordered batch of update statements under one
// write-lock hold and publishes exactly ONE new read epoch afterwards,
// so concurrent readers observe either none or all of the round — never
// a prefix. This is the engine half of the cluster's group commit: the
// round's order is fixed by the cluster, and a failed statement does
// not stop the rest (replicas must stay in lockstep; divergence is
// handled above by checksums and quarantine).
func (e *Engine) ApplyRound(stmts []Statement) []RoundResult {
	out := make([]RoundResult, len(stmts))
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	for i, st := range stmts {
		start := time.Now()
		if err := e.checkFault(); err != nil {
			out[i].Err = err
			out[i].Duration = time.Since(start)
			continue
		}
		res, err := e.execWriteLocked(st)
		out[i].Duration = time.Since(start)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Affected = res.Affected
		out[i].Scanned = res.Scanned
	}
	return out
}

// execWriteLocked dispatches one non-SELECT statement. Caller holds
// e.mu (write) and is responsible for publishing afterwards. A statement
// marks the engine dirty once it passes its static checks, so one that
// fails them publishes no epoch.
func (e *Engine) execWriteLocked(st Statement) (*Result, error) {
	switch s := st.AST.(type) {
	case *InsertStmt:
		return e.execInsert(s, st.Params)
	case *UpdateStmt:
		return e.execUpdate(s, st.Params)
	case *DeleteStmt:
		return e.execDelete(s, st.Params)
	case *CreateTableStmt:
		if _, dup := e.tables[s.Table]; dup {
			return nil, fmt.Errorf("sqlmini: table %q already exists", s.Table)
		}
		t, err := newTable(s.Table, s.Columns)
		if err != nil {
			return nil, err
		}
		e.tables[s.Table] = t
		e.dirty = true
		return &Result{}, nil
	case *DropTableStmt:
		if _, ok := e.tables[s.Table]; !ok {
			return nil, unknownTableError(s.Table)
		}
		delete(e.tables, s.Table)
		e.dirty = true
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqlmini: unsupported statement %T", st.AST)
}
