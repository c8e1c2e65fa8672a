// Prepared statements: parse a statement once, execute it many times
// shipping only fresh literal values. This is the cluster half of the
// wire protocol's prepare/exec commands — the serving-tier analogue of
// sqlmini's plan cache, one layer up: the plan cache makes repeated
// shapes cheap per backend, Prepared makes them cheap per request by
// skipping the parser. An execution is the prepared statement's shape
// paired with the request's args (sqlmini.BindLiterals) and routes like
// any other request, against the routing installed at that moment; the
// handle holds nothing an execution writes.

package cluster

import (
	"context"
	"slices"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Prepared is a statement bound to this cluster: its parse (the shape
// every execution shares, and the template text's own literals for an
// execution without args) and its write flag. Safe for concurrent Exec
// calls.
type Prepared struct {
	// SQL is the template text the statement was prepared from; its
	// literals are the bindable positions. Every execution is journaled
	// on the line of the template's shape, which ad hoc executions of the
	// template share.
	SQL string
	// Class is the query class the statement routes as ("" routes by
	// the tables the statement names).
	Class string
	// Write marks a ROWA update (set at prepare; an exec cannot flip it).
	Write bool
	// NumLiterals is how many argument positions Exec expects — bind all
	// or none.
	NumLiterals int

	stmt sqlmini.Statement
}

// Prepare parses a statement for repeated execution. A statement that
// cannot route (DDL without a known class) fails here rather than at
// every execution.
func (c *Cluster) Prepare(sql, class string, write bool) (*Prepared, error) {
	if c.stopped.Load() {
		return nil, errClosed
	}
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, err := c.route(class, stmt, sql); err != nil {
		return nil, err
	}
	return &Prepared{
		SQL:         sql,
		Class:       class,
		Write:       write,
		NumLiterals: stmt.NumLiterals,
		stmt:        stmt,
	}, nil
}

// ExecPrepared executes a prepared statement with args bound to its
// literal positions in textual order (pass no args to run the template
// verbatim). Parsing is skipped entirely; the request routes exactly as
// ExecuteContext would route it. Binding pairs the statement's shape
// with args — nothing is copied or rewritten, so any number of
// executions run concurrently. args stays the caller's: a read is done
// with it when ExecPrepared returns, and a write — which the round it
// commits in, a Down replica's redo log and a migration's delta log
// hold past that, even past a caller whose context ended first — takes
// its one copy here.
func (c *Cluster) ExecPrepared(ctx context.Context, p *Prepared, args []sqlmini.Value) (*Result, error) {
	if c.stopped.Load() {
		return nil, errClosed
	}
	if c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}
	stmt := p.stmt
	if len(args) > 0 {
		if p.Write {
			args = slices.Clone(args)
		}
		var err error
		if stmt, err = sqlmini.BindLiterals(stmt, args); err != nil {
			return nil, err
		}
	}
	tables, err := c.route(p.Class, stmt, p.SQL)
	if err != nil {
		return nil, err
	}
	return c.executeRouted(ctx, stmt, workload.Request{SQL: p.SQL, Class: p.Class, Write: p.Write}, tables)
}
