// Prepared statements: parse and route a statement once, execute it
// many times shipping only fresh literal values. This is the cluster
// half of the wire protocol's prepare/exec commands — the serving-tier
// analogue of sqlmini's plan cache, one layer up: the plan cache makes
// repeated shapes cheap per backend, Prepared makes them cheap per
// request by skipping the parser and the routing analysis entirely. An
// execution is the prepared statement's shape paired with the request's
// args (sqlmini.BindLiterals); the handle holds nothing an execution
// writes.

package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Prepared is a statement bound to this cluster: its parse (the shape
// every execution shares, and the template text's own literals for an
// execution without args), its write flag, and a cached route (the
// tables an eligible backend must hold) tagged with the routing
// generation it was resolved under. Safe for concurrent Exec calls.
type Prepared struct {
	// SQL is the template text the statement was prepared from; its
	// literals are the bindable positions, and journal entries for every
	// execution aggregate under this text.
	SQL string
	// Class is the query class the statement routes as ("" routes by
	// the statement's own table references).
	Class string
	// Write marks a ROWA update (set at prepare; an exec cannot flip it).
	Write bool
	// NumLiterals is how many argument positions Exec expects — bind all
	// or none.
	NumLiterals int

	stmt sqlmini.Statement
	// route caches the resolved table set with the routing generation it
	// was computed under; a generation mismatch (allocation installed,
	// live cutover, DDL) re-resolves before executing.
	route atomic.Pointer[preparedRoute]
}

type preparedRoute struct {
	gen    uint64
	tables []string
}

// RouteGeneration returns the current routing generation — bumped by
// every installed allocation, live cutover, and DDL write. Prepared
// routes tagged with an older generation re-resolve before executing.
func (c *Cluster) RouteGeneration() uint64 { return c.routeGen.Load() }

// Prepare parses (through the statement cache) and routes a statement
// for repeated execution.
func (c *Cluster) Prepare(sql, class string, write bool) (*Prepared, error) {
	if c.stopped.Load() {
		return nil, fmt.Errorf("cluster: closed")
	}
	stmt, err := c.parse(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		SQL:         sql,
		Class:       class,
		Write:       write,
		NumLiterals: stmt.NumLiterals,
		stmt:        stmt,
	}
	gen := c.routeGen.Load()
	tables, err := c.resolveTables(class, stmt, sql)
	if err != nil {
		return nil, err
	}
	p.route.Store(&preparedRoute{gen: gen, tables: tables})
	return p, nil
}

// ExecPrepared executes a prepared statement with args bound to its
// literal positions in textual order (pass no args to run the template
// verbatim). Parsing is skipped entirely; the route is reused unless
// the routing generation moved. Binding pairs the statement's shape
// with args — nothing is copied or rewritten, so any number of
// executions run concurrently. args stays the caller's: a read is done
// with it when ExecPrepared returns, and a write — which the round it
// commits in, a Down replica's redo log and a migration's delta log
// hold past that, even past a caller whose context ended first — takes
// its one copy here.
func (c *Cluster) ExecPrepared(ctx context.Context, p *Prepared, args []sqlmini.Value) (*Result, error) {
	if c.stopped.Load() {
		return nil, fmt.Errorf("cluster: closed")
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
	tables, err := c.preparedTables(p)
	if err != nil {
		return nil, err
	}
	return c.executeRouted(ctx, stmt, workload.Request{SQL: p.SQL, Class: p.Class, Write: p.Write}, tables)
}

// preparedTables returns the statement's route, re-resolving when the
// routing generation moved past the cached one. The generation is read
// BEFORE resolving so a cutover landing mid-resolve invalidates the
// route we are about to store, never one it missed.
func (c *Cluster) preparedTables(p *Prepared) ([]string, error) {
	r := p.route.Load()
	gen := c.routeGen.Load()
	if r != nil && r.gen == gen {
		return r.tables, nil
	}
	tables, err := c.resolveTables(p.Class, p.stmt, p.SQL)
	if err != nil {
		return nil, err
	}
	c.metrics.ObservePreparedReroute()
	p.route.Store(&preparedRoute{gen: gen, tables: tables})
	return tables, nil
}
