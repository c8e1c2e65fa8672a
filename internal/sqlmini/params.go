package sqlmini

import (
	"fmt"
	"slices"
)

// The statement form. Parse turns SQL text into a Statement — an
// immutable Shape (the syntax tree with every literal a numbered slot,
// and the plan-cache key its tokens spell) plus the literal values
// of one execution — and that pair is what everything downstream holds:
// the executors, the plan cache, the analyzer, the cluster's router,
// prepared handles, group-commit rounds and replay logs. A
// prepared statement executes by pairing the template's shape with fresh
// values (BindLiterals); nothing walks, copies or rewrites a tree per
// execution, and a retained statement shares nothing mutable with the
// one that keeps executing.

// Statement is a parsed statement: its Shape — shared, and never written
// once Parse returns — and the values of one execution, one per literal
// position in textual order. The zero Statement is no statement.
type Statement struct {
	*Shape
	Params []Value
}

// Shape is the immutable part of a Statement: the syntax tree with
// every literal a numbered slot (Lit) and what Parse derived from it
// once. Two SQL texts that differ only in literal values parse to equal
// keys, so they share one plan-cache entry and one query-journal line.
type Shape struct {
	AST         Stmt
	NumLiterals int
	// Tables is the statement's footprint: the tables it references (a
	// SELECT's FROM and JOIN tables, a write's target), sorted and
	// distinct; nil for DDL. The cluster routes a statement with no
	// query class to the backends holding all of them. Read-only.
	Tables []string
	key    string
}

// Key is the statement's identity (parser.key): its tokens with each
// literal written as "?". It keys a SELECT's plan-cache entry and every
// statement's query-journal line.
func (s *Shape) Key() string { return s.key }

// WriteTable returns the table a write statement targets, or "" for
// reads and DDL. The cluster uses it to fan an update out to the holders
// of the actually-written table (a class can span more tables than any
// one of its statements).
func (s *Shape) WriteTable() string {
	if _, read := s.AST.(*SelectStmt); read || len(s.Tables) == 0 {
		return ""
	}
	return s.Tables[0]
}

// footprint lists the tables ast references, for Shape.Tables.
func footprint(ast Stmt) []string {
	switch x := ast.(type) {
	case *SelectStmt:
		tables := make([]string, 0, 1+len(x.Joins))
		tables = append(tables, x.Table)
		for _, j := range x.Joins {
			tables = append(tables, j.Table)
		}
		slices.Sort(tables)
		return slices.Compact(tables)
	case *InsertStmt:
		return []string{x.Table}
	case *UpdateStmt:
		return []string{x.Table}
	case *DeleteStmt:
		return []string{x.Table}
	}
	return nil
}

// BindLiterals returns tmpl's shape with args as its params: args[i]
// takes the place of the i-th literal of the SQL text, in textual order.
// The binding is all-or-none — len(args) must equal tmpl.NumLiterals —
// and tmpl itself is unchanged. args is not copied: the result reads it
// for as long as it is executed or retained.
func BindLiterals(tmpl Statement, args []Value) (Statement, error) {
	if len(args) != tmpl.NumLiterals {
		return Statement{}, fmt.Errorf("sqlmini: statement has %d literal positions, got %d args", tmpl.NumLiterals, len(args))
	}
	return Statement{Shape: tmpl.Shape, Params: args}, nil
}
