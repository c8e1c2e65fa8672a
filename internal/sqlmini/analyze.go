package sqlmini

import (
	"fmt"
	"sort"
)

// The static analysis query classification reads (Section 3.1): the
// tables and columns a statement references, resolved by the planner's
// binder, and its WHERE comparisons of a column with a literal, read by
// the planner's own recogniser (cmpLits, plan.go).

// Predicate is one comparison of a column with a literal in a WHERE
// conjunct, as the planner reads it (a BETWEEN of two literals is two),
// for horizontal (range) classification: the column's values that
// compare to Value with an outcome in Pass satisfy it.
type Predicate struct {
	Table  string
	Column string
	Pass   uint8 // PassLT, PassEQ, PassGT or'ed: = is PassEQ, <> PassLT|PassGT, <= PassLT|PassEQ
	Value  Value
}

// QueryInfo is the static analysis of a statement used by query
// classification (Section 3.1): the referenced tables and columns and
// whether the statement reads or writes.
type QueryInfo struct {
	// Write is true for INSERT/UPDATE/DELETE.
	Write bool
	// Tables lists the referenced table names, sorted: the statement's
	// Shape.Tables, shared and read-only.
	Tables []string
	// Columns lists referenced columns as "table.column", sorted. The
	// primary key of every referenced table is always included so that
	// column-based fragments allow lossless reconstruction (Section 3.1:
	// "they contain a candidate key").
	Columns []string
	// Predicates lists the WHERE conjuncts' comparisons of a column with
	// a literal, for horizontal classification.
	Predicates []Predicate
}

// Schema maps table names to column definitions; the engine and the
// workload generators both provide one.
type Schema map[string][]Column

// Analyze parses one SQL statement and analyzes it against a schema
// (AnalyzeStmt: names resolve through the planner's binder).
func Analyze(sql string, schema Schema) (*QueryInfo, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return AnalyzeStmt(st, schema)
}

// AnalyzeStmt analyzes a parsed statement against a schema. Its tables
// are the statement's footprint (Shape.Tables), and every column
// resolves through the planner's binder, so a name the engine rejects
// as unknown or ambiguous is rejected here with the same error.
func AnalyzeStmt(st Statement, schema Schema) (*QueryInfo, error) {
	a := &analyzer{
		schema:  schema,
		columns: make(map[string]bool),
		params:  st.Params,
	}
	info := &QueryInfo{Tables: st.Tables}
	switch s := st.AST.(type) {
	case *SelectStmt:
		if err := a.addTable(s.Table, s.Alias); err != nil {
			return nil, err
		}
		for _, j := range s.Joins {
			if err := a.addTable(j.Table, j.Alias); err != nil {
				return nil, err
			}
		}
		for _, it := range s.Items {
			if it.Star {
				a.addAllColumns()
				continue
			}
			if err := a.walk(it.Expr); err != nil {
				return nil, err
			}
		}
		for _, j := range s.Joins {
			if err := a.walk(j.On); err != nil {
				return nil, err
			}
		}
		if err := a.where(s.Where); err != nil {
			return nil, err
		}
		for _, g := range s.GroupBy {
			if err := a.walk(g); err != nil {
				return nil, err
			}
		}
		if s.Having != nil {
			if err := a.walk(s.Having); err != nil {
				return nil, err
			}
		}
		// ORDER BY may reference output aliases; referenced underlying
		// columns are already covered by the select items.
	case *InsertStmt:
		info.Write = true
		if err := a.addTable(s.Table, ""); err != nil {
			return nil, err
		}
		if len(s.Columns) == 0 {
			a.addAllColumns()
		} else {
			for _, c := range s.Columns {
				if err := a.addColumn(&ColRef{Column: c}); err != nil {
					return nil, err
				}
			}
		}
	case *UpdateStmt:
		info.Write = true
		if err := a.addTable(s.Table, ""); err != nil {
			return nil, err
		}
		for _, set := range s.Set {
			if err := a.addColumn(&ColRef{Column: set.Column}); err != nil {
				return nil, err
			}
			if err := a.walk(set.Expr); err != nil {
				return nil, err
			}
		}
		if err := a.where(s.Where); err != nil {
			return nil, err
		}
	case *DeleteStmt:
		info.Write = true
		if err := a.addTable(s.Table, ""); err != nil {
			return nil, err
		}
		if err := a.where(s.Where); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sqlmini: cannot analyze %T", st.AST)
	}

	// Always include primary keys of referenced tables.
	for _, tbl := range info.Tables {
		for _, c := range schema[tbl] {
			if c.PrimaryKey {
				a.columns[tbl+"."+c.Name] = true
			}
		}
	}
	for col := range a.columns {
		info.Columns = append(info.Columns, col)
	}
	sort.Strings(info.Columns)
	info.Predicates = a.preds
	return info, nil
}

// analyzer records what a statement references. b binds the statement's
// tables in textual order, and names[i] is the i-th bound table's name.
type analyzer struct {
	schema  Schema
	b       binder
	names   []string
	columns map[string]bool
	params  []Value // the statement's literal values, by Lit.Slot
	preds   []Predicate
}

// addTable binds a table of the statement under its alias (or name).
func (a *analyzer) addTable(table, alias string) error {
	cols, ok := a.schema[table]
	if !ok {
		return unknownTableError(table)
	}
	if alias == "" {
		alias = table
	}
	a.b.addTable(alias, cols)
	a.names = append(a.names, table)
	return nil
}

func (a *analyzer) addAllColumns() {
	for i, bt := range a.b.tables {
		for _, c := range bt.cols {
			a.columns[a.names[i]+"."+c.Name] = true
		}
	}
}

// resolve binds a column reference to the name of its table.
func (a *analyzer) resolve(cr *ColRef) (string, error) {
	ti, _, err := a.b.resolve(cr)
	if err != nil {
		return "", err
	}
	return a.names[ti], nil
}

func (a *analyzer) addColumn(cr *ColRef) error {
	tbl, err := a.resolve(cr)
	if err != nil {
		return err
	}
	a.columns[tbl+"."+cr.Column] = true
	return nil
}

// walk records every column e references.
func (a *analyzer) walk(e Expr) (err error) {
	walkExpr(e, func(x Expr) bool {
		if cr, ok := x.(*ColRef); ok && err == nil {
			err = a.addColumn(cr)
		}
		return err == nil
	})
	return err
}

// where records a WHERE clause: its column references and the
// comparisons of a column with a literal its conjuncts amount to.
func (a *analyzer) where(e Expr) error {
	if err := a.walk(e); err != nil {
		return err
	}
	var conjs []Expr
	splitConjuncts(e, &conjs)
	for _, ce := range conjs {
		cs, n := cmpLits(ce)
		for _, k := range cs[:n] {
			tbl, _ := a.resolve(k.ref) // walk resolved every column
			a.preds = append(a.preds, Predicate{Table: tbl, Column: k.ref.Column, Pass: k.mask, Value: a.params[k.lit.Slot]})
		}
	}
	return nil
}
