package sqlmini

import (
	"fmt"
	"sort"
)

// Predicate is a simple comparison of a column against a literal,
// extracted for horizontal (range) classification.
type Predicate struct {
	Table  string
	Column string
	Op     string // = < <= > >= <> BETWEEN (Lo/Hi set)
	Value  Value
	Hi     Value // upper bound for BETWEEN
}

// QueryInfo is the static analysis of a statement used by query
// classification (Section 3.1): the referenced tables and columns and
// whether the statement reads or writes.
type QueryInfo struct {
	// Write is true for INSERT/UPDATE/DELETE.
	Write bool
	// Tables lists the referenced table names, sorted.
	Tables []string
	// Columns lists referenced columns as "table.column", sorted. The
	// primary key of every referenced table is always included so that
	// column-based fragments allow lossless reconstruction (Section 3.1:
	// "they contain a candidate key").
	Columns []string
	// Predicates lists simple column-vs-literal comparisons for
	// horizontal classification.
	Predicates []Predicate
}

// Schema maps table names to column definitions; the engine and the
// workload generators both provide one.
type Schema map[string][]Column

// Analyze parses and analyzes one SQL statement against a schema.
func Analyze(sql string, schema Schema) (*QueryInfo, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return AnalyzeStmt(st, schema)
}

// AnalyzeStmt analyzes a parsed statement against a schema.
func AnalyzeStmt(st Statement, schema Schema) (*QueryInfo, error) {
	a := &analyzer{
		schema:  schema,
		aliases: make(map[string]string),
		tables:  make(map[string]bool),
		columns: make(map[string]bool),
		params:  st.Params,
	}
	info := &QueryInfo{}
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
				if err := a.addColumn("", c); err != nil {
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
			if err := a.addColumn("", set.Column); err != nil {
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
	for tbl := range a.tables {
		for _, c := range a.schema[tbl] {
			if c.PrimaryKey {
				a.columns[tbl+"."+c.Name] = true
			}
		}
	}

	for tbl := range a.tables {
		info.Tables = append(info.Tables, tbl)
	}
	sort.Strings(info.Tables)
	for col := range a.columns {
		info.Columns = append(info.Columns, col)
	}
	sort.Strings(info.Columns)
	info.Predicates = a.preds
	return info, nil
}

type analyzer struct {
	schema  Schema
	aliases map[string]string // alias -> table
	tables  map[string]bool
	columns map[string]bool
	params  []Value // the statement's literal values, by Lit.Slot
	preds   []Predicate
}

func (a *analyzer) addTable(table, alias string) error {
	if _, ok := a.schema[table]; !ok {
		return fmt.Errorf("sqlmini: unknown table %q", table)
	}
	a.tables[table] = true
	a.aliases[table] = table
	if alias != "" {
		a.aliases[alias] = table
	}
	return nil
}

func (a *analyzer) addAllColumns() {
	for tbl := range a.tables {
		for _, c := range a.schema[tbl] {
			a.columns[tbl+"."+c.Name] = true
		}
	}
}

// resolveTable finds the table owning a (possibly unqualified) column.
func (a *analyzer) resolveTable(tableRef, column string) (string, error) {
	if tableRef != "" {
		tbl, ok := a.aliases[tableRef]
		if !ok {
			return "", fmt.Errorf("sqlmini: unknown table reference %q", tableRef)
		}
		return tbl, nil
	}
	found := ""
	for tbl := range a.tables {
		for _, c := range a.schema[tbl] {
			if c.Name == column {
				if found != "" && found != tbl {
					return "", fmt.Errorf("sqlmini: ambiguous column %q", column)
				}
				found = tbl
			}
		}
	}
	if found == "" {
		return "", fmt.Errorf("sqlmini: unknown column %q", column)
	}
	return found, nil
}

func (a *analyzer) addColumn(tableRef, column string) error {
	tbl, err := a.resolveTable(tableRef, column)
	if err != nil {
		return err
	}
	a.columns[tbl+"."+column] = true
	return nil
}

// walk records every column e references.
func (a *analyzer) walk(e Expr) (err error) {
	walkExpr(e, func(x Expr) bool {
		if cr, ok := x.(*ColRef); ok && err == nil {
			err = a.addColumn(cr.Table, cr.Column)
		}
		return err == nil
	})
	return err
}

// where records a WHERE clause: its column references and its
// predicates.
func (a *analyzer) where(e Expr) error {
	a.extractPredicates(e)
	return a.walk(e)
}

// flipped is a comparison read from its right operand: k < col is col > k.
var flipped = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

// extractPredicates collects top-level AND-connected column-vs-literal
// comparisons for horizontal classification.
func (a *analyzer) extractPredicates(e Expr) {
	switch x := e.(type) {
	case *BinOp:
		if x.Op == "AND" {
			a.extractPredicates(x.L)
			a.extractPredicates(x.R)
			return
		}
		switch x.Op {
		case "=", "<", "<=", ">", ">=", "<>":
			cr, crOK := x.L.(*ColRef)
			lit, litOK := x.R.(*Lit)
			op := x.Op
			if !crOK || !litOK { // literal op column
				cr, crOK = x.R.(*ColRef)
				lit, litOK = x.L.(*Lit)
				op = flipped[op]
			}
			if crOK && litOK {
				tbl, err := a.resolveTable(cr.Table, cr.Column)
				if err == nil {
					a.preds = append(a.preds, Predicate{Table: tbl, Column: cr.Column, Op: op, Value: a.params[lit.Slot]})
				}
			}
		}
	case *Between:
		cr, ok := x.E.(*ColRef)
		lo, loOK := x.Lo.(*Lit)
		hi, hiOK := x.Hi.(*Lit)
		if ok && loOK && hiOK && !x.Negate {
			tbl, err := a.resolveTable(cr.Table, cr.Column)
			if err == nil {
				a.preds = append(a.preds, Predicate{Table: tbl, Column: cr.Column, Op: "BETWEEN", Value: a.params[lo.Slot], Hi: a.params[hi.Slot]})
			}
		}
	}
}
