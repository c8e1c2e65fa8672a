package sqlmini

// Expr is a SQL expression node.
type Expr interface{ isExpr() }

// Lit is a literal position: the Slot-th literal of its statement in
// textual order. The value is not in the tree — an execution supplies
// it as Statement.Params[Slot] — so statements that differ only in
// their literals share one shape, one plan and one tree.
type Lit struct{ Slot int }

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table  string // "" if unqualified
	Column string
}

// BinOp is a binary operation. Op is one of
// = <> < <= > >= + - * / AND OR LIKE.
type BinOp struct {
	Op   string
	L, R Expr
}

// UnOp is a unary operation: NOT or - (negation).
type UnOp struct {
	Op string
	E  Expr
}

// Between is "expr BETWEEN lo AND hi" (inclusive).
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// InList is "expr IN (v1, v2, ...)".
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

// IsNull is "expr IS [NOT] NULL".
type IsNull struct {
	E      Expr
	Negate bool
}

// Agg is an aggregate function call: COUNT/SUM/AVG/MIN/MAX. A nil
// operand with Func COUNT is COUNT(*). Distinct marks
// COUNT(DISTINCT expr) and friends: only distinct operand values are
// accumulated.
type Agg struct {
	Func     string // upper-case
	E        Expr   // nil for COUNT(*)
	Distinct bool

	// slot is the node's position among its plan's aggregates, set on
	// the plan's own bound copy (buildPlan): where the node it compiles
	// to finds the group's value for it. groups.add evaluates
	// the plan's compiled E (cagg), a plain column straight from its
	// vector.
	slot int
}

func (*Lit) isExpr()     {}
func (*ColRef) isExpr()  {}
func (*BinOp) isExpr()   {}
func (*UnOp) isExpr()    {}
func (*Between) isExpr() {}
func (*InList) isExpr()  {}
func (*IsNull) isExpr()  {}
func (*Agg) isExpr()     {}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Expr  Expr
	Alias string // "" if none
	Star  bool   // SELECT *
}

// JoinClause is one "JOIN table ON left = right" element.
type JoinClause struct {
	Table string
	Alias string
	On    Expr
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Stmt is the root of a statement's syntax tree.
type Stmt interface{ isStmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	Table    string
	Alias    string
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 if absent
}

// InsertStmt is an INSERT statement; Columns empty means all columns in
// table order.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []struct {
		Column string
		Expr   Expr
	}
	Where Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is a CREATE TABLE statement.
type CreateTableStmt struct {
	Table   string
	Columns []Column
}

// DropTableStmt is a DROP TABLE statement.
type DropTableStmt struct{ Table string }

func (*SelectStmt) isStmt()      {}
func (*InsertStmt) isStmt()      {}
func (*UpdateStmt) isStmt()      {}
func (*DeleteStmt) isStmt()      {}
func (*CreateTableStmt) isStmt() {}
func (*DropTableStmt) isStmt()   {}
