// Package sqlmini is a small embedded relational database engine: a SQL
// subset (CREATE TABLE, SELECT with joins/aggregation/ordering, INSERT,
// UPDATE, DELETE), an in-memory row store with primary-key hash indexes,
// and a tree-walking executor.
//
// It is the backend DBMS substrate of the paper reproduction: the
// paper's prototype drives PostgreSQL/MySQL instances, which are not
// available here, so every cluster backend embeds a sqlmini engine
// instead. The engine additionally exposes static query analysis
// (referenced tables, columns, and predicates) used by the query
// classification of internal/classify.
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value kinds of the engine's type system.
type Kind uint8

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (also used for dates, as day
	// numbers).
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindText is a string.
	KindText
)

// String returns the kind name as used in CREATE TABLE.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindNull:
		return "NULL"
	}
	return "?"
}

// Value is a single SQL value.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Text returns a text value.
func Text(v string) Value { return Value{K: KindText, S: v} }

// Bool encodes a boolean as the integers 0/1 (the engine has no
// dedicated boolean type, like SQLite).
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether the value is true under SQL semantics (non-zero
// number; NULL and text are false).
func (v Value) Truth() bool {
	switch v.K {
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Compare orders two values: NULL < numbers < text; numbers compare
// numerically with int/float coercion; text compares lexically.
// The result is -1, 0, or 1.
func Compare(a, b Value) int {
	rank := func(v Value) int {
		switch v.K {
		case KindNull:
			return 0
		case KindInt, KindFloat:
			return 1
		default:
			return 2
		}
	}
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.S, b.S)
	}
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// key renders a canonical form for grouping and index keys.
func (v Value) key() string {
	var buf [32]byte
	return string(v.appendPKKey(buf[:0]))
}

// appendPKKey appends the key() form of v — the format pkIndex is keyed
// by — to b. A caller that only looks the key up passes a stack buffer
// and converts in the map index expression, which allocates nothing.
// The float folding below and keyOf's (key.go, the secondary indexes'
// format) must stay the same rule: a join probes either index with the
// other table's value and expects 2 to find 2.0 in both
// (TestKeyClassesMatchValueKey).
func (v Value) appendPKKey(b []byte) []byte {
	switch v.K {
	case KindNull:
		return append(b, 0)
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return strconv.AppendInt(append(b, 'i'), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), v.F, 'b', -1, 64)
	default:
		return append(append(b, 's'), v.S...)
	}
}

// Row is a tuple of values.
type Row []Value

// Column describes one table column. Indexed declares a secondary hash
// index on it (index.go): CreateTable and Restore build the table with
// one, and CloneTable and Snapshot set it on every column the table
// indexes — CreateIndex's included — so a copy of a table carries the
// index set of its source through any transport that carries columns.
type Column struct {
	Name       string
	Type       Kind
	PrimaryKey bool
	Indexed    bool
}

// coerce converts a value to the column type on insert/update, allowing
// int→float widening and numeric→text never (strictness catches workload
// generator bugs early).
func coerce(v Value, t Kind) (Value, error) {
	if v.K == KindNull || v.K == t {
		return v, nil
	}
	if v.K == KindInt && t == KindFloat {
		return Float(float64(v.I)), nil
	}
	if v.K == KindFloat && t == KindInt {
		return Int(int64(v.F)), nil
	}
	return Null, fmt.Errorf("sqlmini: cannot store %s value into %s column", v.K, t)
}
