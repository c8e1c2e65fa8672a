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
	"cmp"
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

// Compare orders two values: NULL < numbers < text; numbers compare by
// numeric value whatever their kinds, text lexically. It is a total
// order — what sorting an index's permutation needs — and it is exact:
// two integers compare as integers (2^53 and 2^53+1 differ, as they do
// to the pk index and to hkey), an integer and a float without rounding
// either, and NaN is below every other number and equal to itself, as
// cmp.Compare orders floats. Two values compare equal exactly when
// keyOf gives them one key (TestKeyClassesMatchValueKey), so a filter,
// a hash join and an index probe agree on what "=" matches. The result
// is -1, 0, or 1.
func Compare(a, b Value) int {
	switch {
	case a.K == KindInt && b.K == KindInt:
		return cmp.Compare(a.I, b.I)
	case a.K == KindFloat && b.K == KindFloat:
		return cmp.Compare(a.F, b.F)
	case a.K == KindInt && b.K == KindFloat:
		return compareIntFloat(a.I, b.F)
	case a.K == KindFloat && b.K == KindInt:
		return -compareIntFloat(b.I, a.F)
	case a.K == KindText && b.K == KindText:
		return strings.Compare(a.S, b.S)
	}
	// Different classes (or two NULLs): NULL < numbers < text.
	return cmp.Compare(kindRank[a.K], kindRank[b.K])
}

var kindRank = [...]int8{KindNull: 0, KindInt: 1, KindFloat: 1, KindText: 2}

// compareIntFloat compares i with f exactly: float64(i) would round an
// integer beyond 2^53 onto its neighbour.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 1 // NaN sorts below every number
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	// |f| < 2^63: truncation is exact, and beyond 2^53 f is whole.
	t := int64(f)
	if i != t {
		return cmp.Compare(i, t)
	}
	return cmp.Compare(0, f-float64(t))
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
