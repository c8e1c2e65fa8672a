package sqlmini

import (
	"math"
	"testing"
)

// TestKeyClassesMatchValueKey holds hkey (and its rendering for long
// key lists) to the equivalence classes of Value.key(), which the pk
// index still uses (secondary indexes are keyed by hkey itself): two
// values share a join bucket, a group or a DISTINCT slot exactly when a
// lookup in either index would treat them as the same key. Compare has
// the same classes — what a filter calls equal is what the keys match —
// and orders them totally, which sorting an index's order relies on.
func TestKeyClassesMatchValueKey(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // a NaN with another payload
	vals := []Value{
		Null,
		Int(0), Int(1), Int(-1), Int(5), Int(math.MaxInt64), Int(math.MinInt64), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(5), Float(5.5), Float(-5.5),
		Float(1 << 53), Float(1e19), Float(-1e19), Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(nan2),
		Text(""), Text("5"), Text("i5"), Text("a"), Text("a|"), Text("\x00"),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := a.key() == b.key()
			if got := keyOf(a) == keyOf(b); got != want {
				t.Errorf("keyOf(%v) == keyOf(%v) is %v, key() says %v", a, b, got, want)
			}
			ra, rb := string(appendKey(nil, a)), string(appendKey(nil, b))
			if got := ra == rb; got != want {
				t.Errorf("rendering of %v == rendering of %v is %v, key() says %v", a, b, got, want)
			}
			if got := Compare(a, b) == 0; got != want {
				t.Errorf("Compare(%v, %v) == 0 is %v, key() says %v", a, b, got, want)
			}
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v, %v) = %d, reversed %d", a, b, Compare(a, b), Compare(b, a))
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("Compare is not transitive over %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

// TestKeyMapArities drives every arity of keyMap through the same
// script: a list never put reads 0, a put is read back through an equal
// list of another kind, and lists that differ in one position, or only
// in where their text is cut, stay apart.
func TestKeyMapArities(t *testing.T) {
	for arity := 1; arity <= 4; arity++ {
		m := newKeyMap(arity, 0)
		// list is (first, rest, "z", "z", ...) cut to arity.
		list := func(first Value, rest string) []Value {
			return []Value{first, Text(rest), Text("z"), Text("z")}[:arity]
		}
		a, b, c := list(Int(1), "x"), list(Float(1), "x"), list(Int(2), "x")
		if got := m.get(a); got != 0 {
			t.Fatalf("arity %d: empty map answers %d", arity, got)
		}
		m.put(a, 7)
		m.put(c, 9)
		if m.get(a) != 7 || m.get(b) != 7 || m.get(c) != 9 {
			t.Fatalf("arity %d: got %d %d %d, want 7 7 9", arity, m.get(a), m.get(b), m.get(c))
		}
		if arity >= 2 {
			m.put(list(Text("ab"), "c"), 3)
			if got := m.get(list(Text("a"), "bc")); got != 0 {
				t.Fatalf("arity %d: (ab, c) and (a, bc) collide", arity)
			}
		}
	}
}
