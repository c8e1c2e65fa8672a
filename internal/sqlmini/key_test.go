package sqlmini

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestKeyClasses holds hkey, and appendKey's rendering of it (the pk
// index's and long key lists' form), to the equivalence classes of the
// checksum's rendering (appendSumKey): two values share a pk slot, a
// join bucket, a group or a DISTINCT slot exactly when two replicas
// holding them hash them alike. Compare has the same classes — what a
// filter calls equal is what the keys match — and orders them totally,
// which sorting an index's order relies on.
func TestKeyClasses(t *testing.T) {
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
			want := string(appendSumKey(nil, a)) == string(appendSumKey(nil, b))
			if got := keyOf(a) == keyOf(b); got != want {
				t.Errorf("keyOf(%v) == keyOf(%v) is %v, the checksum says %v", a, b, got, want)
			}
			ra, rb := string(appendKey(nil, a)), string(appendKey(nil, b))
			if got := ra == rb; got != want {
				t.Errorf("rendering of %v == rendering of %v is %v, the checksum says %v", a, b, got, want)
			}
			if got := Compare(a, b) == 0; got != want {
				t.Errorf("Compare(%v, %v) == 0 is %v, the checksum says %v", a, b, got, want)
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

// TestPKKeyFolding drives the pk paths that keyOf's float folding
// reaches and no other test does: 2.0 is the key 2 to a WHERE pk =
// literal access, to an UPDATE's pk fast path and its pk-change check,
// to a join step probing the pk, and to an insert into a FLOAT pk.
func TestPKKeyFolding(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		want      string // the result rows, or else the affected count
		plan      string // for a SELECT: the pk access Explain must show
		err       string // a substring of the expected error
		scanned   int64  // when not 0, the rows the statement must scan
	}{
		{name: "where int pk = 2.0", sql: `SELECT v FROM t WHERE id = 2.0`, want: "[[b]]", plan: "pk="},
		{name: "update where int pk = 2.0", sql: `UPDATE t SET v = 'x' WHERE id = 2.0`, want: "1", scanned: 1},
		// UPDATE's pk fast path takes a WHERE of one conjunct, pk =
		// literal, either way round and qualified or not.
		{name: "update where id = 2", sql: `UPDATE t SET v = 'x' WHERE id = 2`, want: "1", scanned: 1},
		{name: "update where 2 = id", sql: `UPDATE t SET v = 'x' WHERE 2 = id`, want: "1", scanned: 1},
		{name: "update where t.id = 2", sql: `UPDATE t SET v = 'x' WHERE t.id = 2`, want: "1", scanned: 1},
		{name: "update where id = 2 and v = 'b'", sql: `UPDATE t SET v = 'x' WHERE id = 2 AND v = 'b'`, want: "1", scanned: 3},
		{name: "join float into int pk", sql: `SELECT f.k, t.v FROM f JOIN t ON f.k = t.id`, want: "[[2 b]]", plan: "probe pk"},
		{name: "update int pk to 3.0", sql: `UPDATE t SET id = 3.0 WHERE id = 2`, err: "duplicate primary key"},
		{name: "float pk 2 then 2.0", sql: `INSERT INTO fp VALUES (2.0)`, err: "duplicate primary key"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			for _, sql := range []string{
				`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`,
				`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`,
				`CREATE TABLE f (k FLOAT)`,
				`INSERT INTO f VALUES (2.0), (2.5)`,
				`CREATE TABLE fp (id FLOAT PRIMARY KEY)`,
				`INSERT INTO fp VALUES (2)`,
			} {
				mustExec(t, e, sql)
			}
			if c.plan != "" {
				plan, err := e.Explain(c.sql)
				if err != nil || !strings.Contains(plan, c.plan) {
					t.Fatalf("plan %q, %v; want %q in it", plan, err, c.plan)
				}
			}
			res, err := e.Exec(c.sql)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(res.Rows)
			if res.Rows == nil {
				got = fmt.Sprint(res.Affected)
			}
			if got != c.want {
				t.Fatalf("got %s, want %s", got, c.want)
			}
			if c.scanned != 0 && res.Scanned != c.scanned {
				t.Fatalf("scanned %d rows, want %d", res.Scanned, c.scanned)
			}
		})
	}
}
