package sqlmini

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// appendKey appends a self-delimiting rendering of v's hkey: the tests'
// reference form of a key, which a Go map of strings keys as keyOf
// would (the pk index, index buckets and keyMap are held to such maps).
func appendKey(buf []byte, v Value) []byte {
	k := keyOf(v)
	buf = append(buf, byte(k.kind))
	switch k.kind {
	case KindInt, KindFloat:
		buf = binary.AppendUvarint(buf, k.num)
	case KindText:
		buf = binary.AppendUvarint(buf, uint64(len(k.str)))
		buf = append(buf, k.str...)
	}
	return buf
}

// TestKeyClasses holds hkey, and appendKey's rendering of it (the
// tests' reference form), to the equivalence classes of the
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
		x, m := &execRun{}, newKeyMap(arity, 0, 0)
		// list is (first, rest, "z", "z", ...) cut to arity.
		list := func(first Value, rest string) []Value {
			return []Value{first, Text(rest), Text("z"), Text("z")}[:arity]
		}
		a, b, c := list(Int(1), "x"), list(Float(1), "x"), list(Int(2), "x")
		if got := m.get(a); got != 0 {
			t.Fatalf("arity %d: empty map answers %d", arity, got)
		}
		m.put(x, a, 7)
		m.put(x, c, 9)
		if m.get(a) != 7 || m.get(b) != 7 || m.get(c) != 9 {
			t.Fatalf("arity %d: got %d %d %d, want 7 7 9", arity, m.get(a), m.get(b), m.get(c))
		}
		if arity >= 2 {
			m.put(x, list(Text("ab"), "c"), 3)
			if got := m.get(list(Text("a"), "bc")); got != 0 {
				t.Fatalf("arity %d: (ab, c) and (a, bc) collide", arity)
			}
		}
	}
}

// TestKeyMapHashCollisions: lists whose hashes agree are told apart by
// their keys — words, hkeys, and which of the two a key is kept as —
// which a 64-bit hash leaves the reference tests no chance to reach.
func TestKeyMapHashCollisions(t *testing.T) {
	x := &execRun{}
	for arity := 1; arity <= 3; arity++ {
		m := newKeyMap(arity, 0, 0)
		ints, texts := []Value{Int(1), Int(2), Int(3)}[:arity], []Value{Text("a"), Null, Float(0.5)}[:arity]
		m.put(x, ints, 1)
		m.put(x, texts, 2)
		w, hk := []int64{1, 2, 3}[:arity], []hkey{keyOf(Text("a")), keyOf(Null), keyOf(Float(0.5))}[:arity]
		if m.find(hashWords(w), w, nil).val != 1 || m.find(hashHkeys(hk), nil, hk).val != 2 {
			t.Fatalf("arity %d: the lists put are not found", arity)
		}
		otherW, otherHk := []int64{1, 2, 4}[:arity], []hkey{keyOf(Text("b")), keyOf(Null), keyOf(Float(0.5))}[:arity]
		if arity > 1 {
			otherW = []int64{1, 5, 3}[:arity]
		}
		for _, s := range []*slot{
			m.find(hashHkeys(hk), w, nil),
			m.find(hashWords(w), nil, hk),
			m.find(hashHkeys(hk), nil, otherHk),
		} {
			if s.val != 0 {
				t.Fatalf("arity %d: a list with another's hash reads %d", arity, s.val)
			}
		}
		if arity > 1 {
			if s := m.find(hashWords(w), otherW, nil); s.val != 0 {
				t.Fatalf("arity %d: integers with another list's hash read %d", arity, s.val)
			}
		}
	}
}

// keyValues are the values driveKeyMap draws a list from: a byte below
// 128 is a small integer (b-20), any other one of these, which keyOf
// tells apart or folds together at every edge it has.
var keyValues = []Value{
	Null, Float(math.NaN()), Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)),
	Int(0), Float(0), Float(math.Copysign(0, -1)), Int(2), Float(2), Float(2.5),
	Int(1 << 53), Int(1<<53 + 1), Float(1 << 53),
	Int(math.MinInt64), Int(math.MinInt64 + 1), Int(math.MaxInt64), Int(math.MaxInt64 - 1), Float(math.MaxInt64),
	Text(""), Text("2"), Text("a"), Text(strings.Repeat("long text ", 40)),
}

// denseCases are the ranges driveKeyMap offers useDense for denseN
// one-integer lists, and whether each must take dense mode: the ends of
// int64, a range exactly at the threshold (4*denseN) and one past it.
// An array at the threshold outgrows minPooled, so it is drawn.
const denseN = 100

var denseCases = []struct {
	lo, hi int64
	dense  bool
}{
	{math.MinInt64, math.MinInt64 + 4*denseN, true},
	{math.MinInt64, math.MinInt64 + 4*denseN + 1, false},
	{math.MaxInt64 - 4*denseN, math.MaxInt64, true},
	{math.MaxInt64 - 4*denseN - 1, math.MaxInt64, false},
	{math.MinInt64, math.MaxInt64, false},
	{-20, 4*denseN - 20, true},
	{-20, 4*denseN - 19, false},
	{7, 7, true},
	{math.MaxInt64, math.MinInt64, false}, // no non-NULL integer
}

// driveKeyMap runs the program data against a keyMap and a reference
// map keyed by the appendKey renderings of the lists, and fails on the
// first answer they differ on. Two maps run in turn, each over its own
// run's scratch, the second after the first run gave its slabs back, so
// it may draw them and must not see them as they were left. Per map:
// its arity, its bound and size hint, for one-value lists a range to
// key densely, then operations until the data ends or a zero byte:
// get or put of a list (putInts and getInts when every value is an
// INT), a put with a fresh value overwriting what was there.
func driveKeyMap(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for phase := 0; phase < 2; phase++ {
		arity := 1 + int(next())%4
		x, m, ref := &execRun{}, newKeyMap(arity, 4*int(next()), int(next())), map[string]int32{}
		if arity == 1 {
			if b := next(); int(b) < 2*len(denseCases) && b%2 == 0 {
				c := denseCases[b/2]
				if got := m.useDense(x, c.lo, c.hi, denseN) == modeDense; got != c.dense {
					t.Fatalf("useDense(%d, %d, %d) = %v, want %v", c.lo, c.hi, denseN, got, c.dense)
				}
			}
		}
		list := make([]Value, arity)
		var val int32
		for op := next(); op != 0; op = next() {
			ints, allInt := [2]int64{}, arity <= 2
			var ks []byte
			for c := range list {
				if b := next(); b < 128 {
					list[c] = Int(int64(b) - 20)
				} else {
					list[c] = keyValues[int(b)%len(keyValues)]
				}
				if c < 2 {
					ints[c] = list[c].I
				}
				allInt = allInt && list[c].K == KindInt
				ks = appendKey(ks, list[c])
			}
			byInts := allInt && op&2 != 0
			if op&1 != 0 {
				val++
				if byInts {
					m.putInts(x, ints, val)
				} else {
					m.put(x, list, val)
				}
				ref[string(ks)] = val
				continue
			}
			got := m.get(list)
			if byInts {
				got = m.getInts(ints)
			}
			if want := ref[string(ks)]; got != want {
				t.Fatalf("arity %d, %d lists put: %v reads %d, want %d", arity, len(ref), list, got, want)
			}
		}
		if x.sc != nil {
			x.sc.release()
		}
	}
}

// TestKeyMapAgainstReference drives keyMap through seeded programs (see
// driveKeyMap) long enough to grow its slots past the pools' smallest
// class: every pair of arities in turn, and every range useDense is
// offered, also to a second map of one-value lists that may draw the
// first's dense array.
func TestKeyMapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var data []byte
		for phase, arity := range []int{1 + i%4, 1 + i/4%4} {
			data = append(data, byte(arity-1), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if arity == 1 {
				data = append(data, byte(2*((i/16+phase)%len(denseCases))))
			}
			for op := rng.Intn(3000); op > 0; op-- {
				data = append(data, byte(1+rng.Intn(255)))
				for c := 0; c < arity; c++ {
					data = append(data, byte(rng.Intn(256)))
				}
			}
			data = append(data, 0)
		}
		driveKeyMap(t, data)
	}
}

// FuzzKeyMap holds keyMap to the reference on arbitrary programs. The
// seeds read, per map: arity-1, bound/4, size hint, a dense range (arity
// 1 only), then op and value bytes up to a zero.
func FuzzKeyMap(f *testing.F) {
	// At MinInt64's end of a dense range, then one past the threshold.
	f.Add([]byte{0, 10, 0, 0, 1, 138, 3, 139, 2, 138, 2, 139, 0, 140, 0, 1, 2, 140, 0, 2, 0})
	// NULL, text, 0 and 0.0 in pairs, then four-value lists.
	f.Add([]byte{1, 0, 0, 1, 147, 143, 3, 129, 130, 2, 147, 143, 1, 5, 8, 2, 5, 8, 0, 3, 1, 1, 1, 144, 145, 146, 147, 2, 144, 145, 146, 147, 0})
	// At MaxInt64's end of a dense range, with a float past it.
	f.Add([]byte{0, 100, 0, 4, 3, 140, 3, 141, 2, 140, 2, 141, 1, 142, 2, 142, 0})
	f.Fuzz(driveKeyMap)
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
