package classify

import (
	"fmt"
	"math"
	"testing"

	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
)

func testSchema() sqlmini.Schema {
	return sqlmini.Schema{
		"item": {
			{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "name", Type: sqlmini.KindText},
			{Name: "price", Type: sqlmini.KindFloat},
		},
		"orders": {
			{Name: "oid", Type: sqlmini.KindInt, PrimaryKey: true},
			{Name: "item_id", Type: sqlmini.KindInt},
			{Name: "qty", Type: sqlmini.KindInt},
		},
	}
}

func TestClassifyTableBased(t *testing.T) {
	entries := []Entry{
		{SQL: `SELECT price FROM item WHERE id = 5`, Count: 30, Cost: 1},
		{SQL: `SELECT name FROM item WHERE id = 7`, Count: 30, Cost: 1}, // same table -> same class
		{SQL: `SELECT qty FROM orders WHERE oid = 1`, Count: 20, Cost: 1},
		{SQL: `SELECT qty FROM orders o JOIN item i ON o.item_id = i.id`, Count: 10, Cost: 2},
		{SQL: `UPDATE orders SET qty = 1 WHERE oid = 3`, Count: 20, Cost: 1},
	}
	res, err := Classify(entries, testSchema(), Options{Strategy: TableBased})
	if err != nil {
		t.Fatal(err)
	}
	cls := res.Classification
	if got := len(cls.Classes()); got != 4 {
		t.Fatalf("classes = %d, want 4", got)
	}
	if got := len(cls.Reads()); got != 3 {
		t.Fatalf("reads = %d, want 3", got)
	}
	if got := len(cls.Updates()); got != 1 {
		t.Fatalf("updates = %d, want 1", got)
	}
	// The two item selects share a class.
	if res.ClassOf[entries[0].SQL] != res.ClassOf[entries[1].SQL] {
		t.Fatal("same-table queries not grouped")
	}
	// Weights: total = 30+30+20+20+20 = 120; item class = 60/120.
	c := cls.Class(res.ClassOf[entries[0].SQL])
	if math.Abs(c.Weight-0.5) > 1e-9 {
		t.Fatalf("item class weight = %v, want 0.5", c.Weight)
	}
	// Heaviest read is named Q1.
	if c.Name != "Q1" {
		t.Fatalf("heaviest class named %q, want Q1", c.Name)
	}
	// Join class references both tables.
	j := cls.Class(res.ClassOf[entries[3].SQL])
	if len(j.Fragments()) != 2 {
		t.Fatalf("join class fragments = %v", j.Fragments())
	}
	if err := cls.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyColumnBased(t *testing.T) {
	entries := []Entry{
		{SQL: `SELECT price FROM item WHERE id = 5`, Count: 1, Cost: 1},
		{SQL: `SELECT name FROM item WHERE id = 7`, Count: 1, Cost: 1},
	}
	res, err := Classify(entries, testSchema(), Options{Strategy: ColumnBased, RowCounts: map[string]int64{"item": 100}})
	if err != nil {
		t.Fatal(err)
	}
	cls := res.Classification
	// Different column sets -> different classes.
	if res.ClassOf[entries[0].SQL] == res.ClassOf[entries[1].SQL] {
		t.Fatal("distinct column sets were merged")
	}
	// Each class includes the pk column item.id.
	for _, c := range cls.Classes() {
		found := false
		for _, f := range c.Fragments() {
			if f == "item.id" {
				found = true
			}
		}
		if !found {
			t.Fatalf("class %s lacks candidate key: %v", c.Name, c.Fragments())
		}
	}
	// Column sizes: id is 8 bytes * 100 rows, name 24 * 100.
	f, ok := cls.Fragment("item.name")
	if !ok || f.Size != 2400 {
		t.Fatalf("item.name size = %v, want 2400", f.Size)
	}
	f, _ = cls.Fragment("item.id")
	if f.Size != 800 {
		t.Fatalf("item.id size = %v, want 800", f.Size)
	}
}

func TestClassifyHorizontal(t *testing.T) {
	spec := HorizontalSpec{Column: "id", Buckets: 4, Min: 0, Max: 99}
	entries := []Entry{
		{SQL: `SELECT price FROM item WHERE id = 5`, Count: 1, Cost: 1},               // bucket 0
		{SQL: `SELECT price FROM item WHERE id BETWEEN 30 AND 60`, Count: 1, Cost: 1}, // buckets 1-2
		{SQL: `SELECT price FROM item WHERE id >= 80`, Count: 1, Cost: 1},             // bucket 3
		{SQL: `SELECT price FROM item WHERE name = 'x'`, Count: 1, Cost: 1},           // all buckets
		{SQL: `SELECT qty FROM orders WHERE oid = 1`, Count: 1, Cost: 1},              // un-specced table
	}
	res, err := Classify(entries, testSchema(), Options{
		Strategy:   Horizontal,
		Horizontal: map[string]HorizontalSpec{"item": spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	cls := res.Classification
	get := func(sql string) *core.Class { return cls.Class(res.ClassOf[sql]) }
	if n := len(get(entries[0].SQL).Fragments()); n != 1 {
		t.Fatalf("point query touches %d buckets, want 1", n)
	}
	if n := len(get(entries[1].SQL).Fragments()); n != 2 {
		t.Fatalf("range query touches %d buckets, want 2 (%v)", n, get(entries[1].SQL).Fragments())
	}
	if n := len(get(entries[2].SQL).Fragments()); n != 1 {
		t.Fatalf(">= query touches %d buckets, want 1", n)
	}
	if n := len(get(entries[3].SQL).Fragments()); n != 4 {
		t.Fatalf("full scan touches %d buckets, want 4", n)
	}
	if n := len(get(entries[4].SQL).Fragments()); n != 1 {
		t.Fatalf("orders query fragments = %d, want 1 whole table", n)
	}
}

func TestClassifyAllToOneClassIsFullReplication(t *testing.T) {
	// Section 3.1: "If all queries are classified to a single class, the
	// resulting allocation is a full replication."
	entries := []Entry{
		{SQL: `SELECT name FROM item`, Count: 1, Cost: 1},
		{SQL: `SELECT price FROM item`, Count: 1, Cost: 1},
		{SQL: `SELECT qty FROM orders`, Count: 1, Cost: 1},
	}
	res, err := Classify(entries, testSchema(), Options{Strategy: TableBased})
	if err != nil {
		t.Fatal(err)
	}
	// 2 classes here (different tables); force one class by a join-all
	// query only.
	_ = res
	one := []Entry{{SQL: `SELECT name FROM item i JOIN orders o ON i.id = o.item_id`, Count: 5, Cost: 2}}
	res, err = Classify(one, testSchema(), Options{Strategy: TableBased})
	if err != nil {
		t.Fatal(err)
	}
	cls := res.Classification
	if len(cls.Classes()) != 1 {
		t.Fatalf("classes = %d, want 1", len(cls.Classes()))
	}
	a, err := core.Greedy(cls, core.UniformBackends(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.DegreeOfReplication()-3) > 1e-9 {
		t.Fatalf("degree = %v, want 3 (full replication)", a.DegreeOfReplication())
	}
}

func TestClassifyWeights(t *testing.T) {
	// Weight uses count × cost (Eq. 4).
	entries := []Entry{
		{SQL: `SELECT name FROM item`, Count: 1, Cost: 9},
		{SQL: `SELECT qty FROM orders`, Count: 9, Cost: 1}, // same total
	}
	res, err := Classify(entries, testSchema(), Options{Strategy: TableBased})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Classification.Classes() {
		if math.Abs(c.Weight-0.5) > 1e-9 {
			t.Fatalf("class %s weight = %v, want 0.5", c.Name, c.Weight)
		}
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify(nil, testSchema(), Options{}); err == nil {
		t.Error("empty journal accepted")
	}
	bad := []Entry{{SQL: `SELECT nope FROM item`, Count: 1, Cost: 1}}
	if _, err := Classify(bad, testSchema(), Options{}); err == nil {
		t.Error("unanalyzable query accepted")
	}
	if _, err := Classify([]Entry{{SQL: `SELECT name FROM item`, Count: 0, Cost: 1}}, testSchema(), Options{}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Classify([]Entry{{SQL: `SELECT name FROM item`, Count: 1, Cost: 0}}, testSchema(), Options{}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := Classify([]Entry{{SQL: `SELECT name FROM item`, Count: 1, Cost: 1}}, testSchema(), Options{Strategy: Strategy(9)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if TableBased.String() != "table-based" || ColumnBased.String() != "column-based" ||
		Horizontal.String() != "horizontal" || Strategy(9).String() != "unknown" {
		t.Fatal("Strategy.String wrong")
	}
}

func TestClassifyEndToEndWithGreedy(t *testing.T) {
	// A small OLTP-ish journal must classify and allocate cleanly at
	// every granularity.
	entries := []Entry{
		{SQL: `SELECT price FROM item WHERE id = 5`, Count: 40, Cost: 1},
		{SQL: `SELECT qty FROM orders WHERE oid = 1`, Count: 30, Cost: 1},
		{SQL: `UPDATE item SET price = 2 WHERE id = 5`, Count: 10, Cost: 1},
		{SQL: `UPDATE orders SET qty = 2 WHERE oid = 1`, Count: 20, Cost: 1},
	}
	for _, s := range []Strategy{TableBased, ColumnBased} {
		res, err := Classify(entries, testSchema(), Options{Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for n := 1; n <= 4; n++ {
			a, err := core.Greedy(res.Classification, core.UniformBackends(n))
			if err != nil {
				t.Fatalf("%v n=%d: %v", s, n, err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%v n=%d: %v", s, n, err)
			}
		}
	}
}

func TestBucketRangeClamping(t *testing.T) {
	spec := HorizontalSpec{Column: "id", Buckets: 4, Min: 0, Max: 99}
	pred := func(pass uint8, v int64) sqlmini.Predicate {
		return sqlmini.Predicate{Table: "t", Column: "id", Pass: pass, Value: sqlmini.Int(v)}
	}
	eq, lt, gt, ge := sqlmini.PassEQ, sqlmini.PassLT, sqlmini.PassGT, sqlmini.PassGT|sqlmini.PassEQ
	for _, c := range []struct {
		what   string
		preds  []sqlmini.Predicate
		lo, hi int
	}{
		{"out-of-range predicate", []sqlmini.Predicate{pred(ge, 500)}, 3, 3},
		// Contradictory predicates fall back to all buckets, whichever
		// comes first.
		{"contradiction", []sqlmini.Predicate{pred(lt, 10), pred(gt, 90)}, 0, 3},
		{"= then >", []sqlmini.Predicate{pred(eq, 10), pred(gt, 50)}, 0, 3},
		{"> then =", []sqlmini.Predicate{pred(gt, 50), pred(eq, 10)}, 0, 3},
		{"<> sets no end", []sqlmini.Predicate{pred(lt|gt, 10)}, 0, 3},
		{"<> beside an end", []sqlmini.Predicate{pred(lt|gt, 10), pred(ge, 60)}, 2, 3},
	} {
		if lo, hi := bucketRange(c.preds, "t", spec); lo != c.lo || hi != c.hi {
			t.Errorf("%s -> buckets [%d,%d], want [%d,%d]", c.what, lo, hi, c.lo, c.hi)
		}
	}
}

func ExampleClassify() {
	schema := sqlmini.Schema{
		"t": {{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true}, {Name: "v", Type: sqlmini.KindInt}},
	}
	res, _ := Classify([]Entry{
		{SQL: "SELECT v FROM t WHERE id = 1", Count: 3, Cost: 1},
		{SQL: "UPDATE t SET v = 2 WHERE id = 1", Count: 1, Cost: 1},
	}, schema, Options{Strategy: TableBased})
	for _, c := range res.Classification.Classes() {
		fmt.Println(c)
	}
	// Output:
	// Q1(read 75.0% {t})
	// U1(update 25.0% {t})
}
