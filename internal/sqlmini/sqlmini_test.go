package sqlmini

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// mustExec fails the test on error.
func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func newTestDB(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `CREATE TABLE item (id INT PRIMARY KEY, name TEXT, price FLOAT, stock INT)`)
	mustExec(t, e, `CREATE TABLE orders (oid INT PRIMARY KEY, item_id INT, qty INT, cust TEXT)`)
	mustExec(t, e, `INSERT INTO item VALUES (1, 'apple', 1.5, 100), (2, 'banana', 0.5, 50), (3, 'cherry', 5.0, 10), (4, 'date', 7.25, 0)`)
	mustExec(t, e, `INSERT INTO orders VALUES (10, 1, 3, 'ann'), (11, 2, 5, 'bob'), (12, 1, 1, 'ann'), (13, 3, 2, 'cat')`)
	return e
}

func TestCreateInsertSelectStar(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT * FROM item`)
	if len(r.Rows) != 4 || len(r.Columns) != 4 {
		t.Fatalf("got %d rows %d cols", len(r.Rows), len(r.Columns))
	}
	if r.Columns[0] != "id" || r.Columns[1] != "name" {
		t.Fatalf("columns = %v", r.Columns)
	}
}

func TestWhereComparisons(t *testing.T) {
	e := newTestDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM item WHERE price > 1.0`, 3},
		{`SELECT id FROM item WHERE price >= 1.5`, 3},
		{`SELECT id FROM item WHERE price < 1.0`, 1},
		{`SELECT id FROM item WHERE price <= 0.5`, 1},
		{`SELECT id FROM item WHERE name = 'apple'`, 1},
		{`SELECT id FROM item WHERE name <> 'apple'`, 3},
		{`SELECT id FROM item WHERE name != 'apple'`, 3},
		{`SELECT id FROM item WHERE price > 1 AND stock > 0`, 2},
		{`SELECT id FROM item WHERE price > 5 OR stock > 60`, 2},
		{`SELECT id FROM item WHERE NOT price > 1`, 1},
		{`SELECT id FROM item WHERE price BETWEEN 1 AND 6`, 2},
		{`SELECT id FROM item WHERE price NOT BETWEEN 1 AND 6`, 2},
		{`SELECT id FROM item WHERE id IN (1, 3)`, 2},
		{`SELECT id FROM item WHERE id NOT IN (1, 3)`, 2},
		{`SELECT id FROM item WHERE name LIKE 'a%'`, 1},
		{`SELECT id FROM item WHERE name LIKE '%e'`, 2},
		{`SELECT id FROM item WHERE name LIKE '_anana'`, 1},
		{`SELECT id FROM item WHERE name NOT LIKE 'a%'`, 3},
		{`SELECT id FROM item WHERE name IS NULL`, 0},
		{`SELECT id FROM item WHERE name IS NOT NULL`, 4},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT price * stock AS value FROM item WHERE id = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].F != 150 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Columns[0] != "value" {
		t.Fatalf("alias = %v", r.Columns)
	}
	r = mustExec(t, e, `SELECT 2 + 3 * 4 AS x, (2 + 3) * 4 AS y, 10 / 4 AS z, -id AS n FROM item WHERE id = 1`)
	row := r.Rows[0]
	if row[0].I != 14 || row[1].I != 20 {
		t.Fatalf("precedence wrong: %v", row)
	}
	if row[2].F != 2.5 {
		t.Fatalf("division = %v, want 2.5", row[2])
	}
	if row[3].I != -1 {
		t.Fatalf("negation = %v", row[3])
	}
	// Division by zero yields NULL.
	r = mustExec(t, e, `SELECT 1 / 0 AS d FROM item WHERE id = 1`)
	if !r.Rows[0][0].IsNull() {
		t.Fatalf("1/0 = %v, want NULL", r.Rows[0][0])
	}
}

func TestPKFastPath(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT name FROM item WHERE id = 3`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "cherry" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Scanned != 1 {
		t.Fatalf("Scanned = %d, want 1 (index lookup)", r.Scanned)
	}
	// Miss.
	r = mustExec(t, e, `SELECT name FROM item WHERE id = 99`)
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Full scan path counts all rows.
	r = mustExec(t, e, `SELECT name FROM item WHERE stock = 100`)
	if r.Scanned != 4 {
		t.Fatalf("Scanned = %d, want 4", r.Scanned)
	}
}

func TestJoinHash(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT orders.oid, item.name FROM orders JOIN item ON orders.item_id = item.id WHERE orders.cust = 'ann' ORDER BY oid`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][1].S != "apple" || r.Rows[1][1].S != "apple" {
		t.Fatalf("join result wrong: %v", r.Rows)
	}
}

func TestJoinAliases(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT o.qty, i.price FROM orders o JOIN item i ON o.item_id = i.id WHERE i.name = 'cherry'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoinNestedLoopFallback(t *testing.T) {
	e := newTestDB(t)
	// Non-equi join condition forces the nested-loop path.
	r := mustExec(t, e, `SELECT o.oid FROM orders o JOIN item i ON o.item_id < i.id WHERE i.id = 3`)
	// orders with item_id < 3: 10(1), 11(2), 12(1) -> 3 rows.
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT COUNT(*), SUM(stock), AVG(price), MIN(price), MAX(price) FROM item`)
	row := r.Rows[0]
	if row[0].I != 4 {
		t.Fatalf("COUNT = %v", row[0])
	}
	if row[1].I != 160 {
		t.Fatalf("SUM = %v", row[1])
	}
	if row[2].F != (1.5+0.5+5.0+7.25)/4 {
		t.Fatalf("AVG = %v", row[2])
	}
	if row[3].F != 0.5 || row[4].F != 7.25 {
		t.Fatalf("MIN/MAX = %v %v", row[3], row[4])
	}
}

func TestGroupBy(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT cust, SUM(qty) AS total FROM orders GROUP BY cust ORDER BY total DESC`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].S != "bob" || r.Rows[0][1].I != 5 {
		t.Fatalf("first group = %v", r.Rows[0])
	}
	// ann: 3+1=4 then cat: 2.
	if r.Rows[1][1].I != 4 || r.Rows[2][1].I != 2 {
		t.Fatalf("groups = %v", r.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING COUNT(*) > 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "ann" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT COUNT(*), SUM(qty) FROM orders WHERE cust = 'nobody'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 0 || !r.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT DISTINCT cust FROM orders ORDER BY cust`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderByMultiKeyAndLimit(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT cust, qty FROM orders ORDER BY cust ASC, qty DESC LIMIT 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].S != "ann" || r.Rows[0][1].I != 3 || r.Rows[1][1].I != 1 {
		t.Fatalf("order wrong: %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT oid FROM orders ORDER BY oid LIMIT 0`)
	if len(r.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows")
	}
}

// TestOrderLimitMatchesStableSort: under every LIMIT the ordered result
// is the prefix of a stable sort of all rows — ties in scan order —
// whether the rows went through the bounded heap (LIMIT below the row
// count) or the plain sort, and a bare LIMIT takes the first rows.
func TestOrderLimitMatchesStableSort(t *testing.T) {
	const n = 300
	e := New()
	mustExec(t, e, `CREATE TABLE s (id INT PRIMARY KEY, a INT, b INT)`)
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(rng.Intn(5))), Int(int64(rng.Intn(4)))}
	}
	if err := e.BulkInsert("s", rows); err != nil {
		t.Fatal(err)
	}
	// ORDER BY a DESC, b (b is not projected: evaluated on the input row).
	want := append([]Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i][1].I != want[j][1].I {
			return want[i][1].I > want[j][1].I
		}
		return want[i][2].I < want[j][2].I
	})
	ids := func(rs []Row) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r[0].I
		}
		return out
	}
	for _, k := range []int{0, 1, 2, 7, n - 1, n, n + 5} {
		got := mustExec(t, e, fmt.Sprintf(`SELECT id, a FROM s ORDER BY a DESC, b LIMIT %d`, k)).Rows
		if w := ids(want[:min(k, n)]); !reflect.DeepEqual(ids(got), w) {
			t.Fatalf("LIMIT %d:\n got %v\nwant %v", k, ids(got), w)
		}
		got = mustExec(t, e, fmt.Sprintf(`SELECT id FROM s LIMIT %d`, k)).Rows
		if w := ids(rows[:min(k, n)]); !reflect.DeepEqual(ids(got), w) {
			t.Fatalf("bare LIMIT %d:\n got %v\nwant %v", k, ids(got), w)
		}
	}
	if got := mustExec(t, e, `SELECT id FROM s ORDER BY a DESC, b`).Rows; !reflect.DeepEqual(ids(got), ids(want)) {
		t.Fatalf("no LIMIT:\n got %v\nwant %v", ids(got), ids(want))
	}
}

func TestUpdate(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `UPDATE item SET stock = stock - 10 WHERE id = 1`)
	if r.Affected != 1 {
		t.Fatalf("Affected = %d", r.Affected)
	}
	got := mustExec(t, e, `SELECT stock FROM item WHERE id = 1`)
	if got.Rows[0][0].I != 90 {
		t.Fatalf("stock = %v", got.Rows[0][0])
	}
	// Multi-row update.
	r = mustExec(t, e, `UPDATE item SET price = price * 2 WHERE stock > 0`)
	if r.Affected != 3 {
		t.Fatalf("Affected = %d, want 3", r.Affected)
	}
}

func TestUpdatePrimaryKey(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `UPDATE item SET id = 100 WHERE id = 1`)
	r := mustExec(t, e, `SELECT name FROM item WHERE id = 100`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "apple" {
		t.Fatalf("pk move failed: %v", r.Rows)
	}
	if r.Scanned != 1 {
		t.Fatalf("index not maintained after pk update")
	}
	// Moving onto an existing key must fail.
	if _, err := e.Exec(`UPDATE item SET id = 2 WHERE id = 100`); err == nil {
		t.Fatal("duplicate pk accepted")
	}
}

func TestDelete(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `DELETE FROM orders WHERE cust = 'ann'`)
	if r.Affected != 2 {
		t.Fatalf("Affected = %d", r.Affected)
	}
	got := mustExec(t, e, `SELECT COUNT(*) FROM orders`)
	if got.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", got.Rows[0][0])
	}
	// PK index must be rebuilt.
	got = mustExec(t, e, `SELECT cust FROM orders WHERE oid = 11`)
	if len(got.Rows) != 1 || got.Rows[0][0].S != "bob" {
		t.Fatalf("index broken after delete: %v", got.Rows)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `INSERT INTO item (id, name) VALUES (9, 'elder')`)
	r := mustExec(t, e, `SELECT price, stock FROM item WHERE id = 9`)
	if !r.Rows[0][0].IsNull() || !r.Rows[0][1].IsNull() {
		t.Fatalf("unlisted columns not NULL: %v", r.Rows[0])
	}
}

func TestErrors(t *testing.T) {
	e := newTestDB(t)
	bad := []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM item`,
		`SELECT * FROM item WHERE`,
		`INSERT INTO item VALUES (1, 'dup', 0, 0)`, // duplicate pk
		`INSERT INTO item (id) VALUES (20, 21)`,    // arity
		`INSERT INTO missing VALUES (1)`,
		`UPDATE missing SET x = 1`,
		`UPDATE item SET nope = 1`,
		`DELETE FROM missing`,
		`CREATE TABLE item (id INT)`, // exists
		`DROP TABLE missing`,
		`SELECT id FROM item ORDER BY missing_col`,
		`SELECT SUM(name) FRO item`,
		`TRUNCATE item`,
		`SELECT id FROM item WHERE name @ 'x'`,
		`SELECT id, FROM item`,
		`CREATE TABLE t2 (id BLOB)`,
		`CREATE TABLE t3 (id INT PRIMARY KEY, id TEXT)`,
		`CREATE TABLE t4 (a INT PRIMARY KEY, b INT PRIMARY KEY)`,
		`SELECT COUNT( FROM item`,
		`SELECT 'unterminated FROM item`,
	}
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%s: no error", sql)
		}
	}
}

func TestAggregateOutsideGroupError(t *testing.T) {
	e := newTestDB(t)
	// Aggregate in WHERE is rejected at evaluation.
	if _, err := e.Exec(`SELECT id FROM item WHERE SUM(price) > 1`); err == nil {
		t.Fatal("aggregate in WHERE accepted")
	}
}

func TestBulkInsertAndDataBytes(t *testing.T) {
	e := New()
	if err := e.CreateTable("t", []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "v", Type: KindText}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Text(fmt.Sprintf("v%d", i))}
	}
	if err := e.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	if e.Table("t").NumRows() != 100 {
		t.Fatalf("NumRows = %d", e.Table("t").NumRows())
	}
	if e.DataBytes() <= 0 {
		t.Fatal("DataBytes <= 0")
	}
	if err := e.BulkInsert("missing", rows); err == nil {
		t.Fatal("bulk insert into missing table accepted")
	}
	if err := e.BulkInsert("t", []Row{{Int(0), Text("dup")}}); err == nil {
		t.Fatal("duplicate pk in bulk insert accepted")
	}
	// Type violation.
	if err := e.BulkInsert("t", []Row{{Text("x"), Text("y")}}); err == nil {
		t.Fatal("type violation accepted")
	}
}

func TestDropTable(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `DROP TABLE orders`)
	if e.Table("orders") != nil {
		t.Fatal("table still present")
	}
	if got := e.Tables(); len(got) != 1 || got[0] != "item" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestValueCompareAndString(t *testing.T) {
	if Compare(Int(1), Float(1.0)) != 0 {
		t.Error("int/float coercion broken")
	}
	if Compare(Null, Int(0)) >= 0 {
		t.Error("NULL must sort first")
	}
	if Compare(Text("a"), Int(5)) <= 0 {
		t.Error("text must sort after numbers")
	}
	if Compare(Text("a"), Text("b")) >= 0 {
		t.Error("text compare broken")
	}
	for v, want := range map[Value]string{
		Int(5):      "5",
		Float(2.5):  "2.5",
		Text("x"):   "x",
		Null:        "NULL",
		Bool(true):  "1",
		Bool(false): "0",
	} {
		if v.String() != want {
			t.Errorf("String(%v) = %q want %q", v.K, v.String(), want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"", "%", true},
		{"", "_", false},
		{"ab", "a_b", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

// schemaOf is the schema of e's published tables, the analyzer's input.
func schemaOf(e *Engine) Schema {
	s := Schema{}
	for name, tv := range e.loadView().tables {
		s[name] = tv.t.Cols
	}
	return s
}

func TestAnalyzeSelect(t *testing.T) {
	e := newTestDB(t)
	schema := schemaOf(e)
	info, err := Analyze(`SELECT i.name, SUM(o.qty) FROM orders o JOIN item i ON o.item_id = i.id WHERE o.cust = 'ann' AND i.price BETWEEN 1 AND 5 GROUP BY i.name`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.Write {
		t.Error("SELECT marked as write")
	}
	if len(info.Tables) != 2 || info.Tables[0] != "item" || info.Tables[1] != "orders" {
		t.Fatalf("Tables = %v", info.Tables)
	}
	wantCols := []string{"item.id", "item.name", "item.price", "orders.cust", "orders.item_id", "orders.oid", "orders.qty"}
	if strings.Join(info.Columns, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("Columns = %v, want %v", info.Columns, wantCols)
	}
	if len(info.Predicates) != 2 {
		t.Fatalf("Predicates = %v", info.Predicates)
	}
}

func TestAnalyzeWrites(t *testing.T) {
	e := newTestDB(t)
	schema := schemaOf(e)
	info, err := Analyze(`UPDATE item SET stock = stock - 1 WHERE id = 7`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Write {
		t.Error("UPDATE not marked as write")
	}
	if len(info.Tables) != 1 || info.Tables[0] != "item" {
		t.Fatalf("Tables = %v", info.Tables)
	}
	if len(info.Predicates) != 1 || info.Predicates[0].Column != "id" || info.Predicates[0].Op != "=" {
		t.Fatalf("Predicates = %v", info.Predicates)
	}

	info, err = Analyze(`INSERT INTO orders VALUES (1, 2, 3, 'x')`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Write || len(info.Columns) != 4 {
		t.Fatalf("insert analysis: %+v", info)
	}

	info, err = Analyze(`DELETE FROM orders WHERE qty < 1`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Write || len(info.Predicates) != 1 {
		t.Fatalf("delete analysis: %+v", info)
	}
}

func TestAnalyzeStar(t *testing.T) {
	e := newTestDB(t)
	info, err := Analyze(`SELECT * FROM item`, schemaOf(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Columns) != 4 {
		t.Fatalf("Columns = %v", info.Columns)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	e := newTestDB(t)
	schema := schemaOf(e)
	for _, sql := range []string{
		`SELECT * FROM missing`,
		`SELECT nope FROM item`,
		`SELECT x FROM`,
	} {
		if _, err := Analyze(sql, schema); err == nil {
			t.Errorf("%s: no error", sql)
		}
	}
	// The analyzer resolves names as execution does: a table named where
	// its alias is required, and an unqualified column of a self-join.
	for _, sql := range []string{
		`SELECT item.name FROM item i`,
		`SELECT name FROM item a JOIN item b ON a.id = b.id`,
	} {
		_, want := e.Exec(sql)
		if want == nil {
			t.Fatalf("%s: Exec gave no error", sql)
		}
		if _, err := Analyze(sql, schema); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Analyze error %v, Exec error %v", sql, err, want)
		}
	}
}

func TestAnalyzeFlippedPredicate(t *testing.T) {
	e := newTestDB(t)
	info, err := Analyze(`SELECT id FROM item WHERE 5 < price`, schemaOf(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Predicates) != 1 || info.Predicates[0].Op != ">" {
		t.Fatalf("Predicates = %v (flip failed)", info.Predicates)
	}
}

// naiveFilter is an independent oracle: filter rows of a single table by
// evaluating a comparison directly.
func naiveFilter(rows []Row, col int, op string, v Value) int {
	n := 0
	for _, r := range rows {
		c := Compare(r[col], v)
		ok := false
		switch op {
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		case "=":
			ok = c == 0
		}
		if r[col].IsNull() {
			ok = false
		}
		if ok {
			n++
		}
	}
	return n
}

// TestPropertyFilterVsOracle: random tables and random range predicates
// must agree with the naive oracle.
func TestPropertyFilterVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		if err := e.CreateTable("t", []Column{
			{Name: "id", Type: KindInt, PrimaryKey: true},
			{Name: "v", Type: KindInt},
		}); err != nil {
			return false
		}
		n := 1 + rng.Intn(60)
		rows := make([]Row, n)
		for i := 0; i < n; i++ {
			rows[i] = Row{Int(int64(i)), Int(int64(rng.Intn(20)))}
		}
		if err := e.BulkInsert("t", rows); err != nil {
			return false
		}
		ops := []string{"<", "<=", ">", ">=", "="}
		op := ops[rng.Intn(len(ops))]
		pivot := int64(rng.Intn(20))
		r, err := e.Exec(fmt.Sprintf("SELECT id FROM t WHERE v %s %d", op, pivot))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := naiveFilter(rows, 1, op, Int(pivot))
		if len(r.Rows) != want {
			t.Logf("seed %d: got %d want %d (op %s %d)", seed, len(r.Rows), want, op, pivot)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGroupSumVsOracle: GROUP BY SUM must match manual
// aggregation.
func TestPropertyGroupSumVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		if err := e.CreateTable("t", []Column{
			{Name: "id", Type: KindInt, PrimaryKey: true},
			{Name: "g", Type: KindInt},
			{Name: "v", Type: KindInt},
		}); err != nil {
			return false
		}
		n := 1 + rng.Intn(80)
		want := map[int64]int64{}
		rows := make([]Row, n)
		for i := 0; i < n; i++ {
			g := int64(rng.Intn(5))
			v := int64(rng.Intn(100))
			want[g] += v
			rows[i] = Row{Int(int64(i)), Int(g), Int(v)}
		}
		if err := e.BulkInsert("t", rows); err != nil {
			return false
		}
		r, err := e.Exec(`SELECT g, SUM(v) FROM t GROUP BY g`)
		if err != nil {
			return false
		}
		if len(r.Rows) != len(want) {
			return false
		}
		for _, row := range r.Rows {
			if want[row[0].I] != row[1].I {
				t.Logf("seed %d: group %d sum %d want %d", seed, row[0].I, row[1].I, want[row[0].I])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyJoinVsOracle: hash join must agree with a nested-loop
// count.
func TestPropertyJoinVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		if err := e.CreateTable("a", []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "k", Type: KindInt}}); err != nil {
			return false
		}
		if err := e.CreateTable("b", []Column{{Name: "id", Type: KindInt, PrimaryKey: true}, {Name: "k", Type: KindInt}}); err != nil {
			return false
		}
		na, nb := 1+rng.Intn(30), 1+rng.Intn(30)
		ka := make([]int64, na)
		kb := make([]int64, nb)
		rowsA := make([]Row, na)
		for i := range rowsA {
			ka[i] = int64(rng.Intn(8))
			rowsA[i] = Row{Int(int64(i)), Int(ka[i])}
		}
		rowsB := make([]Row, nb)
		for i := range rowsB {
			kb[i] = int64(rng.Intn(8))
			rowsB[i] = Row{Int(int64(i)), Int(kb[i])}
		}
		if e.BulkInsert("a", rowsA) != nil || e.BulkInsert("b", rowsB) != nil {
			return false
		}
		r, err := e.Exec(`SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`)
		if err != nil {
			return false
		}
		want := int64(0)
		for _, x := range ka {
			for _, y := range kb {
				if x == y {
					want++
				}
			}
		}
		return r.Rows[0][0].I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReads(t *testing.T) {
	e := newTestDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := e.Exec(`SELECT COUNT(*) FROM item WHERE price > 1`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	e := newTestDB(t)
	done := make(chan error, 4)
	for i := 0; i < 2; i++ {
		go func(base int) {
			for j := 0; j < 30; j++ {
				sql := fmt.Sprintf(`INSERT INTO orders VALUES (%d, 1, 1, 'w')`, 1000+base*100+j)
				if _, err := e.Exec(sql); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
		go func() {
			for j := 0; j < 30; j++ {
				if _, err := e.Exec(`SELECT SUM(qty) FROM orders`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM orders`)
	if r.Rows[0][0].I != 4+60 {
		t.Fatalf("count = %v, want 64", r.Rows[0][0])
	}
}

func TestStringEscapesAndComments(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'it''s') -- trailing comment`)
	r := mustExec(t, e, `SELECT s FROM t WHERE id = 1`)
	if r.Rows[0][0].S != "it's" {
		t.Fatalf("escape broken: %q", r.Rows[0][0].S)
	}
}

func TestVarcharLengthAndFloatLiterals(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(20), f FLOAT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'x', 1.5e2)`)
	r := mustExec(t, e, `SELECT f FROM t WHERE id = 1`)
	if r.Rows[0][0].F != 150 {
		t.Fatalf("float literal = %v", r.Rows[0][0])
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestDB(t)
	// orders custs: ann, bob, ann, cat -> 3 distinct.
	r := mustExec(t, e, `SELECT COUNT(DISTINCT cust), COUNT(cust) FROM orders`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("COUNT(DISTINCT) = %v, want 3", r.Rows[0][0])
	}
	if r.Rows[0][1].I != 4 {
		t.Fatalf("COUNT = %v, want 4", r.Rows[0][1])
	}
	// SUM(DISTINCT): item_ids 1,2,1,3 -> 1+2+3 = 6.
	r = mustExec(t, e, `SELECT SUM(DISTINCT item_id) FROM orders`)
	if r.Rows[0][0].I != 6 {
		t.Fatalf("SUM(DISTINCT) = %v, want 6", r.Rows[0][0])
	}
	// Grouped distinct.
	r = mustExec(t, e, `SELECT cust, COUNT(DISTINCT item_id) AS n FROM orders GROUP BY cust ORDER BY cust`)
	if r.Rows[0][0].S != "ann" || r.Rows[0][1].I != 1 {
		t.Fatalf("ann distinct items = %v", r.Rows[0])
	}
}

func TestSecondaryIndex(t *testing.T) {
	e := newTestDB(t)
	if err := e.CreateIndex("orders", "cust"); err != nil {
		t.Fatal(err)
	}
	if got := e.Indexes("orders"); len(got) != 1 || got[0] != "cust" {
		t.Fatalf("Indexes = %v", got)
	}
	// Indexed point lookup scans only the matching rows.
	r := mustExec(t, e, `SELECT oid FROM orders WHERE cust = 'ann'`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Scanned != 2 {
		t.Fatalf("Scanned = %d, want 2 (index hit)", r.Scanned)
	}
	// Writes invalidate; the next lookup sees fresh data.
	mustExec(t, e, `INSERT INTO orders VALUES (14, 2, 1, 'ann')`)
	r = mustExec(t, e, `SELECT oid FROM orders WHERE cust = 'ann'`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows after insert = %v", r.Rows)
	}
	mustExec(t, e, `UPDATE orders SET cust = 'zed' WHERE oid = 10`)
	r = mustExec(t, e, `SELECT oid FROM orders WHERE cust = 'ann'`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows after update = %v", r.Rows)
	}
	mustExec(t, e, `DELETE FROM orders WHERE cust = 'ann'`)
	r = mustExec(t, e, `SELECT oid FROM orders WHERE cust = 'ann'`)
	if len(r.Rows) != 0 {
		t.Fatalf("rows after delete = %v", r.Rows)
	}
	// Results must match an unindexed engine on random data.
	r2 := mustExec(t, e, `SELECT COUNT(*) FROM orders WHERE cust = 'zed'`)
	if r2.Rows[0][0].I != 1 {
		t.Fatalf("count = %v", r2.Rows[0][0])
	}
}

func TestCreateIndexErrors(t *testing.T) {
	e := newTestDB(t)
	if err := e.CreateIndex("missing", "x"); err == nil {
		t.Error("unknown table accepted")
	}
	if err := e.CreateIndex("orders", "nope"); err == nil {
		t.Error("unknown column accepted")
	}
	if err := e.CreateIndex("orders", "oid"); err == nil {
		t.Error("primary key index accepted")
	}
	if err := e.CreateIndex("orders", "cust"); err != nil {
		t.Fatal(err)
	}
	// Declaring it again is a no-op: a loader copies a table's columns
	// (which carry Indexed) and then its Indexes.
	if err := e.CreateIndex("orders", "cust"); err != nil {
		t.Errorf("re-declaring an index: %v", err)
	}
	if got := e.Indexes("orders"); len(got) != 1 {
		t.Errorf("Indexes after re-declaring = %v", got)
	}
	if e.Indexes("missing") != nil {
		t.Error("Indexes on missing table not nil")
	}
}

// TestIndexConcurrentReaders: concurrent indexed reads while a writer
// churns must stay consistent (exercises the lazy-rebuild locking).
func TestIndexConcurrentReaders(t *testing.T) {
	e := newTestDB(t)
	if err := e.CreateIndex("orders", "cust"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 9)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 60; i++ {
				r, err := e.Exec(`SELECT COUNT(*) FROM orders WHERE cust = 'ann'`)
				if err != nil {
					done <- err
					return
				}
				if n := r.Rows[0][0].I; n < 2 {
					done <- fmt.Errorf("indexed count %d < 2", n)
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 40; i++ {
			if _, err := e.Exec(fmt.Sprintf(`INSERT INTO orders VALUES (%d, 1, 1, 'ann')`, 100+i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
