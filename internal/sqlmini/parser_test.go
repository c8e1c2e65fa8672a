package sqlmini

import (
	"strings"
	"testing"
)

// TestParserStatements exercises the grammar corners not reached by the
// executor tests.
func TestParserAccepts(t *testing.T) {
	good := []string{
		`SELECT 1 + 2 FROM t`,
		`SELECT a FROM t;`,
		`SELECT a AS x, b y FROM t`,
		`SELECT * FROM t WHERE a = 1 AND NOT b = 2 OR c = 3`,
		`SELECT a FROM t WHERE a NOT LIKE 'x%'`,
		`SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL`,
		`SELECT COUNT(DISTINCT a) FROM t`,
		`SELECT -a FROM t WHERE -a < -1`,
		`SELECT a FROM t WHERE a IN (1) OR a NOT IN (2, 3)`,
		`SELECT a FROM t1 t INNER JOIN t2 u ON t.a = u.b`,
		`INSERT INTO t (a) VALUES (1), (2), (3)`,
		`UPDATE t SET a = 1, b = 'x' WHERE c BETWEEN 1 AND 2`,
		`DELETE FROM t`,
		`CREATE TABLE t (a INTEGER PRIMARY KEY, b REAL, c VARCHAR(10))`,
		`DROP TABLE t`,
		`SELECT a FROM t ORDER BY a ASC, b DESC LIMIT 5`,
		`SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1`,
		`SELECT a FROM t WHERE a = 1.5e-3`,
		`SELECT a FROM t -- comment at end`,
	}
	for _, sql := range good {
		if _, err := Parse(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

func TestParserRejects(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT a`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`,
		`SELECT a FROM t ORDER a`,
		`SELECT a FROM t LIMIT x`,
		`SELECT a FROM t LIMIT -1`,
		`SELECT a FROM t extra garbage somewhere ???`,
		`SELECT a FROM t1 JOIN ON a = b`,
		`SELECT a FROM t1 JOIN t2`,
		`INSERT t VALUES (1)`,
		`INSERT INTO t`,
		`INSERT INTO t VALUES 1`,
		`INSERT INTO t VALUES (1`,
		`UPDATE t a = 1`,
		`UPDATE t SET a`,
		`DELETE t`,
		`CREATE t (a INT)`,
		`CREATE TABLE t`,
		`CREATE TABLE t (a)`,
		`CREATE TABLE t (a INT PRIMARY)`,
		`CREATE TABLE t (a VARCHAR(x))`,
		`DROP t`,
		`SELECT a FROM t WHERE a BETWEEN 1`,
		`SELECT a FROM t WHERE a IN 1`,
		`SELECT a FROM t WHERE a IS 1`,
		`SELECT a FROM t WHERE (a = 1`,
		`SELECT SUM( FROM t`,
		`SELECT 99999999999999999999999999 FROM t`,
		`SELECT 'open string FROM t`,
		"SELECT \x01 FROM t",
		"SELECT a\xeb FROM t", // a Latin-1 letter byte is no identifier character
		"SELECT \xc3\xa9 FROM t",
		`GRANT ALL ON t`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%q: no error", sql)
		}
	}
}

func TestParserNotLookahead(t *testing.T) {
	// "NOT" followed by something other than BETWEEN/IN/LIKE restarts
	// as a plain comparison end.
	st, err := Parse(`SELECT a FROM t WHERE a = 1 AND NOT b = 2`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.AST.(*SelectStmt)
	bo, ok := sel.Where.(*BinOp)
	if !ok || bo.Op != "AND" {
		t.Fatalf("where = %#v", sel.Where)
	}
	if _, ok := bo.R.(*UnOp); !ok {
		t.Fatalf("right side not a NOT: %#v", bo.R)
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex(`SELECT a_1, 'it''s', 1.5, <= <> != -- done`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a_1", ",", "it's", ",", "1.5", ",", "<=", "<>", "!=", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	if kinds[0] != tokKeyword || kinds[1] != tokIdent || kinds[3] != tokString || kinds[5] != tokFloat {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE t1 (id INT PRIMARY KEY, v INT)`)
	mustExec(t, e, `CREATE TABLE t2 (id2 INT PRIMARY KEY, v INT)`)
	mustExec(t, e, `INSERT INTO t1 VALUES (1, 10)`)
	mustExec(t, e, `INSERT INTO t2 VALUES (1, 20)`)
	// Unqualified v is ambiguous across the join.
	if _, err := e.Exec(`SELECT v FROM t1 JOIN t2 ON id = id2`); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column not detected: %v", err)
	}
	// Qualified works.
	r := mustExec(t, e, `SELECT t2.v FROM t1 JOIN t2 ON id = id2`)
	if r.Rows[0][0].I != 20 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOrderByInputColumn(t *testing.T) {
	e := newTestDB(t)
	// ORDER BY a column that is not projected.
	r := mustExec(t, e, `SELECT name FROM item ORDER BY price DESC LIMIT 2`)
	if r.Rows[0][0].S != "date" || r.Rows[1][0].S != "cherry" {
		t.Fatalf("rows = %v", r.Rows)
	}
	// ORDER BY an expression over input columns.
	r = mustExec(t, e, `SELECT name FROM item ORDER BY price * stock DESC LIMIT 1`)
	if r.Rows[0][0].S != "apple" { // 1.5*100 = 150 is the max
		t.Fatalf("rows = %v", r.Rows)
	}
	// ORDER BY an aggregate that is not a named output column fails.
	if _, err := e.Exec(`SELECT name FROM item GROUP BY name ORDER BY SUM(price)`); err == nil {
		t.Fatal("unnamed aggregate order accepted")
	}
}

func TestOrderByGroupSampleColumn(t *testing.T) {
	e := newTestDB(t)
	// Order grouped output by the grouped (non-projected via alias)
	// column evaluated on the group sample row.
	r := mustExec(t, e, `SELECT COUNT(*) AS n FROM orders GROUP BY cust ORDER BY cust`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// ann(2), bob(1), cat(1) ordered by cust.
	if r.Rows[0][0].I != 2 {
		t.Fatalf("first group = %v", r.Rows[0])
	}
}

func TestDistinctWithOrderByInput(t *testing.T) {
	e := newTestDB(t)
	r := mustExec(t, e, `SELECT DISTINCT cust FROM orders ORDER BY oid`)
	// DISTINCT keeps the first-seen input row alignment; ordering by
	// oid (an input column) must not error.
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
}
