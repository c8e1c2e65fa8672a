package sqlmini

import (
	"fmt"
	"testing"
)

// writeRows renders the rows of a SELECT for comparison.
func writeRows(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, e, sql).Rows)
}

// TestUpdateSetSeesEarlierAssignments: a SET expression reads the row as
// the assignments before it in the list left it, so b takes a's new
// value, and an assignment to the same column twice keeps the last.
func TestUpdateSetSeesEarlierAssignments(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, a INT, b INT, f FLOAT)`)
	mustExec(t, e, `INSERT INTO w VALUES (1, 10, 0, 0.5), (2, 20, 0, 1.5)`)
	mustExec(t, e, `UPDATE w SET a = a + 1, b = a, f = f * 2, f = f + a WHERE id = 1`)
	mustExec(t, e, `UPDATE w SET a = a + 1, b = a WHERE a = 20`)
	if got, want := writeRows(t, e, `SELECT id, a, b, f FROM w ORDER BY id`), "[[1 11 11 12] [2 21 21 1.5]]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestUpdateFallibleSetStopsAtFailure: a SET that fails on a row ends the
// statement with the error eval gives, at the first row it fails on; the
// rows before it stay updated and the rows after it are untouched.
func TestUpdateFallibleSetStopsAtFailure(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, n INT, s TEXT)`)
	mustExec(t, e, `INSERT INTO w VALUES (1, 5, NULL), (2, 5, NULL), (3, 5, 'x'), (4, 5, NULL)`)
	_, err := e.Exec(`UPDATE w SET n = s + 1`)
	if err == nil || err.Error() != "sqlmini: arithmetic on non-numeric values" {
		t.Fatalf("error %v, want arithmetic on non-numeric values", err)
	}
	if got, want := writeRows(t, e, `SELECT id, n FROM w ORDER BY id`), "[[1 NULL] [2 NULL] [3 5] [4 5]]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestInsertFailingRowKeepsEarlier: a multi-row INSERT whose third VALUES
// row fails to evaluate stores the two before it and reports the error.
func TestInsertFailingRowKeepsEarlier(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, n INT)`)
	_, err := e.Exec(`INSERT INTO w VALUES (1, 2 * 3), (2, -4), (3, 'a' + 1), (4, 0)`)
	if err == nil || err.Error() != "sqlmini: arithmetic on non-numeric values" {
		t.Fatalf("error %v, want arithmetic on non-numeric values", err)
	}
	if got, want := writeRows(t, e, `SELECT id, n FROM w ORDER BY id`), "[[1 6] [2 -4]]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestInsertUnresolvedRowStoresNothing: a multi-row INSERT whose later
// VALUES row names a column, or holds too few values, fails before it
// stores any row — with the error the one-row INSERT of that row gives —
// leaves the table, its row count and the engine's epoch as they were,
// and in a round the statement after it still applies.
func TestInsertUnresolvedRowStoresNothing(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, n INT)`)
	mustExec(t, e, `INSERT INTO w VALUES (1, 1), (2, 2)`)
	const rows = "[[1 1] [2 2]]"
	for _, c := range []struct{ sql, one string }{
		{`INSERT INTO w VALUES (3, 3), (4, nope)`, `INSERT INTO w VALUES (4, nope)`},
		{`INSERT INTO w VALUES (3, 1 + 2), (4, 'a' + 1), (5, 2 * nope)`, `INSERT INTO w VALUES (5, 2 * nope)`},
		{`INSERT INTO w VALUES (3, 3), (4)`, `INSERT INTO w VALUES (4)`},
	} {
		epoch := e.Epoch()
		_, want := e.Exec(c.one)
		_, err := e.Exec(c.sql)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, the one-row INSERT's %v", c.sql, err, want)
		}
		if got := writeRows(t, e, `SELECT id, n FROM w ORDER BY id`); got != rows || e.Epoch() != epoch {
			t.Fatalf("%s: rows %s at epoch %d, want %s at %d", c.sql, got, e.Epoch(), rows, epoch)
		}
		bad, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		good, err := Parse(`INSERT INTO w VALUES (9, 9)`)
		if err != nil {
			t.Fatal(err)
		}
		res := e.ApplyRound([]Statement{bad, good})
		if res[0].Err == nil || res[0].Err.Error() != want.Error() || res[1].Err != nil || res[1].Affected != 1 {
			t.Fatalf("%s then a good INSERT in a round: %v, %v (%d rows)", c.sql, res[0].Err, res[1].Err, res[1].Affected)
		}
		if got := writeRows(t, e, `SELECT id, n FROM w ORDER BY id`); got != "[[1 1] [2 2] [9 9]]" || e.Epoch() != epoch+1 {
			t.Fatalf("%s then a good INSERT in a round: rows %s at epoch %d, want the good row at %d", c.sql, got, e.Epoch(), epoch+1)
		}
		mustExec(t, e, `DELETE FROM w WHERE id = 9`)
	}
}

// TestWriteUnknownColumns: an unknown column in a SET target, a SET
// expression, a WHERE or a VALUES expression is reported with the text
// it always had, and an UPDATE or DELETE changes no row — even where its
// WHERE matches rows, and where it would match none.
func TestWriteUnknownColumns(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, n INT)`)
	mustExec(t, e, `INSERT INTO w VALUES (1, 1), (2, 2)`)
	for _, c := range []struct{ sql, err string }{
		{`UPDATE w SET nope = 1`, `sqlmini: unknown column "nope" in table "w"`},
		{`UPDATE w SET n = nope + 1`, `sqlmini: unknown column "nope"`},
		{`UPDATE w SET n = 1 + SUM(nope) WHERE id = 99`, `sqlmini: unknown column "nope"`},
		{`UPDATE w SET n = 0, id = n + x.n WHERE id = 1`, `sqlmini: unknown column "x.n"`},
		{`UPDATE w SET n = 0 WHERE nope = 1`, `sqlmini: unknown column "nope"`},
		{`UPDATE w SET n = 0 WHERE id = 99 AND nope = 1`, `sqlmini: unknown column "nope"`},
		{`DELETE FROM w WHERE n > 0 AND w.nope = 1`, `sqlmini: unknown column "w.nope"`},
		{`DELETE FROM w WHERE id > 99 OR nope = 1`, `sqlmini: unknown column "nope"`},
		{`INSERT INTO w VALUES (3, nope)`, `sqlmini: unknown column "nope"`},
		{`INSERT INTO w VALUES (3, MAX(nope))`, `sqlmini: unknown column "nope"`},
		{`INSERT INTO w VALUES (3, COUNT(*))`, `sqlmini: aggregate COUNT outside aggregation`},
		{`INSERT INTO w (id, nope) VALUES (3, 1)`, `sqlmini: unknown column "nope" in table "w"`},
	} {
		if _, err := e.Exec(c.sql); err == nil || err.Error() != c.err {
			t.Errorf("%s: error %v, want %s", c.sql, err, c.err)
		}
	}
	if got, want := writeRows(t, e, `SELECT id, n FROM w ORDER BY id`), "[[1 1] [2 2]]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestWriteSealedAndTailRows: a non-pk UPDATE and a DELETE whose WHERE
// matches rows of a sealed chunk and of the tail find them all, and
// count every row they examine.
func TestWriteSealedAndTailRows(t *testing.T) {
	const k = 7
	e := New()
	mustExec(t, e, `CREATE TABLE w (id INT PRIMARY KEY, g INT, s TEXT, f FLOAT)`)
	rows := make([]Row, rowChunkLen+k)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % 5)), Text(fmt.Sprintf("s%d", i%3)), Float(float64(i) / 2)}
	}
	if err := e.BulkInsert("w", rows); err != nil {
		t.Fatal(err)
	}
	// g = 1 AND s = 's0': i ≡ 1 (mod 5) and i ≡ 0 (mod 3), i ≡ 6 (mod 15).
	match := 0
	for i := range rows {
		if i%15 == 6 {
			match++
		}
	}
	res := mustExec(t, e, `UPDATE w SET f = f + g, s = 'u' WHERE g = 1 AND s = 's0'`)
	if res.Affected != match || res.Scanned != int64(len(rows)) {
		t.Fatalf("UPDATE affected %d of %d scanned, want %d of %d", res.Affected, res.Scanned, match, len(rows))
	}
	if got, want := writeRows(t, e, `SELECT id, f FROM w WHERE s = 'u' AND (id = 6 OR id = 1026)`), "[[6 4] [1026 514]]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	res = mustExec(t, e, `DELETE FROM w WHERE s = 'u' OR id >= 1028`)
	if want := match + (len(rows) - 1028); res.Affected != want || res.Scanned != int64(len(rows)) {
		t.Fatalf("DELETE affected %d of %d scanned, want %d of %d", res.Affected, res.Scanned, want, len(rows))
	}
	if got, want := writeRows(t, e, `SELECT COUNT(*), MAX(id) FROM w`), fmt.Sprintf("[[%d 1027]]", 1028-match); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestWriteAllocations pins what one committed single-statement round
// allocates on a 20k-row table, for the four write shapes of an OLTP
// round: a pk UPDATE of a literal, of arithmetic on the row, of two
// columns, and a one-row INSERT. The statement's expressions compile
// into the engine's write scratch, which a warm engine reuses, and read
// the row in place or through one-row vectors kept there.
func TestWriteAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs = 20_000, 100
	for _, c := range []struct {
		name   string
		sql    func(i int) string
		allocs float64
	}{
		{"pk UPDATE of a literal", func(i int) string { return fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, i, (i*7919)%n) }, 15},
		{"pk UPDATE of arithmetic", func(i int) string {
			return fmt.Sprintf(`UPDATE acct SET balance = balance - 1 WHERE id = %d`, (i*7919)%n)
		}, 15},
		{"pk UPDATE of two columns", func(i int) string {
			return fmt.Sprintf(`UPDATE acct SET balance = %d, branch = %d WHERE id = %d`, i, i%100, (i*7919)%n)
		}, 18},
		{"one-row INSERT", func(i int) string { return fmt.Sprintf(`INSERT INTO acct VALUES (%d, 1, 0, 'n')`, n+i) }, 18},
	} {
		e := loadAcct(t, n)
		sqls := make([]string, runs+2)
		for i := range sqls {
			sqls[i] = c.sql(i)
		}
		rounds := roundsOf(t, sqls)
		next := 0
		round := func() {
			if res := e.ApplyRound(rounds[next]); res[0].Err != nil || res[0].Affected != 1 {
				t.Fatalf("%s: affected %d, err %v", c.name, res[0].Affected, res[0].Err)
			}
			next++
		}
		round() // the first publish after the load, and a warm scratch
		if got := testing.AllocsPerRun(runs, round); got != c.allocs {
			t.Errorf("%s: %.1f allocations per round, want %.0f", c.name, got, c.allocs)
		}
	}
}
