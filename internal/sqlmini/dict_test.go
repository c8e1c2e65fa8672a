package sqlmini_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qcpa/internal/sqlmini"
)

// dictQueries read the TEXT column s of td every way a dictionary
// serves: every value, the filters a chunk decides per entry (=, <>,
// IN, NOT IN, LIKE, BETWEEN, the column on either side), GROUP BY it
// alone and beside an INT, DISTINCT and COUNT(DISTINCT).
var dictQueries = []string{
	`SELECT id, s, v FROM td`,
	`SELECT id FROM td WHERE s = 'b'`,
	`SELECT id FROM td WHERE '' = s`,
	`SELECT id FROM td WHERE s <> 'a' AND v > 2`,
	`SELECT id FROM td WHERE s IN ('a', '', 'w3', 'x')`,
	`SELECT id FROM td WHERE s NOT IN ('b', 'w1')`,
	`SELECT id FROM td WHERE s LIKE 'w1%'`,
	`SELECT id FROM td WHERE s BETWEEN 'a' AND 'c'`,
	`SELECT s, COUNT(*), SUM(v) FROM td GROUP BY s`,
	`SELECT s, v, COUNT(*) FROM td WHERE v < 5 GROUP BY s, v`,
	`SELECT DISTINCT s FROM td`,
	`SELECT COUNT(DISTINCT s), COUNT(s), COUNT(*) FROM td`,
}

// textDictSeeds are FuzzTextDict's seeds, which TestTextDict walks
// whole: two chunks of few strings, then UPDATEs that push the first
// past its bound; a low and a high cardinality load with a tail.
var textDictSeeds = [][]byte{
	{0, 150, 1, 0, 140, 2, 3, 0, 255, 1, 5, 2, 9, 7},
	{0, 100, 0, 0, 200, 1, 1, 6, 2, 40, 0, 2, 3, 9, 9},
}

// TestTextDict holds every statement of dictQueries to the naive
// evaluator after every step of each of textDictSeeds.
func TestTextDict(t *testing.T) {
	for _, data := range textDictSeeds {
		checkTextDict(t, data, false)
	}
}

// FuzzTextDict runs checkTextDict on a sample: one statement of
// dictQueries, picked by the last step's op byte, after the last step.
// An input that stops earlier checks an earlier state, so the inputs
// reach every step and statement between them.
func FuzzTextDict(f *testing.F) {
	for _, data := range textDictSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkTextDict(t, data, true) })
}

// checkTextDict drives a TEXT column through what builds, keeps and
// drops its chunks' dictionaries — bulk loads, one-row INSERTs and pk
// UPDATEs of values that include NULL, the empty string and enough
// distinct strings to pass a chunk's bound — decoded from data, a pair
// of bytes (op, arg) per step, and holds statements of dictQueries to
// the naive evaluator over the same rows, as multisets: every one after
// every step, or with sample only the one the last op picks (op/9)
// after the last step.
func checkTextDict(t *testing.T, data []byte, sample bool) {
	next := func() int {
		if len(data) == 0 {
			return -1
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	e := sqlmini.New()
	cols := []sqlmini.Column{{Name: "id", Type: sqlmini.KindInt, PrimaryKey: true}, {Name: "s", Type: sqlmini.KindText}, {Name: "v", Type: sqlmini.KindInt}}
	if err := e.CreateTable("td", cols); err != nil {
		t.Fatal(err)
	}
	db := map[string]*naiveTable{"td": {cols: cols}}
	fresh := 0
	// value draws a string: NULL, '', one of a few, or one of many —
	// b says which, and a fresh one is new to the table.
	value := func(b int, rng *rand.Rand) sqlmini.Value {
		switch b % 8 {
		case 0:
			return sqlmini.Null
		case 1:
			return sqlmini.Text("")
		case 2, 3, 4:
			return sqlmini.Text([]string{"a", "b", "c", "x"}[rng.Intn(4)])
		case 5:
			fresh++
			return sqlmini.Text(fmt.Sprintf("w%d", fresh))
		}
		return sqlmini.Text(fmt.Sprintf("w%d", rng.Intn(40)))
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	check := func(step int, sql string) {
		t.Helper()
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecStmt(st)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, want := renderRows(res.Rows), renderRows(naiveSelect(db, st.AST.(*sqlmini.SelectStmt), st.Params))
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, %s over %d rows:\nengine %d rows %v\nnaive  %d rows %v", step, sql, len(db["td"].rows), len(got), got, len(want), want)
		}
	}
	step, last := 0, -1
	for ; step < 8; step++ {
		op, arg := next(), next()
		if op < 0 || arg < 0 {
			break
		}
		last = op
		rng := rand.New(rand.NewSource(int64(arg)))
		nt := db["td"]
		switch op % 3 {
		case 0: // a bulk load: a few strings, many, or both
			n := 200 + 8*arg
			rows := make([]sqlmini.Row, n)
			for i := range rows {
				b := []int{rng.Intn(5), 5, rng.Intn(8)}[op/3%3]
				rows[i] = sqlmini.Row{sqlmini.Int(int64(len(nt.rows) + i)), value(b, rng), sqlmini.Int(int64(rng.Intn(9)))}
			}
			if err := e.BulkInsert("td", rows); err != nil {
				t.Fatal(err)
			}
			nt.rows = append(nt.rows, rows...)
		case 1: // one INSERT
			r := sqlmini.Row{sqlmini.Int(int64(len(nt.rows))), value(arg, rng), sqlmini.Int(int64(arg % 9))}
			exec(fmt.Sprintf(`INSERT INTO td VALUES (%d, %s, %d)`, r[0].I, sqlLit(r[1]), r[2].I))
			nt.rows = append(nt.rows, r)
		default: // pk UPDATEs of one stretch of rows, up to 300 of them
			if len(nt.rows) == 0 {
				continue
			}
			at, k := rng.Intn(len(nt.rows)), 1+arg+arg/2
			for i := 0; i < k && at+i < len(nt.rows); i++ {
				v := value(op/3+i, rng)
				exec(fmt.Sprintf(`UPDATE td SET s = %s WHERE id = %d`, sqlLit(v), at+i))
				nt.rows[at+i][1] = v
			}
		}
		if !sample {
			for _, sql := range dictQueries {
				check(step, sql)
			}
		}
	}
	if sample && last >= 0 {
		check(step-1, dictQueries[last/9%len(dictQueries)])
	}
}
