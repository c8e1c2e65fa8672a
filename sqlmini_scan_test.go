// Scan-count regression tests for the sqlmini fast paths that the
// benchmarks depend on: integer-literal equality on a primary key must
// hit the hash index (Scanned == 1), and equality on a secondary-
// indexed column must examine only the matching rows, never the whole
// table. A planner regression here would silently turn
// BenchmarkSqlminiPointQuery into a full-scan benchmark. Likewise for
// the ordered index access the TPC-App reads run on: an ORDER BY ...
// LIMIT over an indexed column, a LIMIT with no ORDER BY and an interval
// of an indexed column must read what they return, not the table.
package qcpa

import (
	"fmt"
	"strings"
	"testing"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
)

func loadTPCApp(t *testing.T) *sqlmini.Engine {
	t.Helper()
	e := sqlmini.New()
	if err := tpcapp.Load(e, nil, map[string]int64{"customer": 1000, "orders": 3000, "item": 1000}, 1); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPointQueryHitsPrimaryKeyIndex(t *testing.T) {
	e := loadTPCApp(t)
	res, err := e.Exec(`SELECT c_balance FROM customer WHERE c_id = 37`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(res.Rows))
	}
	if res.Scanned != 1 {
		t.Fatalf("pk point query scanned %d rows, want 1 (index miss => full scan)", res.Scanned)
	}
}

func TestEqualityUsesSecondaryIndex(t *testing.T) {
	e := loadTPCApp(t)
	const itemRows = 1000
	res, err := e.Exec(`SELECT i_id, i_title FROM item WHERE i_subject = 'ARTS'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected some ARTS items")
	}
	// The secondary-index path charges exactly the matching rows; a
	// full scan would charge the whole table.
	if res.Scanned != int64(len(res.Rows)) {
		t.Fatalf("indexed equality scanned %d rows for %d matches", res.Scanned, len(res.Rows))
	}
	if res.Scanned >= itemRows {
		t.Fatalf("indexed equality scanned the whole table (%d rows)", res.Scanned)
	}
}

func TestUnindexedEqualityStillScans(t *testing.T) {
	// Sanity check of the counter itself: a predicate with no index
	// support must charge the full table, otherwise the two tests
	// above would pass vacuously.
	e := loadTPCApp(t)
	res, err := e.Exec(`SELECT o_id FROM orders WHERE o_status = 'PENDING'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 3000 {
		t.Fatalf("unindexed equality scanned %d rows, want full table (3000)", res.Scanned)
	}
}

// tpcAppRead returns the journal text of a TPC-App read template.
func tpcAppRead(t *testing.T, name string) string {
	t.Helper()
	mix, err := tpcapp.Mix(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range mix.Templates() {
		if tpl.Name == name {
			return tpl.Journal
		}
	}
	t.Fatalf("no template %q", name)
	return ""
}

func TestNewProductsWalksTheDateIndex(t *testing.T) {
	e := loadTPCApp(t)
	res, err := e.Exec(tpcAppRead(t, "newProducts"))
	if err != nil {
		t.Fatal(err)
	}
	// LIMIT index entries and one author probe for each, with room for a
	// second window; the sort it replaces read item and author whole.
	if len(res.Rows) != 50 || res.Scanned > 4*50 {
		t.Fatalf("newProducts returned %d rows and scanned %d, want 50 and at most %d", len(res.Rows), res.Scanned, 4*50)
	}
}

func TestBareLimitStopsTheScan(t *testing.T) {
	e := loadTPCApp(t)
	// searchTitle: no index serves LIKE, so the scan runs — up to the
	// fiftieth title that matches, and not a row further.
	all, err := e.Exec(`SELECT i_title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	want, matches := int64(0), 0
	for i, r := range all.Rows {
		if strings.HasPrefix(r[0].S, "Title 1") {
			if matches++; matches == 50 {
				want = int64(i + 1)
				break
			}
		}
	}
	res, err := e.Exec(tpcAppRead(t, "searchTitle"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 || want == 0 || res.Scanned != want {
		t.Fatalf("searchTitle returned %d rows and scanned %d, want 50 and %d (the position of the 50th match)", len(res.Rows), res.Scanned, want)
	}
	// searchSubject: the index finds a hundred matches; fifty are fetched.
	res, err = e.Exec(tpcAppRead(t, "searchSubject"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 || res.Scanned != 50 {
		t.Fatalf("searchSubject returned %d rows and scanned %d, want 50 and 50", len(res.Rows), res.Scanned)
	}
}

func TestRangeReadsItsRunOrTheTable(t *testing.T) {
	e := loadTPCApp(t)
	const itemRows, dates = 1000, 2000 // i_pub_date is uniform over [0, dates)
	for _, c := range []struct {
		share   float64
		indexed bool
	}{{0.01, true}, {0.95, false}} {
		res, err := e.Exec(fmt.Sprintf(`SELECT i_id FROM item WHERE i_pub_date >= 100 AND i_pub_date < %d`, 100+int(c.share*dates)))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(itemRows)
		if c.indexed {
			want = int64(len(res.Rows))
		}
		if len(res.Rows) == 0 || res.Scanned != want {
			t.Fatalf("a %g%% interval of i_pub_date matched %d rows and scanned %d, want %d", c.share*100, len(res.Rows), res.Scanned, want)
		}
	}
}
