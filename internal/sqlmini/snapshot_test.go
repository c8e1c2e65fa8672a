package sqlmini

import "testing"

// copyCut installs src's table into dst the way a cluster copy does:
// CutTable on the source, CreateTable + BulkInsert on the destination.
func copyCut(t *testing.T, dst, src *Engine, table string) {
	t.Helper()
	cut, err := src.CutTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CreateTable(table, cut.Columns()); err != nil {
		t.Fatal(err)
	}
	if err := dst.BulkInsert(table, cut.Rows(0, cut.NumRows())); err != nil {
		t.Fatal(err)
	}
}

func TestCutRoundTrip(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `UPDATE item SET stock = 42 WHERE id = 1`)
	if err := e.CreateIndex("item", "stock"); err != nil {
		t.Fatal(err)
	}

	copied := New()
	for _, tbl := range []string{"item", "orders"} {
		copyCut(t, copied, e, tbl)
		want, err := e.TableChecksum(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := copied.TableChecksum(tbl); err != nil || got != want {
			t.Fatalf("table %q checksum %x (err %v), want %x", tbl, got, err, want)
		}
	}
	if got := copied.Indexes("item"); len(got) != 1 || got[0] != "stock" {
		t.Fatalf("Indexes(item) on the copy = %v, want [stock]", got)
	}
	r := mustExec(t, copied, `SELECT stock FROM item WHERE id = 1`)
	if r.Rows[0][0].I != 42 {
		t.Fatalf("mutation lost: %v", r.Rows[0][0])
	}
	if r.Scanned != 1 {
		t.Fatal("pk index not rebuilt on the copy")
	}

	// Later writes to the source do not reach the copy, and the copy
	// accepts writes of its own.
	mustExec(t, e, `UPDATE item SET stock = 7 WHERE id = 1`)
	mustExec(t, e, `INSERT INTO item VALUES (60, 'grape', 2.0, 3)`)
	if r := mustExec(t, copied, `SELECT stock FROM item WHERE id = 1`); r.Rows[0][0].I != 42 {
		t.Fatalf("a source write reached the copy: stock = %v", r.Rows[0][0])
	}
	if n := copied.Table("item").NumRows(); n != 4 {
		t.Fatalf("copy has %d item rows after a source insert, want 4", n)
	}
	mustExec(t, copied, `INSERT INTO item VALUES (50, 'fig', 1.0, 5)`)
}

// TestSnapshotTablesSubset copies a subset of the tables: the copy holds
// only the tables cut into it, and cutting an unknown table fails.
func TestSnapshotTablesSubset(t *testing.T) {
	e := newTestDB(t)
	copied := New()
	copyCut(t, copied, e, "orders")
	if copied.Table("orders") == nil || copied.Table("item") != nil {
		t.Fatal("copy holds the wrong tables")
	}
	if _, err := e.CutTable("missing"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestRestoreErrors checks that installing a cut over an existing table
// fails and leaves that table as it was.
func TestRestoreErrors(t *testing.T) {
	e := newTestDB(t)
	cut, err := e.CutTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	before := e.Table("orders").NumRows()
	if err := e.CreateTable("orders", cut.Columns()); err == nil {
		t.Fatal("install over an existing table accepted")
	}
	if n := e.Table("orders").NumRows(); n != before {
		t.Fatalf("failed install changed orders: %d rows, want %d", n, before)
	}
}
