package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

func TestTableOfFragment(t *testing.T) {
	for f, want := range map[core.FragmentID]string{
		"orders":          "orders",
		"orders.o_status": "orders",
		"orders#3":        "orders",
	} {
		if got := TableOfFragment(f); got != want {
			t.Errorf("TableOfFragment(%s) = %s, want %s", f, got, want)
		}
	}
}

// miniSetup creates a 2-backend cluster over a toy schema with a
// partial replication: backend 0 holds tables a+b, backend 1 holds b.
func miniSetup(t *testing.T) (*Cluster, *core.Allocation) {
	t.Helper()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.AddFragment(core.Fragment{ID: "b", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 0.4, "a"))
	cl.MustAddClass(core.NewClass("QB", core.Read, 0.3, "b"))
	cl.MustAddClass(core.NewClass("UB", core.Update, 0.3, "b"))
	alloc := core.NewAllocation(cl, core.UniformBackends(2))
	alloc.AddFragments(0, "a", "b")
	alloc.SetAssign(0, "QA", 0.4)
	alloc.SetAssign(0, "UB", 0.3)
	alloc.AddFragments(1, "b")
	alloc.SetAssign(1, "QB", 0.3)
	alloc.SetAssign(1, "UB", 0.3)
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Backends: core.UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	load := func(e *sqlmini.Engine, tables []string) error {
		for _, tb := range tables {
			if err := e.CreateTable(tb, []sqlmini.Column{
				{Name: tb + "_id", Type: sqlmini.KindInt, PrimaryKey: true},
				{Name: tb + "_v", Type: sqlmini.KindInt},
			}); err != nil {
				return err
			}
			rows := make([]sqlmini.Row, 10)
			for i := range rows {
				rows[i] = sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i * 10))}
			}
			if err := e.BulkInsert(tb, rows); err != nil {
				return err
			}
			if err := e.CreateIndex(tb, tb+"_v"); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	return c, alloc
}

func TestInstallPlacesTables(t *testing.T) {
	c, _ := miniSetup(t)
	if got := c.Tables(0); len(got) != 2 {
		t.Fatalf("backend 0 tables = %v", got)
	}
	if got := c.Tables(1); len(got) != 1 || got[0] != "b" {
		t.Fatalf("backend 1 tables = %v", got)
	}
}

func TestReadRouting(t *testing.T) {
	c, _ := miniSetup(t)
	// QA only executes on backend 0.
	res, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "B1" {
		t.Fatalf("QA ran on %s, want B1", res.Backend)
	}
	if res.Rows != 1 {
		t.Fatalf("rows = %d", res.Rows)
	}
	// QB can run on either; run many and check both get work.
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		res, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 2`, Class: "QB"})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Backend] = true
	}
	// With least-pending on an idle cluster the first eligible wins
	// every time; at minimum it must be a backend holding b.
	for b := range seen {
		if b != "B1" && b != "B2" {
			t.Fatalf("QB ran on %s", b)
		}
	}
}

func TestWriteROWA(t *testing.T) {
	c, _ := miniSetup(t)
	_, err := c.Execute(workload.Request{SQL: `UPDATE b SET b_v = 999 WHERE b_id = 3`, Class: "UB", Write: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both backends hold b; both must see the update.
	for i := 0; i < 2; i++ {
		r, err := c.Backend(i).Exec(`SELECT b_v FROM b WHERE b_id = 3`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].I != 999 {
			t.Fatalf("backend %d missed the update: %v", i, r.Rows[0][0])
		}
	}
}

func TestWriteOrderingUnderConcurrency(t *testing.T) {
	c, _ := miniSetup(t)
	// Concurrent increments on both replicas must agree at the end:
	// same set AND same order (increments commute, so also check a
	// non-commutative pattern: SET b_v = i).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sql := fmt.Sprintf(`UPDATE b SET b_v = %d WHERE b_id = 0`, w*100+i)
				if _, err := c.Execute(workload.Request{SQL: sql, Class: "UB", Write: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r0, err := c.Backend(0).Exec(`SELECT b_v FROM b WHERE b_id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Backend(1).Exec(`SELECT b_v FROM b WHERE b_id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Rows[0][0].I != r1.Rows[0][0].I {
		t.Fatalf("replicas diverged: %v vs %v (update order violated)", r0.Rows[0][0], r1.Rows[0][0])
	}
}

func TestRoutingWithoutClass(t *testing.T) {
	c, _ := miniSetup(t)
	// No class: the controller analyzes the statement and routes by its
	// table references.
	res, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 5`})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "B1" {
		t.Fatalf("ran on %s, want B1 (only holder of a)", res.Backend)
	}
}

func TestExecuteErrors(t *testing.T) {
	c, _ := miniSetup(t)
	if _, err := c.Execute(workload.Request{SQL: `SELECT`}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := c.Execute(workload.Request{SQL: `SELECT x FROM missing`}); err == nil {
		t.Error("unroutable query accepted")
	}
	if _, err := c.Execute(workload.Request{SQL: `DROP TABLE a`, Write: true}); err == nil {
		t.Error("DDL without a class accepted")
	}
	// A class whose tables no backend holds completely.
	if _, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b`, Class: "QA", Write: false}); err != nil {
		t.Errorf("QA-classified b query should still run (class tables a on B1): %v", err)
	}
}

func TestHistoryRecordsJournal(t *testing.T) {
	c, _ := miniSetup(t)
	for i := 0; i < 5; i++ {
		if _, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}); err != nil {
			t.Fatal(err)
		}
	}
	h := c.History()
	if len(h) != 1 || h[0].Count != 5 {
		t.Fatalf("history = %+v", h)
	}
	if h[0].Cost <= 0 {
		t.Fatal("history cost not positive")
	}
	c.ResetHistory()
	if len(c.History()) != 0 {
		t.Fatal("ResetHistory did not clear")
	}
}

func TestInstallErrors(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.MustAddClass(core.NewClass("q", core.Read, 1, "a"))
	a3, _ := core.Greedy(cl, core.UniformBackends(3))
	if err := c.Install(a3, nil); err == nil {
		t.Error("backend count mismatch accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestEndToEndTPCApp runs the full pipeline on real engines: load,
// classify from the mix, allocate with the greedy heuristic, install,
// run a mixed workload, and reallocate from the recorded history.
func TestEndToEndTPCApp(t *testing.T) {
	loadRows := map[string]int64{
		"author": 20, "item": 60, "customer": 80, "address": 160, "orders": 120, "order_line": 300,
	}
	mix, err := tpcapp.Mix(1) // small id space so point queries hit
	if err != nil {
		t.Fatal(err)
	}
	journal := mix.Journal(10000)
	res, err := classify.Classify(journal, tpcapp.Schema(), classify.Options{
		Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	mix.Bind(res)
	n := 3
	alloc, err := core.Greedy(res.Classification, core.UniformBackends(n))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Backends: core.UniformBackends(n)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loader := func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, 11)
	}
	if err := c.Install(alloc, loader); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	stats, err := c.Run(func() workload.Request { return mix.Next(rng) }, 400, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors > 0 {
		t.Fatalf("%d errors during run", stats.Errors)
	}
	if stats.Completed != 400 {
		t.Fatalf("completed = %d", stats.Completed)
	}
	if stats.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}

	// Reallocate from the recorded history (the prototype's allocation
	// mode): the journal must classify and allocate cleanly.
	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("no history recorded")
	}
	res2, err := classify.Classify(hist, tpcapp.Schema(), classify.Options{
		Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc2, err := core.Greedy(res2.Classification, core.UniformBackends(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(alloc2, loader); err != nil {
		t.Fatal(err)
	}
	// The reinstalled cluster still executes reads.
	if _, err := c.Execute(workload.Request{SQL: `SELECT i_id, i_title, i_srp FROM item WHERE i_subject = 'HISTORY' LIMIT 50`}); err != nil {
		t.Fatal(err)
	}
}

// TestROWAConsistencyAcrossReplicas: after a run with writes, every
// pair of backends sharing a table must agree on its full contents.
func TestROWAConsistencyAcrossReplicas(t *testing.T) {
	c, alloc := miniSetup(t)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				if rng.Float64() < 0.5 {
					sql := fmt.Sprintf(`UPDATE b SET b_v = b_v + %d WHERE b_id = %d`, rng.Intn(5), rng.Intn(10))
					if _, err := c.Execute(workload.Request{SQL: sql, Class: "UB", Write: true}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Execute(workload.Request{SQL: `SELECT SUM(b_v) FROM b`, Class: "QB"}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	_ = alloc
	r0, err := c.Backend(0).Exec(`SELECT SUM(b_v) FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Backend(1).Exec(`SELECT SUM(b_v) FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Rows[0][0].I != r1.Rows[0][0].I {
		t.Fatalf("replica contents diverged: %v vs %v", r0.Rows[0][0], r1.Rows[0][0])
	}
}
