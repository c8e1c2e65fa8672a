package cluster

import (
	"context"
	"sync"
	"testing"

	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

func TestPreparedExecMatchesDirect(t *testing.T) {
	c, _, _ := liveFixture(t)
	p, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 3`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLiterals != 1 {
		t.Fatalf("NumLiterals = %d, want 1", p.NumLiterals)
	}
	for id := int64(0); id < 5; id++ {
		res, err := c.ExecPrepared(context.Background(), p, []sqlmini.Value{sqlmini.Int(id)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Data) != 1 || res.Data[0][0].I != id {
			t.Fatalf("id %d: prepared exec returned %+v", id, res.Data)
		}
	}
	// No args runs the template verbatim (a_id = 3).
	res, err := c.ExecPrepared(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 1 || res.Data[0][0].I != 3 {
		t.Fatalf("verbatim template returned %+v", res.Data)
	}
}

// TestPreparedConcurrentExec: executions of one Prepared share its shape
// and nothing else, so goroutines binding different args at once each
// get the row they asked for (run under -race).
func TestPreparedConcurrentExec(t *testing.T) {
	c, _, _ := liveFixture(t)
	p, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 3`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := make([]sqlmini.Value, 1)
			for i := 0; i < rounds; i++ {
				id := int64((w + i*workers) % 20)
				args[0] = sqlmini.Int(id)
				res, err := c.ExecPrepared(context.Background(), p, args)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Data) != 1 || res.Data[0][0].I != id {
					t.Errorf("worker %d asked for a_id %d, got %+v", w, id, res.Data)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPreparedArgCountMismatch(t *testing.T) {
	c, _, _ := liveFixture(t)
	p, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 3`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExecPrepared(context.Background(), p, []sqlmini.Value{
		sqlmini.Int(1), sqlmini.Int(2),
	})
	if err == nil {
		t.Fatal("binding 2 args to 1 literal must fail, not bind a prefix")
	}
}

func TestPreparedWriteROWA(t *testing.T) {
	c, _, _ := liveFixture(t)
	p, err := c.Prepare(`UPDATE b SET b_v = 0 WHERE b_id = 0`, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecPrepared(context.Background(), p, []sqlmini.Value{
		sqlmini.Int(999), sqlmini.Int(4),
	}); err != nil {
		t.Fatal(err)
	}
	// Both backends hold b; the prepared write must reach every replica.
	for b := 0; b < 2; b++ {
		res, err := c.Backend(b).Exec(`SELECT b_v FROM b WHERE b_id = 4`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != 999 {
			t.Fatalf("backend %d: prepared write missing, got %+v", b, res.Rows)
		}
	}
}

// TestPreparedRerouteOnMigration checks a cached route survives within
// one generation and re-resolves — exactly once — after a migration
// moves the routing generation.
func TestPreparedRerouteOnMigration(t *testing.T) {
	c, cl, loader := liveFixture(t)
	p, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.RouteGeneration()
	for i := 0; i < 3; i++ {
		if _, err := c.ExecPrepared(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Metrics().Planner.PreparedReroutes; n != 0 {
		t.Fatalf("stable generation re-resolved %d times", n)
	}

	// Swap layout: B1{b} / B2{a,b}.
	newAlloc := placed(t, cl, []string{"b"}, []string{"a", "b"})
	if _, err := c.MigrateLive(newAlloc, loader, LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.RouteGeneration() == gen {
		t.Fatal("migration did not move the routing generation")
	}
	for i := 0; i < 3; i++ {
		res, err := c.ExecPrepared(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("prepared exec after migration: %v", err)
		}
		if len(res.Data) != 1 {
			t.Fatalf("post-migration exec returned %+v", res.Data)
		}
	}
	if n := c.Metrics().Planner.PreparedReroutes; n != 1 {
		t.Fatalf("re-resolved %d times after one migration, want 1", n)
	}
}

// TestPreparedRerouteOnDDL checks DDL writes bump the routing
// generation so prepared routes cannot keep pointing at a stale schema.
func TestPreparedRerouteOnDDL(t *testing.T) {
	c, _, _ := liveFixture(t)
	gen := c.RouteGeneration()
	// DDL routes by class (reference analysis cannot see a table that
	// does not exist yet); QB's fragment holders receive it.
	if _, err := c.Execute(workload.Request{
		SQL: `CREATE TABLE t (t_id INT PRIMARY KEY, t_v INT)`, Class: "QB", Write: true,
	}); err != nil {
		t.Fatal(err)
	}
	if c.RouteGeneration() == gen {
		t.Fatal("CREATE TABLE did not move the routing generation")
	}
}

func TestPrepareErrors(t *testing.T) {
	c, _, _ := liveFixture(t)
	if _, err := c.Prepare(`SELEC nonsense`, "", false); err == nil {
		t.Fatal("unparsable SQL must fail at prepare")
	}
	c.Close()
	if _, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false); err == nil {
		t.Fatal("prepare on a closed cluster must fail")
	}
}
