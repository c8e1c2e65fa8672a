package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/workload"
)

// placed builds an allocation of cl (single-table classes) from one
// sorted table list per backend: a read class is split evenly over the
// holders of its table, an update class runs on every one of them.
func placed(t *testing.T, cl *core.Classification, tables ...[]string) *core.Allocation {
	t.Helper()
	alloc := core.NewAllocation(cl, core.UniformBackends(len(tables)))
	holders := make(map[core.FragmentID][]int)
	for b, ts := range tables {
		for _, tb := range ts {
			alloc.AddFragments(b, core.FragmentID(tb))
			holders[core.FragmentID(tb)] = append(holders[core.FragmentID(tb)], b)
		}
	}
	for _, c := range cl.Classes() {
		hs := holders[c.Fragments()[0]]
		w := c.Weight
		if c.Kind == core.Read {
			w /= float64(len(hs))
		}
		for _, b := range hs {
			alloc.SetAssign(b, c.Name, w)
		}
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	return alloc
}

// valueOn reads <table>_v of row id straight from backend b's engine.
func valueOn(t *testing.T, c *Cluster, b int, table string, id int) int64 {
	t.Helper()
	r, err := c.Backend(b).Exec(fmt.Sprintf("SELECT %s_v FROM %s WHERE %s_id = %d", table, table, table, id))
	if err != nil {
		t.Fatalf("backend %d: %v", b, err)
	}
	return r.Rows[0][0].I
}

// mustServe executes one read per listed table through its class.
func mustServe(t *testing.T, c *Cluster, tables ...string) {
	t.Helper()
	for _, tb := range tables {
		if _, err := c.Execute(workload.Request{
			SQL: fmt.Sprintf("SELECT %s_v FROM %s WHERE %s_id = 1", tb, tb, tb), Class: "Q" + strings.ToUpper(tb),
		}); err != nil {
			t.Fatalf("table %s unroutable after reallocation: %v", tb, err)
		}
	}
}

// TestMigrateLiveResizeLivePlacement runs the placement and data
// contract of a reallocation through both entry points on an idle
// cluster (liveFixture: B1{a,b} / B2{b}). After every step the pool is
// checked against matching.PlanMigration of the two layouts — the
// Hungarian mapping itself at an unchanged count with the pool left in
// place, the survivors compacted into mapping order and the rest shut
// down after a resize — every backend holds exactly its layout's
// tables, routed and physical, and every copy carries the updates made
// before and between the steps: what arrives is live data, not a reload.
// The last step's report is compared whole.
func TestMigrateLiveResizeLivePlacement(t *testing.T) {
	a, b, ab := []string{"a"}, []string{"b"}, []string{"a", "b"}
	for _, tc := range []struct {
		name      string
		steps     [][][]string // layouts, one table list per backend
		viaResize bool         // ResizeLive even at an unchanged count
		want      MigrationReport
	}{
		// Swapped labels: the matching maps logical B2 onto the physical
		// backend that already has both tables, so nothing ships.
		{"matching keeps placed tables", [][][]string{{b, ab}}, false, MigrationReport{Mapping: []int{1, 0}}},
		{"same count delegates", [][][]string{{b, ab}}, true, MigrationReport{Mapping: []int{1, 0}}},
		{"copies from the live replica", [][][]string{{ab, ab}}, false,
			MigrationReport{Mapping: []int{0, 1}, CopiedTables: 1, CopiedRows: 20, MovedRows: 20}},
		{"drops unneeded tables", [][][]string{{a, b}}, false, MigrationReport{Mapping: []int{0, 1}, DroppedTables: 1}},
		{"scale-out 2 to 4", [][][]string{{ab, b, a, b}}, false,
			MigrationReport{Mapping: []int{0, 1, 2, 3}, CopiedTables: 2, CopiedRows: 40, MovedRows: 40}},
		// The third backend becomes the only holder of a, and the
		// matching answers the shrink by retiring exactly that backend.
		{"scale-in copies off the decommission target", [][][]string{{b, b, a}, {ab, b}}, false,
			MigrationReport{Mapping: []int{0, 1}, CopiedTables: 1, CopiedRows: 20, MovedRows: 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cl, load := liveFixture(t)
			if _, err := c.Backend(0).Exec(`UPDATE a SET a_v = 777 WHERE a_id = 3`); err != nil {
				t.Fatal(err)
			}
			prev := partialAlloc(t, cl)
			var rep *MigrationReport
			for i, layout := range tc.steps {
				next := placed(t, cl, layout...)
				plan, _, err := matching.PlanMigration(prev, next)
				if err != nil {
					t.Fatal(err)
				}
				before := c.all()
				if len(layout) != len(before) || tc.viaResize {
					rep, err = c.ResizeLive(next, load, LiveOptions{})
				} else {
					rep, err = c.MigrateLive(next, load, LiveOptions{})
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				pool := c.all()
				if len(layout) == len(before) {
					if !slices.Equal(rep.Mapping, plan.Mapping) || !slices.Equal(pool, before) {
						t.Fatalf("step %d: mapping %v (plan %v), pool reordered: %v", i, rep.Mapping, plan.Mapping, !slices.Equal(pool, before))
					}
				} else {
					for v, u := range plan.Mapping {
						if rep.Mapping[v] != v || (u < len(before) && pool[v] != before[u]) {
							t.Fatalf("step %d: logical backend %d is not the physical backend the plan matched (%v)", i, v, plan.Mapping)
						}
					}
					for _, old := range before {
						if !slices.Contains(pool, old) {
							old.wg.Wait() // a retired backend's applier has shut down
						}
					}
				}
				if _, err := c.Execute(workload.Request{SQL: `UPDATE b SET b_v = b_v + 1 WHERE b_id = 1`, Class: "UB", Write: true}); err != nil {
					t.Fatalf("step %d: update: %v", i, err)
				}
				// Row 3 of a was updated before the first step, row 1 of b
				// after each one so far.
				rows := []struct {
					table string
					id    int
					want  int64
				}{{"a", 3, 777}, {"b", 1, int64(i) + 2}}
				for v, tables := range layout {
					u := rep.Mapping[v]
					if got := c.Tables(u); !slices.Equal(got, tables) {
						t.Fatalf("step %d: backend %d routes %v, want %v", i, u, got, tables)
					}
					for _, r := range rows {
						held := slices.Contains(tables, r.table)
						if stored := c.Backend(u).Table(r.table) != nil; stored != held {
							t.Fatalf("step %d: backend %d stores %s: %v, want %v", i, u, r.table, stored, held)
						}
						if held && valueOn(t, c, u, r.table, r.id) != r.want {
							t.Fatalf("step %d: backend %d has a stale copy of %s", i, u, r.table)
						}
					}
				}
				mustServe(t, c, "a", "b")
				prev = next
			}
			rep.CutoverPause = 0
			if !reflect.DeepEqual(*rep, tc.want) {
				t.Fatalf("report = %+v, want %+v", *rep, tc.want)
			}
		})
	}
}

// TestMigrateLiveLoaderAndErrors: a table nobody holds comes from the
// loader, and only from it; an allocation of another size, and any
// reallocation before Install, are refused without touching the pool.
func TestMigrateLiveLoaderAndErrors(t *testing.T) {
	ab := []string{"a", "b"}
	c, cl, load := liveFixture(t)
	if _, err := c.MigrateLive(placed(t, cl, ab, ab, ab), load, LiveOptions{}); err == nil {
		t.Error("backend count mismatch accepted")
	}
	fresh, err := New(Config{Backends: core.UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.MigrateLive(placed(t, cl, ab, ab), load, LiveOptions{}); err == nil {
		t.Error("migrate before install accepted")
	}
	if _, err := fresh.ResizeLive(placed(t, cl, ab, ab, ab), nil, LiveOptions{}); err == nil || fresh.NumBackends() != 2 {
		t.Errorf("resize before install: err = %v, backends = %d", err, fresh.NumBackends())
	}

	cl3 := core.NewClassification()
	for _, tb := range []core.FragmentID{"a", "b", "c"} {
		cl3.AddFragment(core.Fragment{ID: tb, Size: 1})
		cl3.MustAddClass(core.NewClass("Q"+strings.ToUpper(string(tb)), core.Read, 1.0/3, tb))
	}
	withC := placed(t, cl3, ab, []string{"b", "c"})
	if _, err := c.MigrateLive(withC, nil, LiveOptions{}); err == nil || !strings.Contains(err.Error(), "no loader") {
		t.Fatalf("nil loader for an unheld table: err = %v", err)
	}
	rep, err := c.MigrateLive(withC, load, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoadedTables != 1 || rep.LoadedRows != 20 || rep.MovedRows != 20 || rep.CopiedTables != 0 {
		t.Fatalf("report = %+v, want c loaded (20 rows), nothing copied", rep)
	}
	mustServe(t, c, "a", "b", "c")
}
