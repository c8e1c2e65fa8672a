package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

// liveFixture: 2 backends with initial layout B1{a,b} / B2{b} and an
// update class on each table, so live migrations run against real ROWA
// write traffic. The allocation is 1-safe for b (two replicas) and
// 0-safe for a (one replica) — exactly the shape a reallocation wants
// to fix.
func liveFixture(t *testing.T) (*Cluster, *core.Classification, Loader) {
	t.Helper()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.AddFragment(core.Fragment{ID: "b", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 0.3, "a"))
	cl.MustAddClass(core.NewClass("QB", core.Read, 0.3, "b"))
	cl.MustAddClass(core.NewClass("UA", core.Update, 0.2, "a"))
	cl.MustAddClass(core.NewClass("UB", core.Update, 0.2, "b"))
	alloc := partialAlloc(t, cl)
	c, err := New(Config{Backends: core.UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loader := func(e *sqlmini.Engine, tables []string) error {
		for _, tb := range tables {
			if e.Table(tb) != nil {
				continue
			}
			if err := e.CreateTable(tb, []sqlmini.Column{
				{Name: tb + "_id", Type: sqlmini.KindInt, PrimaryKey: true},
				{Name: tb + "_v", Type: sqlmini.KindInt},
			}); err != nil {
				return err
			}
			rows := make([]sqlmini.Row, 20)
			for i := range rows {
				rows[i] = sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i))}
			}
			if err := e.BulkInsert(tb, rows); err != nil {
				return err
			}
			// Declared the way a DBA would, after the load: the live copy
			// must carry it (TestMigrateLiveCarriesIndexes).
			if err := e.CreateIndex(tb, tb+"_v"); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, loader); err != nil {
		t.Fatal(err)
	}
	return c, cl, loader
}

// requireIndexed holds every listed backend's copy of table to the one
// index the test loaders declare on <table>_v: the same Indexes as on
// every other holder, and a plan that answers an equality on the column
// through it. A copy that lost the definition scans, plans differently
// from its peers, and may order rows — LIMIT ties, float sums —
// differently from them.
func requireIndexed(t *testing.T, c *Cluster, table string, backends ...int) {
	t.Helper()
	col := table + "_v"
	for _, i := range backends {
		e := c.Backend(i)
		if got := e.Indexes(table); !reflect.DeepEqual(got, []string{col}) {
			t.Errorf("backend %d: Indexes(%s) = %v, want [%s]", i, table, got, col)
		}
		plan, err := e.Explain(fmt.Sprintf("SELECT %s_id FROM %s WHERE %s = 3", table, table, col))
		if err != nil {
			t.Fatal(err)
		}
		if want := table + ": index(" + col + ")="; !strings.HasPrefix(plan, want) {
			t.Errorf("backend %d plans the indexed equality as\n%swant %q", i, plan, want)
		}
	}
}

// TestMigrateLiveCarriesIndexes: the replica a live migration copies
// has the index set of its source. At the parent the copy carried
// columns and rows only, and the destination scanned where the
// loader-filled replica probed.
func TestMigrateLiveCarriesIndexes(t *testing.T) {
	c, cl, loader := liveFixture(t)
	requireIndexed(t, c, "a", 0)
	requireIndexed(t, c, "b", 0, 1)
	if _, err := c.MigrateLive(fullAlloc(t, cl), loader, LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics().Migration; m.CopiedRows != 20 || m.LoadedRows != 0 {
		t.Fatalf("migration metrics = %+v, want table a copied from its live holder", m)
	}
	requireIndexed(t, c, "a", 0, 1)
	if s0, s1 := mustChecksum(t, c.Backend(0), "a"), mustChecksum(t, c.Backend(1), "a"); s0 != s1 {
		t.Fatalf("replicas of a disagree: %x vs %x", s0, s1)
	}
}

// partialAlloc is liveFixture's installed allocation: both tables on
// backend 0, only b on backend 1.
func partialAlloc(t *testing.T, cl *core.Classification) *core.Allocation {
	return placed(t, cl, []string{"a", "b"}, []string{"b"})
}

// fullAlloc places both tables (and all four classes) on both backends.
func fullAlloc(t *testing.T, cl *core.Classification) *core.Allocation {
	return placed(t, cl, []string{"a", "b"}, []string{"a", "b"})
}

// mustChecksum reads one backend table's checksum directly.
func mustChecksum(t *testing.T, e *sqlmini.Engine, table string) uint64 {
	t.Helper()
	sum, err := e.TableChecksum(table)
	if err != nil {
		t.Fatalf("checksum %s: %v", table, err)
	}
	return sum
}

// TestMigrateLiveStatusAndMetrics: one finished run as the progress
// snapshot and the migration metrics report it (the report itself is
// TestMigrateLiveResizeLivePlacement's).
func TestMigrateLiveStatusAndMetrics(t *testing.T) {
	c, cl, loader := liveFixture(t)
	if _, err := c.MigrateLive(fullAlloc(t, cl), loader, LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	st := c.Migration()
	if st.Active || st.Err != "" {
		t.Fatalf("status after success = %+v", st)
	}
	if st.TablesDone != 1 || st.TablesTotal != 1 {
		t.Fatalf("status tables = %d/%d, want 1/1", st.TablesDone, st.TablesTotal)
	}
	m := c.Metrics().Migration
	if m.Runs != 1 || m.Aborts != 0 || m.Tables != 1 || m.CopiedRows != 20 {
		t.Fatalf("migration metrics = %+v", m)
	}
	if m.Cutovers != 1 {
		t.Fatalf("cutovers = %d, want 1", m.Cutovers)
	}
}

// TestMigrateLiveCapturesConcurrentUpdates drives writes into the
// in-flight table at deterministic points of the copy (between restore
// batches, via the onBatch hook). Every injected update lands after the
// clone cut, so each must be captured in the delta log, replayed in
// order, and visible on both replicas afterwards.
func TestMigrateLiveCapturesConcurrentUpdates(t *testing.T) {
	c, cl, loader := liveFixture(t)
	var injected int32
	opts := LiveOptions{
		BatchRows: 5, // 20 rows -> 4 batches -> 4 injected updates
		onBatch: func(dest, table string) {
			if table != "a" {
				return
			}
			atomic.AddInt32(&injected, 1)
			if _, err := c.Execute(workload.Request{
				SQL: `UPDATE a SET a_v = a_v + 1 WHERE a_id = 3`, Class: "UA", Write: true,
			}); err != nil {
				t.Errorf("injected update: %v", err)
			}
		},
	}
	rep, err := c.MigrateLive(fullAlloc(t, cl), loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := int(atomic.LoadInt32(&injected))
	if n != 4 {
		t.Fatalf("injected = %d, want 4", n)
	}
	if rep.DeltaReplayed != n {
		t.Fatalf("delta replayed = %d, want %d (every post-clone update captured)", rep.DeltaReplayed, n)
	}
	// Both replicas converged: same checksum, and the row carries every
	// injected increment.
	if s0, s1 := mustChecksum(t, c.Backend(0), "a"), mustChecksum(t, c.Backend(1), "a"); s0 != s1 {
		t.Fatalf("replicas of a diverged: %x vs %x", s0, s1)
	}
	for i := 0; i < 2; i++ {
		r, err := c.Backend(i).Exec(`SELECT a_v FROM a WHERE a_id = 3`)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(3 + n); r.Rows[0][0].I != want {
			t.Fatalf("backend %d a_v = %d, want %d", i, r.Rows[0][0].I, want)
		}
	}
	if m := c.Metrics().Migration; m.DeltaReplayed != int64(n) {
		t.Fatalf("metrics delta replayed = %d, want %d", m.DeltaReplayed, n)
	}
}

// TestMigrateLiveUnderLoad is the acceptance scenario: traffic keeps
// flowing through the 1-safe allocation while MigrateLive runs. Every
// read and write must succeed (zero failures), and afterwards all
// replica pairs must be bit-identical.
func TestMigrateLiveUnderLoad(t *testing.T) {
	c, cl, loader := liveFixture(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	traffic := func(id int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(id)))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var req workload.Request
			switch i % 4 {
			case 0:
				req = workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 4`, Class: "QA"}
			case 1:
				req = workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 4`, Class: "QB"}
			case 2:
				req = workload.Request{
					SQL:   fmt.Sprintf(`UPDATE a SET a_v = a_v + 1 WHERE a_id = %d`, rng.Intn(20)),
					Class: "UA", Write: true,
				}
			default:
				req = workload.Request{
					SQL:   fmt.Sprintf(`UPDATE b SET b_v = b_v + 1 WHERE b_id = %d`, rng.Intn(20)),
					Class: "UB", Write: true,
				}
			}
			if _, err := c.Execute(req); err != nil {
				failures.Add(1)
				t.Errorf("request %q failed mid-migration: %v", req.SQL, err)
				return
			}
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go traffic(w)
	}
	// Throttle the copy so migration and traffic genuinely overlap.
	rep, err := c.MigrateLive(fullAlloc(t, cl), loader, LiveOptions{
		BatchRows:  2,
		BatchPause: 200 * time.Microsecond,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during live migration", n)
	}
	if rep.CopiedTables != 1 {
		t.Fatalf("copied tables = %d, want 1", rep.CopiedTables)
	}
	// All replica pairs bit-identical (writes are synchronous, so every
	// update has been applied by the time Execute returned).
	for _, table := range []string{"a", "b"} {
		if s0, s1 := mustChecksum(t, c.Backend(0), table), mustChecksum(t, c.Backend(1), table); s0 != s1 {
			t.Fatalf("replicas of %s diverged after live migration: %x vs %x", table, s0, s1)
		}
	}
}

// TestMigrateLiveClasslessReadsAcrossDrops: a request without a class —
// ad hoc or through a prepared handle — is routed by its statement's
// table references under the union schema of all backends, read while
// live migrations add and drop replicas. Reading a backend's schema as
// "list the names, then fetch each table" crashed when a cutover
// dropped the table in between; it now comes from one published view.
func TestMigrateLiveClasslessReadsAcrossDrops(t *testing.T) {
	c, cl, loader := liveFixture(t)
	prep, err := c.Prepare(`SELECT a_v FROM a WHERE a_id = 4`, "", false)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if (i+w)%2 == 0 {
					_, err = c.ExecPrepared(context.Background(), prep, nil)
				} else {
					_, err = c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 4`})
				}
				if err != nil {
					t.Errorf("classless read failed mid-migration: %v", err)
					return
				}
			}
		}(w)
	}
	opts := LiveOptions{BatchRows: 4, BatchPause: 100 * time.Microsecond}
	for cycle := 0; cycle < 6 && !t.Failed(); cycle++ {
		// Out: copy a to backend 1. Back: drop it there again.
		if _, err := c.MigrateLive(fullAlloc(t, cl), loader, opts); err != nil {
			t.Errorf("cycle %d, replicate: %v", cycle, err)
		}
		if _, err := c.MigrateLive(partialAlloc(t, cl), loader, opts); err != nil {
			t.Errorf("cycle %d, drop: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()
}

// tpcAppCluster builds an n-backend cluster with the TPC-App schema
// loaded and a greedy allocation installed, returning the loader and
// the classification for planning a reallocation.
func tpcAppCluster(t *testing.T, n int, loadRows map[string]int64) (*Cluster, *core.Classification, Loader) {
	t.Helper()
	mix, err := tpcapp.Mix(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(10000), tpcapp.Schema(), classify.Options{
		Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.Greedy(res.Classification, core.UniformBackends(n))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Backends: core.UniformBackends(n)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loader := func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, 11)
	}
	if err := c.Install(alloc, loader); err != nil {
		t.Fatal(err)
	}
	return c, res.Classification, loader
}

// TestMigrateLiveMovesExactlyThePlan checks a TPC-App reallocation
// against the plan itself: the tables and rows the report says moved are
// matching.PlanMigration's moves and the fixture's row counts — an oracle that shares no code with the cluster
// — and the cutover barrier was measured. (How short the pause is, the
// benchmark reports as cluster.cutover_us_max.)
func TestMigrateLiveMovesExactlyThePlan(t *testing.T) {
	loadRows := map[string]int64{
		"country": 92, "author": 100, "item": 300, "customer": 400, "address": 800, "orders": 600, "order_line": 1500,
	}
	c, cl, loader := tpcAppCluster(t, 3, loadRows)
	full := core.FullReplication(cl, core.UniformBackends(3))
	plan, _, err := matching.PlanMigration(c.alloc, full)
	if err != nil {
		t.Fatal(err)
	}
	var wantRows int64
	for _, mv := range plan.Moves { // table-based classification: a fragment is a table
		wantRows += loadRows[string(mv.Fragment)]
	}
	if len(plan.Moves) == 0 {
		t.Fatal("the plan moves nothing; fixture is not exercising the copy path")
	}
	rep, err := c.MigrateLive(full, loader, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CopiedTables != len(plan.Moves) || rep.LoadedTables != 0 || rep.MovedRows != wantRows {
		t.Fatalf("moved %d copied + %d loaded tables / %d rows, the plan says %d copied / %d rows",
			rep.CopiedTables, rep.LoadedTables, rep.MovedRows, len(plan.Moves), wantRows)
	}
	if rep.CutoverPause <= 0 {
		t.Fatal("no cutover pause measured")
	}
}

// TestResizeLiveScaleOutAndIn grows 2 -> 3 under write traffic, then
// shrinks back 3 -> 2, checking data placement and convergence at both
// steps.
func TestResizeLiveScaleOutAndIn(t *testing.T) {
	c, cl, loader := liveFixture(t)

	// Target: third backend holding b (a stays put on B1).
	alloc3 := placed(t, cl, []string{"a", "b"}, []string{"b"}, []string{"b"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Execute(workload.Request{
				SQL: fmt.Sprintf(`UPDATE b SET b_v = b_v + 1 WHERE b_id = %d`, i%20), Class: "UB", Write: true,
			}); err != nil {
				t.Errorf("write during resize: %v", err)
				return
			}
		}
	}()
	rep, err := c.ResizeLive(alloc3, loader, LiveOptions{BatchRows: 4, BatchPause: 100 * time.Microsecond})
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	if c.NumBackends() != 3 {
		close(stop)
		wg.Wait()
		t.Fatalf("backends = %d, want 3", c.NumBackends())
	}
	if rep.CopiedTables != 1 {
		t.Errorf("scale-out copied %d tables, want 1 (b onto the new backend)", rep.CopiedTables)
	}

	// Shrink back while the writer is still running.
	if _, err := c.ResizeLive(partialAlloc(t, cl), loader, LiveOptions{}); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if c.NumBackends() != 2 {
		t.Fatalf("backends = %d, want 2 after scale-in", c.NumBackends())
	}
	// Surviving replicas of b agree bit-for-bit.
	if s0, s1 := mustChecksum(t, c.Backend(0), "b"), mustChecksum(t, c.Backend(1), "b"); s0 != s1 {
		t.Fatalf("replicas of b diverged after resize: %x vs %x", s0, s1)
	}
	// Reads still route for every class.
	mustServe(t, c, "a", "b")
}

// TestMigrateLiveAbortsWhenDestinationFails kills the destination
// backend mid-copy (the chaos scenario): the migration must abort
// cleanly — old routing intact, no partial replica serving — while the
// surviving backend keeps answering.
func TestMigrateLiveAbortsWhenDestinationFails(t *testing.T) {
	c, cl, loader := liveFixture(t)
	var killed atomic.Bool
	opts := LiveOptions{
		BatchRows: 5,
		onBatch: func(dest, table string) {
			if table == "a" && killed.CompareAndSwap(false, true) {
				if err := c.Fail(dest); err != nil {
					t.Errorf("fail %s: %v", dest, err)
				}
			}
		},
	}
	_, err := c.MigrateLive(fullAlloc(t, cl), loader, opts)
	if err == nil {
		t.Fatal("migration onto a failed backend succeeded")
	}
	if !killed.Load() {
		t.Fatal("chaos hook never fired")
	}
	// The partial replica must not serve: B2's routing set has no a.
	for _, table := range c.Tables(1) {
		if table == "a" {
			t.Fatal("partial replica of a is serving on the failed destination")
		}
	}
	// Status and metrics recorded the clean abort.
	if st := c.Migration(); st.Active || st.Err == "" {
		t.Fatalf("status after abort = %+v", st)
	}
	if m := c.Metrics().Migration; m.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", m.Aborts)
	}
	// The survivor still answers both classes (QB fails over to B1).
	for i := 0; i < 10; i++ {
		if _, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}); err != nil {
			t.Fatalf("QA after aborted migration: %v", err)
		}
		if _, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 1`, Class: "QB"}); err != nil {
			t.Fatalf("QB after aborted migration: %v", err)
		}
	}
	// After the destination recovers, the same migration completes.
	if _, err := c.Recover("B2"); err != nil {
		t.Fatal(err)
	}
	rep, err := c.MigrateLive(fullAlloc(t, cl), loader, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CopiedTables != 1 {
		t.Fatalf("retry copied %d tables, want 1", rep.CopiedTables)
	}
	if s0, s1 := mustChecksum(t, c.Backend(0), "a"), mustChecksum(t, c.Backend(1), "a"); s0 != s1 {
		t.Fatalf("replicas of a diverged after retry: %x vs %x", s0, s1)
	}
}

// TestResizeLiveAbortedScaleOutRetiresItsBackends kills the backend a
// 2 -> 3 scale-out created while its first table is mid-copy. The
// abort must leave the cluster exactly as before: two published
// backends (so an allocation of the old size still installs), and the
// third one's applier shut down rather than leaked.
func TestResizeLiveAbortedScaleOutRetiresItsBackends(t *testing.T) {
	c, cl, loader := liveFixture(t)
	alloc3 := placed(t, cl, []string{"a", "b"}, []string{"b"}, []string{"b"})
	var added *backend
	_, err := c.ResizeLive(alloc3, loader, LiveOptions{
		BatchRows: 5,
		onBatch: func(dest, table string) {
			if added == nil && dest == "B3" {
				added = c.all()[2]
				if err := c.Fail(dest); err != nil {
					t.Errorf("fail %s: %v", dest, err)
				}
			}
		},
	})
	if err == nil || added == nil {
		t.Fatalf("scale-out onto a killed backend: err = %v, hook fired = %v", err, added != nil)
	}
	if n := c.NumBackends(); n != 2 {
		t.Fatalf("aborted scale-out left %d backends published, want 2", n)
	}
	exited := make(chan struct{})
	go func() { added.wg.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("applier of the backend the aborted scale-out created is still running")
	}
	if st := c.Migration(); st.Active || st.Err == "" {
		t.Fatalf("status after abort = %+v", st)
	}
	rep, err := c.MigrateLive(fullAlloc(t, cl), loader, LiveOptions{})
	if err != nil {
		t.Fatalf("two-backend allocation after the aborted scale-out: %v", err)
	}
	if rep.CopiedTables != 1 {
		t.Fatalf("copied %d tables, want 1", rep.CopiedTables)
	}
}

// TestMigrateLiveDeltaOverflow pins the capture side of the replay
// log's cap policy. With RedoLogCap 3, five updates to the in-flight
// table during a copy attempt overflow its capture: the log is freed
// and marked lost, the attempt is scrapped, and the copy restarts from
// a fresh clone. Overflowing the first attempt only must succeed on the
// second with bit-identical replicas; overflowing every attempt must
// give up after MaxAttempts and leave no trace.
func TestMigrateLiveDeltaOverflow(t *testing.T) {
	for _, tc := range []struct {
		name          string
		overflowFirst int // attempts (of MaxAttempts 2) whose capture is overflowed
		wantErr       bool
	}{
		{"retry from a fresh clone", 1, false},
		{"give up after MaxAttempts", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cl, loader := liveFixture(t)
			c.cfg.RedoLogCap = 3
			installed, gen := c.alloc, c.RouteGeneration()
			dest := c.all()[1]
			attempts, injected := 0, 0
			opts := LiveOptions{
				MaxAttempts: 2,
				onBatch: func(_, table string) { // one batch per attempt: 20 rows < BatchRows
					if attempts++; table != "a" || attempts > tc.overflowFirst {
						return
					}
					for i := 0; i < 5; i++ {
						if _, err := c.Execute(workload.Request{
							SQL: `UPDATE a SET a_v = a_v + 1 WHERE a_id = 3`, Class: "UA", Write: true,
						}); err != nil {
							t.Errorf("injected update: %v", err)
						}
						injected++
					}
					c.dispatchMu.Lock()
					if dl := dest.capture["a"]; !reflect.DeepEqual(dl, &roundLog{lost: true}) {
						t.Errorf("capture after 5 updates at cap 3 = %+v, want freed and lost", dl)
					}
					c.dispatchMu.Unlock()
				},
			}
			rep, err := c.MigrateLive(fullAlloc(t, cl), loader, opts)
			if attempts != 2 {
				t.Fatalf("copy attempts = %d, want 2", attempts)
			}
			c.dispatchMu.Lock()
			if len(dest.capture) != 0 {
				t.Errorf("capture still registered: %v", dest.capture)
			}
			c.dispatchMu.Unlock()
			if got := valueOn(t, c, 0, "a", 3); got != int64(3+injected) {
				t.Fatalf("source a_v = %d, want %d", got, 3+injected)
			}
			if tc.wantErr {
				if !errors.Is(err, errDeltaOverflow) {
					t.Fatalf("err = %v, want errDeltaOverflow", err)
				}
				if c.Backend(1).Table("a") != nil {
					t.Error("destination kept a partial copy of a")
				}
				if !reflect.DeepEqual(c.Tables(1), []string{"b"}) || c.alloc != installed || c.RouteGeneration() != gen {
					t.Errorf("routing changed by the failed migration: B2 holds %v", c.Tables(1))
				}
				if m := c.Metrics().Migration; m.Aborts != 1 {
					t.Errorf("aborts = %d, want 1", m.Aborts)
				}
				mustServe(t, c, "a", "b")
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The scrapped attempt restored its 20 rows too (the status
			// counts them), but only the second attempt's copy arrived,
			// cut after every injected update: nothing left to replay.
			if st := c.Migration(); st.CopiedRows != 40 {
				t.Errorf("status copied rows = %d, want 40 over two attempts", st.CopiedRows)
			}
			if rep.CopiedTables != 1 || rep.CopiedRows != 20 || rep.DeltaReplayed != 0 {
				t.Fatalf("report = %+v, want one table of 20 rows and no delta", rep)
			}
			if s0, s1 := mustChecksum(t, c.Backend(0), "a"), mustChecksum(t, c.Backend(1), "a"); s0 != s1 {
				t.Fatalf("replicas of a diverged: %x vs %x", s0, s1)
			}
		})
	}
}

// TestResizeSameCountNoLockGap: ResizeLive with an unchanged backend
// count plans and migrates under one liveMu hold, so no Install can
// interleave between the count it read and the migration. Hammering
// same-count resizes against concurrent installs must never corrupt
// routing (every iteration's cluster still serves both classes).
func TestResizeSameCountNoLockGap(t *testing.T) {
	c, cl, loader := liveFixture(t)
	layoutA := fullAlloc(t, cl)
	layoutB := partialAlloc(t, cl)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			alloc := layoutA
			if i%2 == 1 {
				alloc = layoutB
			}
			if _, err := c.ResizeLive(alloc, loader, LiveOptions{}); err != nil {
				t.Errorf("resize %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := c.Install(layoutB, loader); err != nil {
				t.Errorf("install %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	mustServe(t, c, "a", "b")
}
