package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// fullSetup creates an n-backend cluster with tables a and b fully
// replicated (trivially 1-safe: every class survives any single
// failure). Read-class weights split evenly; update classes carry full
// weight on every holder per Eq. 10.
func fullSetup(t *testing.T, n int, cfg Config) *Cluster {
	t.Helper()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.AddFragment(core.Fragment{ID: "b", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 0.4, "a"))
	cl.MustAddClass(core.NewClass("QB", core.Read, 0.2, "b"))
	cl.MustAddClass(core.NewClass("UA", core.Update, 0.2, "a"))
	cl.MustAddClass(core.NewClass("UB", core.Update, 0.2, "b"))
	alloc := core.NewAllocation(cl, core.UniformBackends(n))
	for i := 0; i < n; i++ {
		alloc.AddFragments(i, "a", "b")
		alloc.SetAssign(i, "QA", 0.4/float64(n))
		alloc.SetAssign(i, "QB", 0.2/float64(n))
		alloc.SetAssign(i, "UA", 0.2)
		alloc.SetAssign(i, "UB", 0.2)
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Backends) == 0 {
		cfg.Backends = core.UniformBackends(n)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Install(alloc, testLoader); err != nil {
		t.Fatal(err)
	}
	return c
}

// testLoader loads 10 deterministic rows into each table (same shape
// as miniSetup's loader).
func testLoader(e *sqlmini.Engine, tables []string) error {
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
	}
	return nil
}

func backendState(c *Cluster, name string) string {
	for _, bh := range c.Health().Backends {
		if bh.Name == name {
			return bh.State
		}
	}
	return "?"
}

func TestFailStopsReadsAndRecoverResumes(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	if got := backendState(c, "B2"); got != "down" {
		t.Fatalf("B2 state = %s, want down", got)
	}
	// QB can run on either holder of b; with B2 down it must always
	// land on B1.
	for i := 0; i < 20; i++ {
		res, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 2`, Class: "QB"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != "B1" {
			t.Fatalf("read ran on %s while B2 was down", res.Backend)
		}
	}
	rep, err := c.Recover("B2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "B2" || rep.Replayed != 0 {
		t.Fatalf("recovery report = %+v", rep)
	}
	if got := backendState(c, "B2"); got != "up" {
		t.Fatalf("B2 state after recovery = %s, want up", got)
	}
}

func TestFailRecoverErrors(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("nope"); err == nil {
		t.Error("unknown backend accepted by Fail")
	}
	if _, err := c.Recover("nope"); err == nil {
		t.Error("unknown backend accepted by Recover")
	}
	if _, err := c.Recover("B1"); err == nil {
		t.Error("recovering an Up backend accepted")
	}
}

func TestReadFailoverOnCrashedEngine(t *testing.T) {
	c, _ := miniSetup(t)
	f := &sqlmini.Fault{}
	c.Backend(0).SetFault(f)
	f.Crash()
	// Both backends hold b; every read must succeed via B2 even when
	// the policy first picks the crashed B1.
	for i := 0; i < 10; i++ {
		res, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 1`, Class: "QB"})
		if err != nil {
			t.Fatalf("read %d failed despite a live replica: %v", i, err)
		}
		if res.Backend != "B2" {
			t.Fatalf("read %d reported backend %s", i, res.Backend)
		}
	}
	snap := c.Metrics()
	var failovers int64
	for _, bs := range snap.Backends {
		failovers += bs.Failovers
	}
	if failovers == 0 {
		t.Fatal("no failover recorded")
	}
	if snap.Reliability.Retries == 0 {
		t.Fatal("no retry recorded")
	}
	// B1 took the blame: it is no longer Up.
	if got := backendState(c, "B1"); got == "up" {
		t.Fatal("crashed backend still up")
	}
}

func TestStatementErrorsDoNotFailOver(t *testing.T) {
	c, _ := miniSetup(t)
	// A bad statement fails identically everywhere: it must surface
	// immediately, not burn retries or blame backends.
	_, err := c.Execute(workload.Request{SQL: `SELECT nope FROM b`, Class: "QB"})
	if err == nil {
		t.Fatal("bad statement accepted")
	}
	if errors.Is(err, runtime.ErrUnavailable) {
		t.Fatalf("statement error mapped to unavailability: %v", err)
	}
	snap := c.Metrics()
	if snap.Reliability.Retries != 0 {
		t.Fatalf("statement error burned %d retries", snap.Reliability.Retries)
	}
	for _, bs := range snap.Backends {
		if bs.State != "up" {
			t.Fatalf("backend %s demoted to %s by a statement error", bs.Name, bs.State)
		}
	}
}

func TestReadUnavailableWhenAllReplicasDown(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("B1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute(workload.Request{SQL: `SELECT b_v FROM b WHERE b_id = 1`, Class: "QB"})
	if !errors.Is(err, runtime.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var ue *runtime.UnavailableError
	if !errors.As(err, &ue) || ue.Class != "QB" {
		t.Fatalf("unavailable error does not name the class: %v", err)
	}
	if c.Metrics().Reliability.Unavailable == 0 {
		t.Fatal("unavailable request not counted")
	}
}

func TestWriteUnavailableLeavesNoRedo(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("B1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute(workload.Request{SQL: `UPDATE b SET b_v = 1 WHERE b_id = 1`, Class: "UB", Write: true})
	if !errors.Is(err, runtime.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// The rejected write must NOT sit in any redo log: it was applied
	// nowhere, so replaying it on recovery would invent an update.
	for _, bh := range c.Health().Backends {
		if bh.RedoLen != 0 {
			t.Fatalf("backend %s has %d redo entries for a rejected write", bh.Name, bh.RedoLen)
		}
	}
}

func TestAutoDownAfterConsecutiveReadFailures(t *testing.T) {
	c, _ := miniSetup(t)
	f := &sqlmini.Fault{}
	c.Backend(0).SetFault(f)
	f.Crash()
	// QA only runs on B1; each attempt adds one failure to the streak.
	for i := 0; i < failThreshold; i++ {
		_, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
		if !errors.Is(err, runtime.ErrUnavailable) {
			t.Fatalf("attempt %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if got := backendState(c, "B1"); got != "down" {
		t.Fatalf("B1 state = %s after %d consecutive failures, want down", got, failThreshold)
	}
	// The engine must answer again before recovery can verify it.
	f.Revive()
	rep, err := c.Recover("B1")
	if err != nil {
		t.Fatal(err)
	}
	// b has a live replica (B2) to verify against; a has none — it is
	// skipped, not fatal.
	if len(rep.Verified) != 1 || rep.Verified[0] != "b" {
		t.Fatalf("verified = %v, want [b]", rep.Verified)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "a" {
		t.Fatalf("skipped = %v, want [a]", rep.Skipped)
	}
	if _, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestRedoLogReplayOnRecovery(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	const writes = 10
	for i := 0; i < writes/2; i++ {
		sql := fmt.Sprintf(`UPDATE b SET b_v = %d WHERE b_id = %d`, 1000+i, i)
		if _, err := c.Execute(workload.Request{SQL: sql, Class: "UB", Write: true}); err != nil {
			t.Fatal(err)
		}
	}
	// The other half are prepared, and their caller reuses one args slice:
	// the redo log must hold the values each call executed with, not
	// whatever the slice holds by the time B2 replays.
	prep, err := c.Prepare(`UPDATE b SET b_v = 0 WHERE b_id = 0`, "UB", true)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]sqlmini.Value, 2)
	for i := writes / 2; i < writes; i++ {
		args[0], args[1] = sqlmini.Int(int64(1000+i)), sqlmini.Int(int64(i))
		if _, err := c.ExecPrepared(context.Background(), prep, args); err != nil {
			t.Fatal(err)
		}
		args[0], args[1] = sqlmini.Int(-1), sqlmini.Int(0)
	}
	// B1 applied them, B2 missed them.
	r1, err := c.Backend(1).Exec(`SELECT b_v FROM b WHERE b_id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I == 1000 {
		t.Fatal("down backend applied a write")
	}
	for _, bh := range c.Health().Backends {
		if bh.Name == "B2" {
			if bh.RedoLen != writes || bh.RedoLost {
				t.Fatalf("B2 redo = %+v, want len %d", bh, writes)
			}
			if bh.DownForMS < 0 {
				t.Fatalf("down_for_ms = %d", bh.DownForMS)
			}
		}
	}
	if got := c.Metrics().Reliability.RedoAppends; got != writes {
		t.Fatalf("redo appends = %d, want %d", got, writes)
	}
	rep, err := c.Recover("B2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != writes {
		t.Fatalf("replayed = %d, want %d", rep.Replayed, writes)
	}
	if len(rep.Verified) != 1 || rep.Verified[0] != "b" {
		t.Fatalf("verified = %v", rep.Verified)
	}
	s1, err := c.Backend(0).TableChecksum("b")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Backend(1).TableChecksum("b")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("replicas disagree after replay: %x vs %x", s1, s2)
	}
	for i := 0; i < writes; i++ {
		r, err := c.Backend(1).Exec(fmt.Sprintf(`SELECT b_v FROM b WHERE b_id = %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || r.Rows[0][0].I != int64(1000+i) {
			t.Fatalf("B2 replayed b_id %d as %v, want %d", i, r.Rows, 1000+i)
		}
	}
	if c.Metrics().Reliability.Catchups != 1 {
		t.Fatal("catch-up not observed in metrics")
	}
}

func TestRedoOverflowFallsBackToResync(t *testing.T) {
	c, _ := miniSetup(t)
	c.cfg.RedoLogCap = 3
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sql := fmt.Sprintf(`UPDATE b SET b_v = %d WHERE b_id = %d`, 2000+i, i%10)
		if _, err := c.Execute(workload.Request{SQL: sql, Class: "UB", Write: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, bh := range c.Health().Backends {
		if bh.Name == "B2" && (!bh.RedoLost || bh.RedoLen != 0) {
			t.Fatalf("B2 after overflow = %+v, want lost empty log", bh)
		}
	}
	rep, err := c.Recover("B2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 {
		t.Fatalf("replayed %d from a lost log", rep.Replayed)
	}
	if len(rep.Resynced) != 1 || rep.Resynced[0] != "b" {
		t.Fatalf("resynced = %v, want [b]", rep.Resynced)
	}
	s1, _ := c.Backend(0).TableChecksum("b")
	s2, _ := c.Backend(1).TableChecksum("b")
	if s1 != s2 {
		t.Fatalf("replicas disagree after resync: %x vs %x", s1, s2)
	}
	// The snapshot that resynced b carried its index definition: at the
	// parent the restored copy had none.
	requireIndexed(t, c, "b", 0, 1)
}

func TestPartialWriteFailureQuarantines(t *testing.T) {
	c, _ := miniSetup(t)
	// B2's engine fails everything: a ROWA write succeeds on B1 and
	// fails on B2 — divergence. The write must succeed for the caller
	// and B2 must be quarantined for re-copy.
	c.Backend(1).SetFault(&sqlmini.Fault{ErrorRate: 1})
	if _, err := c.Execute(workload.Request{SQL: `UPDATE b SET b_v = 777 WHERE b_id = 1`, Class: "UB", Write: true}); err != nil {
		t.Fatalf("write with one live replica failed: %v", err)
	}
	var b2 BackendHealth
	for _, bh := range c.Health().Backends {
		if bh.Name == "B2" {
			b2 = bh
		}
	}
	if b2.State != "down" || !b2.RedoLost {
		t.Fatalf("diverged backend not quarantined: %+v", b2)
	}
	c.Backend(1).SetFault(nil)
	rep, err := c.Recover("B2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resynced) != 1 || rep.Resynced[0] != "b" {
		t.Fatalf("resynced = %v", rep.Resynced)
	}
	r, err := c.Backend(1).Exec(`SELECT b_v FROM b WHERE b_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 777 {
		t.Fatalf("resynced replica missed the diverging write: %v", r.Rows[0][0])
	}
}

func TestHealthReportClassesAndAtRisk(t *testing.T) {
	c, _ := miniSetup(t)
	h := c.Health()
	if len(h.Backends) != 2 || len(h.Classes) != 3 {
		t.Fatalf("report shape: %+v", h)
	}
	// QA's only replica is B1: at risk even with everything up.
	if got := h.AtRisk["B1"]; len(got) != 1 || got[0] != "QA" {
		t.Fatalf("AtRisk[B1] = %v, want [QA]", got)
	}
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	h = c.Health()
	// With B2 down, B1 is the last live replica of every class.
	if got := h.AtRisk["B1"]; len(got) != 3 {
		t.Fatalf("AtRisk[B1] = %v, want all three classes", got)
	}
	for _, ch := range h.Classes {
		if ch.Unavailable {
			t.Fatalf("class %s reported unavailable with B1 live", ch.Class)
		}
		if ch.Live >= ch.Replicas && ch.Class != "QA" {
			t.Fatalf("class %s live count ignores the down backend: %+v", ch.Class, ch)
		}
	}
	// Recover and fail B1 instead: QA (only on B1) goes unavailable.
	if _, err := c.Recover("B2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("B1"); err != nil {
		t.Fatal(err)
	}
	h = c.Health()
	var qa ClassHealth
	for _, ch := range h.Classes {
		if ch.Class == "QA" {
			qa = ch
		}
	}
	if !qa.Unavailable || qa.Live != 0 {
		t.Fatalf("QA with its only replica down: %+v", qa)
	}
}

func TestInstallResetsHealth(t *testing.T) {
	c, alloc := miniSetup(t)
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(workload.Request{SQL: `UPDATE b SET b_v = 5 WHERE b_id = 5`, Class: "UB", Write: true}); err != nil {
		t.Fatal(err)
	}
	// Reinstalling wipes and reloads every backend: health and redo
	// state must reset with the data.
	if err := c.Install(alloc, func(e *sqlmini.Engine, tables []string) error {
		return testLoader(e, tables)
	}); err != nil {
		t.Fatal(err)
	}
	for _, bh := range c.Health().Backends {
		if bh.State != "up" || bh.RedoLen != 0 || bh.RedoLost {
			t.Fatalf("backend %s not reset by install: %+v", bh.Name, bh)
		}
	}
}

func TestRunClassifiesErrors(t *testing.T) {
	c := fullSetup(t, 2, Config{Backends: core.UniformBackends(2)})
	// Statement errors on a healthy cluster count as backend errors.
	bad := workload.Request{SQL: `SELECT nope FROM a`, Class: "QA"}
	st, err := c.Run(func() workload.Request { return bad }, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 3 || st.BackendErrors != 3 || st.Unavailable != 0 || st.Timeouts != 0 {
		t.Fatalf("statement-error stats = %+v", st)
	}
	if st.FirstError == "" {
		t.Fatal("first error not captured")
	}
	// An expired deadline counts as a timeout.
	c.cfg.Timeout = time.Nanosecond
	good := workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}
	st, err = c.Run(func() workload.Request { return good }, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Timeouts != 2 {
		t.Fatalf("timeout stats = %+v", st)
	}
	c.cfg.Timeout = 0
	// With every replica down, requests count as unavailable.
	if err := c.Fail("B1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	st, err = c.Run(func() workload.Request { return good }, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unavailable != 2 {
		t.Fatalf("unavailable stats = %+v", st)
	}
	if st.Unavailable+st.BackendErrors+st.Timeouts != st.Errors {
		t.Fatalf("error breakdown does not add up: %+v", st)
	}
}

func TestMetricsCarryHealthState(t *testing.T) {
	c, _ := miniSetup(t)
	if err := c.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics()
	states := map[string]string{}
	for _, bs := range snap.Backends {
		states[bs.Name] = bs.State
	}
	if states["B1"] != "up" || states["B2"] != "down" {
		t.Fatalf("states = %v", states)
	}
}

// TestWritesKeepFlowingDuringRecovery exercises the drain-and-flip:
// writes issued while the backend replays its redo log must land
// exactly once (either replayed or applied directly), leaving replicas
// identical.
func TestWritesKeepFlowingDuringRecovery(t *testing.T) {
	c := fullSetup(t, 3, Config{Backends: core.UniformBackends(3)})
	if err := c.Fail("B3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sql := fmt.Sprintf(`UPDATE b SET b_v = b_v + 1 WHERE b_id = %d`, i%10)
		if _, err := c.Execute(workload.Request{SQL: sql, Class: "UB", Write: true}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			sql := fmt.Sprintf(`UPDATE a SET a_v = a_v + 1 WHERE a_id = %d`, i%10)
			if _, err := c.Execute(workload.Request{SQL: sql, Class: "UA", Write: true}); err != nil {
				done <- err
				return
			}
		}
	}()
	rep, err := c.Recover("B3")
	close(stop)
	if werr := <-done; werr != nil {
		t.Fatalf("concurrent write failed: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed < 50 {
		t.Fatalf("replayed = %d, want >= 50", rep.Replayed)
	}
	// Writes raced the recovery; give the queues a beat to drain, then
	// all three replicas must agree on both tables.
	time.Sleep(20 * time.Millisecond)
	want, err := c.Backend(0).Checksums(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		got, err := c.Backend(i).Checksums(nil)
		if err != nil {
			t.Fatal(err)
		}
		for tb, sum := range want {
			if got[tb] != sum {
				t.Fatalf("backend %d table %s diverged: %x vs %x", i, tb, got[tb], sum)
			}
		}
	}
}
