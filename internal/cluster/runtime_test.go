package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// parityPendings mirrors internal/sim's TestPolicyParityWithRuntime
// verbatim: both layers are checked against the same runtime.Policy
// reference under the same pending state, so sim and cluster pick the
// same backend for every policy.
var parityPendings = [][]int{
	{3, 1, 2, 5},
	{2, 2, 2, 2},
	{0, 4, 0, 1},
}

func TestPolicyParityWithRuntime(t *testing.T) {
	for _, kind := range runtime.Kinds() {
		c, err := New(Config{Backends: core.UniformBackends(4), Policy: kind, PolicySeed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ref := kind.New()
		refRNG := rand.New(rand.NewSource(9))
		for _, pending := range parityPendings {
			for i, b := range c.all() {
				for b.metrics.Pending() < int64(pending[i]) {
					b.metrics.IncPending()
				}
				for b.metrics.Pending() > int64(pending[i]) {
					b.metrics.DecPending()
				}
			}
			want := c.all()[ref.Pick(len(c.all()), func(i int) int { return pending[i] }, refRNG)]
			if got := c.pickRead(c.all()); got != want {
				t.Fatalf("%s: cluster picked %s, runtime reference picked %s (pending %v)",
					kind, got.name, want.name, pending)
			}
		}
		c.Close()
	}
}

// fullReplicaSetup builds a 4-backend cluster where every backend holds
// table t — the widest ROWA fan-out this cluster can produce.
func fullReplicaSetup(t *testing.T) *Cluster {
	t.Helper()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "t", Size: 1})
	cl.MustAddClass(core.NewClass("QT", core.Read, 0.5, "t"))
	cl.MustAddClass(core.NewClass("UT", core.Update, 0.5, "t"))
	alloc := core.NewAllocation(cl, core.UniformBackends(4))
	for i := 0; i < 4; i++ {
		alloc.AddFragments(i, "t")
		alloc.SetAssign(i, "QT", 0.125)
		alloc.SetAssign(i, "UT", 0.5)
	}
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Backends: core.UniformBackends(4)})
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
			if err := e.BulkInsert(tb, []sqlmini.Row{{sqlmini.Int(0), sqlmini.Int(0)}}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParallelROWAFanout (run under -race): concurrent writers fan out
// through the bounded worker pool to all four replicas; the replicas
// must converge to the same value (global update order), and the
// fan-out metrics must record the full width.
func TestParallelROWAFanout(t *testing.T) {
	c := fullReplicaSetup(t)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sql := fmt.Sprintf(`UPDATE t SET t_v = %d WHERE t_id = 0`, w*1000+i)
				if _, err := c.Execute(workload.Request{SQL: sql, Class: "UT", Write: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var first int64
	for i := 0; i < 4; i++ {
		r, err := c.Backend(i).Exec(`SELECT t_v FROM t WHERE t_id = 0`)
		if err != nil {
			t.Fatal(err)
		}
		v := r.Rows[0][0].I
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("replica %d diverged: %d vs %d (global order violated)", i, v, first)
		}
	}
	m := c.Metrics()
	if m.Fanout.Writes != writers*perWriter || m.Fanout.MaxWidth != 4 {
		t.Fatalf("fanout = %+v, want %d writes of width 4", m.Fanout, writers*perWriter)
	}
	for _, b := range m.Backends {
		if b.Writes != writers*perWriter {
			t.Fatalf("backend %s applied %d writes, want %d", b.Name, b.Writes, writers*perWriter)
		}
		if b.Pending != 0 {
			t.Fatalf("backend %s pending = %d after quiescence", b.Name, b.Pending)
		}
	}
}

func TestMetricsCountReadsAndLatency(t *testing.T) {
	c, _ := miniSetup(t)
	for i := 0; i < 10; i++ {
		if _, err := c.Execute(workload.Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}); err != nil {
			t.Fatal(err)
		}
	}
	m := c.Metrics()
	if m.Policy != "least-pending" {
		t.Fatalf("policy = %q", m.Policy)
	}
	var reads int64
	for _, b := range m.Backends {
		reads += b.Reads
		if b.Reads > 0 && b.ReadLatency.Count != b.Reads {
			t.Fatalf("backend %s: %d reads but latency count %d", b.Name, b.Reads, b.ReadLatency.Count)
		}
	}
	if reads != 10 {
		t.Fatalf("total reads = %d, want 10", reads)
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	c, _ := miniSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecuteContext(ctx, workload.Request{SQL: `SELECT a_v FROM a`, Class: "QA"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("read on canceled ctx: err = %v, want context.Canceled", err)
	}
	// An abandoned write still applies on every replica — the update was
	// enqueued in global order before the caller stopped waiting.
	_, err := c.ExecuteContext(ctx, workload.Request{SQL: `UPDATE b SET b_v = 777 WHERE b_id = 4`, Class: "UB", Write: true})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("write on canceled ctx: err = %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 2; i++ {
		for {
			r, err := c.Backend(i).Exec(`SELECT b_v FROM b WHERE b_id = 4`)
			if err != nil {
				t.Fatal(err)
			}
			if r.Rows[0][0].I == 777 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend %d never applied the abandoned write", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestConfigTimeout(t *testing.T) {
	c, err := New(Config{Backends: core.UniformBackends(1), Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 1, "a"))
	alloc := core.NewAllocation(cl, core.UniformBackends(1))
	alloc.AddFragments(0, "a")
	alloc.SetAssign(0, "QA", 1)
	load := func(e *sqlmini.Engine, tables []string) error {
		return e.CreateTable("a", []sqlmini.Column{{Name: "a_id", Type: sqlmini.KindInt, PrimaryKey: true}})
	}
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(workload.Request{SQL: `SELECT a_id FROM a`, Class: "QA"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestInstallErrorNamesBackend: a failing loader is reported with the
// identity of the backend it failed on.
func TestInstallErrorNamesBackend(t *testing.T) {
	c, _ := miniSetup(t)
	boom := errors.New("disk full")
	load := func(e *sqlmini.Engine, tables []string) error {
		if len(tables) == 1 { // only backend 2 loads a single table (b)
			return boom
		}
		return nil
	}
	err := c.Install(c.routes.Load().alloc, load)
	if err == nil {
		t.Fatal("loader failure not reported")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "B2") {
		t.Fatalf("error %q does not name the failing backend B2", err)
	}
}
