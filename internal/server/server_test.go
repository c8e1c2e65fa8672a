package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
)

// startServer spins up a 2-backend cluster (tables a+b / b) behind a
// TCP listener on a random port.
func startServer(t testing.TB) (*Server, *cluster.Cluster, string) {
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
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(2)})
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
			rows := make([]sqlmini.Row, 5)
			for i := range rows {
				rows[i] = sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i * 2))}
			}
			if err := e.BulkInsert(tb, rows); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, c)
	t.Cleanup(func() { srv.Close() })
	return srv, c, ln.Addr().String()
}

func TestQueryOverTCP(t *testing.T) {
	_, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Query(`SELECT a_v FROM a WHERE a_id = 2`, "QA")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("rows = %v", resp.Rows)
	}
	if v, ok := resp.Rows[0][0].(int64); !ok || v != 4 {
		t.Fatalf("value = %v (%T); v2 preserves integer typing", resp.Rows[0][0], resp.Rows[0][0])
	}
	if resp.Backend != "B1" {
		t.Fatalf("backend = %s", resp.Backend)
	}
	if resp.Columns[0] != "a_v" {
		t.Fatalf("columns = %v", resp.Columns)
	}
	if resp.DurationUS < 0 {
		t.Fatal("negative duration")
	}
}

func TestWriteOverTCPReachesAllReplicas(t *testing.T) {
	_, c, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Exec(`UPDATE b SET b_v = 99 WHERE b_id = 1`, "UB")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("affected = %d", resp.Affected)
	}
	for i := 0; i < 2; i++ {
		r, err := c.Backend(i).Exec(`SELECT b_v FROM b WHERE b_id = 1`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].I != 99 {
			t.Fatalf("backend %d missed the write", i)
		}
	}
}

func TestServerErrorsAreReported(t *testing.T) {
	_, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(`SELECT nope FROM a`, "QA"); err == nil {
		t.Fatal("bad query did not error")
	}
	// The connection survives an error.
	if _, err := client.Query(`SELECT a_v FROM a WHERE a_id = 0`, "QA"); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
	resp, err := client.Do(Request{Cmd: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unknown command accepted")
	}
}

func TestHistoryAndStatsCommands(t *testing.T) {
	_, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		if _, err := client.Query(`SELECT a_v FROM a WHERE a_id = 1`, "QA"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Do(Request{Cmd: "history"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.History) != 1 || resp.History[0].Count != 3 {
		t.Fatalf("history = %+v", resp.History)
	}
	resp, err = client.Do(Request{Cmd: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 2 || len(resp.Tables[0]) != 2 || len(resp.Tables[1]) != 1 {
		t.Fatalf("stats = %v", resp.Tables)
	}
}

// TestMetricsCommand: after a mixed read/write workload, the metrics
// command returns non-zero per-backend counters, the active policy,
// and the ROWA fan-out series.
func TestMetricsCommand(t *testing.T) {
	_, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Query(`SELECT b_v FROM b WHERE b_id = 1`, "QB"); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Exec(fmt.Sprintf(`UPDATE b SET b_v = %d WHERE b_id = 0`, i), "UB"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Do(Request{Cmd: "metrics"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Metrics == nil {
		t.Fatalf("metrics response = %+v", resp)
	}
	m := resp.Metrics
	if m.Policy != "least-pending" {
		t.Fatalf("policy = %q", m.Policy)
	}
	if len(m.Backends) != 2 {
		t.Fatalf("backends = %d", len(m.Backends))
	}
	var reads int64
	for _, b := range m.Backends {
		reads += b.Reads
		// Both backends hold b: ROWA applied every update on each.
		if b.Writes != 5 {
			t.Fatalf("backend %s writes = %d, want 5", b.Name, b.Writes)
		}
		if b.WriteLatency.Count != 5 {
			t.Fatalf("backend %s write latency count = %d", b.Name, b.WriteLatency.Count)
		}
		if b.Pending != 0 {
			t.Fatalf("backend %s pending = %d after quiescence", b.Name, b.Pending)
		}
	}
	if reads != 5 {
		t.Fatalf("total reads = %d, want 5", reads)
	}
	if m.Fanout.Writes != 5 || m.Fanout.MaxWidth != 2 {
		t.Fatalf("fanout = %+v", m.Fanout)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 20; i++ {
				if _, err := client.Query(`SELECT b_v FROM b WHERE b_id = 2`, "QB"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHealthFailRecoverCommands(t *testing.T) {
	_, c, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Backends) != 2 {
		t.Fatalf("health backends = %+v", h.Backends)
	}
	for _, bh := range h.Backends {
		if bh.State != "up" {
			t.Fatalf("backend %s state = %s", bh.Name, bh.State)
		}
	}
	// QA's only replica is B1: the at-risk map must say so.
	if got := h.AtRisk["B1"]; len(got) != 1 || got[0] != "QA" {
		t.Fatalf("AtRisk = %v", h.AtRisk)
	}
	if err := client.Fail("B2"); err != nil {
		t.Fatal(err)
	}
	// A write while B2 is down lands on B1 and B2's redo log.
	if _, err := client.Exec(`UPDATE b SET b_v = 41 WHERE b_id = 2`, "UB"); err != nil {
		t.Fatal(err)
	}
	h, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	for _, bh := range h.Backends {
		if bh.Name == "B2" && (bh.State != "down" || bh.RedoLen != 1) {
			t.Fatalf("B2 health = %+v", bh)
		}
	}
	rep, err := client.Recover("B2")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Replayed != 1 {
		t.Fatalf("catch-up report = %+v", rep)
	}
	// The replayed write is on B2 now.
	r, err := c.Backend(1).Exec(`SELECT b_v FROM b WHERE b_id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 41 {
		t.Fatalf("replayed value = %v", r.Rows[0][0])
	}
	// Administrative errors surface to the client.
	if err := client.Fail("nope"); err == nil {
		t.Fatal("unknown backend accepted by fail")
	}
	if _, err := client.Recover("B1"); err == nil {
		t.Fatal("recovering an Up backend accepted")
	}
}

func TestServerSurvivesPanic(t *testing.T) {
	srv, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Force a panic inside request execution and check the connection
	// and server survive.
	srv.cluster = nil
	resp, err := client.Do(Request{Cmd: "metrics"})
	if err != nil {
		t.Fatalf("connection died on panicking request: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("panic not reported: %+v", resp)
	}
	// Handler is alive; restore the cluster and use the same connection.
	srv.cluster = mustCluster(t, srv)
	if resp, err := client.Do(Request{Cmd: "health"}); err != nil || !resp.OK {
		t.Fatalf("connection unusable after panic: %v %+v", err, resp)
	}
}

// mustCluster builds a minimal 1-backend cluster for the panic test's
// recovery phase.
func mustCluster(t *testing.T, srv *Server) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCloseUnblocksIdleConnections: Close must tear down connections
// whose handlers are blocked reading, not hang waiting for them.
func TestCloseUnblocksIdleConnections(t *testing.T) {
	srv, _, addr := startServer(t)
	// An idle client holding its connection open.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the handler start and register the connection.
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(`SELECT a_v FROM a WHERE a_id = 0`, "QA"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	// The idle connection was torn down server-side.
	buf := make([]byte, 1)
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open after Close")
	}
}
