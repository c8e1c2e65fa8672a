// Command qcpa-server runs the full three-tier CDBS over TCP: a
// controller with embedded-engine backends, loaded with the bookstore
// (TPC-App-style) demo data and allocated with the greedy heuristic.
//
// Server:
//
//	qcpa-server -listen 127.0.0.1:7070 -backends 3 -strategy table
//
// One-shot client:
//
//	qcpa-server -connect 127.0.0.1:7070 -sql "SELECT i_title FROM item WHERE i_id = 3"
//	qcpa-server -connect 127.0.0.1:7070 -write -sql "UPDATE item SET i_stock = 5 WHERE i_id = 3"
//	qcpa-server -connect 127.0.0.1:7070 -cmd stats
//	qcpa-server -connect 127.0.0.1:7070 -cmd metrics
//	qcpa-server -connect 127.0.0.1:7070 -cmd health
//	qcpa-server -connect 127.0.0.1:7070 -cmd fail -backend B2
//	qcpa-server -connect 127.0.0.1:7070 -cmd recover -backend B2
//
// Online reallocation (the cluster keeps serving throughout):
//
//	qcpa-server -connect 127.0.0.1:7070 -cmd migrate
//	qcpa-server -connect 127.0.0.1:7070 -cmd resize -backends 4
//	qcpa-server -connect 127.0.0.1:7070 -cmd migration
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"qcpa"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
)

func main() {
	var (
		listen    = flag.String("listen", "", "address to serve on (server mode)")
		connect   = flag.String("connect", "", "controller address (client mode)")
		sql       = flag.String("sql", "", "statement to execute (client mode)")
		class     = flag.String("class", "", "query class hint (client mode)")
		write     = flag.Bool("write", false, "route as update (client mode)")
		cmd       = flag.String("cmd", "", "protocol command: history | stats | metrics | health | fail | recover | migrate | resize | migration (client mode)")
		backend   = flag.String("backend", "", "target of -cmd fail/recover (client mode)")
		backends  = flag.Int("backends", 3, "number of backends (server mode); target count of -cmd resize (client mode)")
		strategy  = flag.String("strategy", "table", "classification granularity: table | column")
		policy    = flag.String("policy", "least-pending", "read scheduling policy: least-pending | random | round-robin (server mode)")
		timeout   = flag.Duration("timeout", 0, "per-request timeout, 0 = none (server mode)")
		retries   = flag.Int("max-retries", 2, "read failover retries after the first attempt (server mode)")
		backoff   = flag.Duration("backoff", 0, "base delay for full-jitter retry backoff, 0 = library default (server mode)")
		redoCap   = flag.Int("redo-cap", 0, "per-backend redo-log cap before falling back to full resync, 0 = default (server mode)")
		migBatch  = flag.Int("migrate-batch", 0, "rows per live-migration restore batch, 0 = default (server mode)")
		migPause  = flag.Duration("migrate-pause", 0, "pause between live-migration batches, 0 = full speed (server mode)")
		maxConns  = flag.Int("max-conns", 0, "max accepted connections, 0 = default 1024, -1 = unlimited (server mode)")
		maxInfl   = flag.Int("max-inflight", 0, "max requests executing concurrently, 0 = default 256, -1 = unlimited (server mode)")
		connInfl  = flag.Int("conn-inflight", 0, "max pipelined requests per connection, 0 = default 32, -1 = unlimited (server mode)")
		queueCap  = flag.Int("queue-depth", 0, "admission wait-queue depth before shedding, 0 = default 2x max-inflight, -1 = unlimited (server mode)")
		drainWait = flag.Duration("drain-timeout", 0, "how long Close waits for inflight requests, 0 = default 5s (server mode)")
	)
	flag.Parse()

	switch {
	case *connect != "":
		runClient(*connect, *sql, *class, *cmd, *backend, *backends, *write)
	case *listen != "":
		runServer(*listen, *backends, *strategy, *policy,
			cluster.Config{Timeout: *timeout, MaxRetries: *retries, Backoff: *backoff, RedoLogCap: *redoCap},
			cluster.LiveOptions{BatchRows: *migBatch, BatchPause: *migPause},
			server.Limits{MaxConns: *maxConns, MaxInflight: *maxInfl, ConnInflight: *connInfl,
				QueueDepth: *queueCap, DrainTimeout: *drainWait})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcpa-server:", err)
	os.Exit(1)
}

func runServer(addr string, n int, strategy, policy string, cfg cluster.Config, live cluster.LiveOptions, limits server.Limits) {
	kind, err := runtime.ParseKind(policy)
	if err != nil {
		fatal(err)
	}
	mix, err := tpcapp.Mix(1)
	if err != nil {
		fatal(err)
	}
	// The rows loaded into the demo cluster, which the classifier prices
	// its fragments by too (it takes an unlisted table as 1,000 rows).
	loadRows := map[string]int64{
		"country": 92, "author": 50, "item": 200, "customer": 300, "address": 600, "orders": 900, "order_line": 2700,
	}
	copts := qcpa.ClassifyOptions{RowCounts: loadRows}
	switch strategy {
	case "table":
		copts.Strategy = qcpa.TableBased
	case "column":
		copts.Strategy = qcpa.ColumnBased
	default:
		fatal(fmt.Errorf("unknown strategy %q", strategy))
	}
	res, err := qcpa.ClassifyJournal(mix.Journal(10000), tpcapp.Schema(), copts)
	if err != nil {
		fatal(err)
	}
	alloc, err := qcpa.Allocate(res.Classification, qcpa.UniformBackends(n), qcpa.AllocateOptions{})
	if err != nil {
		fatal(err)
	}
	cfg.Backends = core.UniformBackends(n)
	cfg.Policy = kind
	c, err := cluster.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if err := c.Install(alloc, func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, 42)
	}); err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	// The reallocation planner: reclassify the recorded query history
	// (the boot journal until real traffic arrives) and allocate for the
	// requested backend count.
	planner := func(nb int) (*core.Allocation, error) {
		journal := c.History()
		if len(journal) == 0 {
			journal = mix.Journal(10000)
		}
		r, err := qcpa.ClassifyJournal(journal, tpcapp.Schema(), copts)
		if err != nil {
			return nil, err
		}
		return qcpa.Allocate(r.Classification, qcpa.UniformBackends(nb), qcpa.AllocateOptions{})
	}
	srv := server.ServeConfig(ln, c, server.Config{
		Planner: planner,
		Loader: func(e *sqlmini.Engine, tables []string) error {
			return tpcapp.Load(e, tables, loadRows, 42)
		},
		Live:   live,
		Limits: limits,
	})
	fmt.Printf("qcpa-server: serving %d backends on %s (policy %s)\n", n, srv.Addr(), kind)
	fmt.Printf("allocation:\n%s\n", alloc)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
	_ = srv.Close()
}

func runClient(addr, sql, class, cmd, backend string, backends int, write bool) {
	client, err := server.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	var resp *server.Response
	switch {
	case cmd != "":
		resp, err = client.Do(server.Request{Cmd: cmd, Backend: backend, Backends: backends})
	case write:
		resp, err = client.Exec(sql, class)
	default:
		resp, err = client.Query(sql, class)
	}
	if err != nil {
		fatal(err)
	}
	if resp.Error != "" {
		fatal(fmt.Errorf("%s", resp.Error))
	}
	switch {
	case resp.Metrics != nil:
		m := resp.Metrics
		fmt.Printf("policy %s\n", m.Policy)
		fmt.Printf("%-6s %-10s %8s %8s %7s %8s %10s %8s %12s %12s\n",
			"node", "state", "reads", "writes", "errors", "pending", "failovers", "epoch", "read-p95(us)", "write-p95(us)")
		for _, b := range m.Backends {
			fmt.Printf("%-6s %-10s %8d %8d %7d %8d %10d %8d %12d %12d\n",
				b.Name, b.State, b.Reads, b.Writes, b.Errors, b.Pending, b.Failovers, b.Epoch, b.ReadLatency.P95US, b.WriteLatency.P95US)
		}
		fmt.Printf("ROWA fan-out: %d writes, mean width %.2f, max width %d\n",
			m.Fanout.Writes, m.Fanout.MeanWidth, m.Fanout.MaxWidth)
		g := m.GroupCommit
		fmt.Printf("group commit: %d rounds, %d updates, mean batch %.2f (max %d), mean wait %.0fus (max %dus)\n",
			g.Rounds, g.Updates, g.MeanBatch, g.MaxBatch, g.MeanWaitUS, g.MaxWaitUS)
		r := m.Reliability
		fmt.Printf("reliability: %d retries, %d unavailable, %d redo appends, %d catch-ups (mean %.1fms, max %dms)\n",
			r.Retries, r.Unavailable, r.RedoAppends, r.Catchups, r.MeanCatchupMS, r.MaxCatchupMS)
		p := m.Planner
		fmt.Printf("planner: %d plan hits, %d misses, %d invalidations, %d evictions, %d cached, %d join plans (%d reordered)\n",
			p.PlanHits, p.PlanMisses, p.PlanInvalidations, p.PlanEvictions, p.PlanEntries, p.JoinPlans, p.JoinReordered)
		if a := m.Admission; a != nil {
			fmt.Printf("admission: %d conns (%d total, %d rejected), %d admitted, %d shed, %d drained, %d too-large, %d expired, queue depth %d, queue-wait p95 %dus\n",
				a.Conns, a.ConnsTotal, a.ConnsRejected, a.Admitted, a.Shed, a.Drained, a.TooLarge, a.DeadlineExpired, a.Queued, a.QueueWait.P95US)
			wi := a.Wire
			batch := float64(0)
			if wi.Flushes > 0 {
				batch = float64(wi.FramesOut) / float64(wi.Flushes)
			}
			fmt.Printf("wire: %d frames in, %d out over %d flushes (batch %.2f), %d bad frames\n",
				wi.FramesIn, wi.FramesOut, wi.Flushes, batch, wi.BadFrames)
			fmt.Printf("prepared: %d prepares, %d execs via handle, %d handles open\n",
				wi.Prepares, wi.PreparedExecs, wi.Handles)
		}
	case resp.Health != nil:
		h := resp.Health
		fmt.Printf("%-6s %-11s %8s %9s %10s\n", "node", "state", "redo", "redo-lost", "down-ms")
		for _, b := range h.Backends {
			fmt.Printf("%-6s %-11s %8d %9v %10d\n", b.Name, b.State, b.RedoLen, b.RedoLost, b.DownForMS)
		}
		for _, cl := range h.Classes {
			note := ""
			if cl.Unavailable {
				note = "  UNAVAILABLE"
			}
			fmt.Printf("class %-6s %d/%d replicas live%s\n", cl.Class, cl.Live, cl.Replicas, note)
		}
		for node, classes := range h.AtRisk {
			fmt.Printf("at risk: losing %s takes down %v\n", node, classes)
		}
	case resp.Report != nil:
		rep := resp.Report
		fmt.Printf("reallocation done: %d tables copied (%d rows), %d loaded (%d rows), %d dropped, %d deltas replayed\n",
			rep.CopiedTables, rep.CopiedRows, rep.LoadedTables, rep.LoadedRows, rep.DroppedTables, rep.DeltaReplayed)
		fmt.Printf("worst cutover pause: %v\n", time.Duration(rep.CutoverPause).Round(time.Microsecond))
	case resp.Migration != nil:
		st := resp.Migration
		if st.Active {
			fmt.Printf("migration in flight: phase %s on %s.%s, %d/%d tables, %d rows copied, %d loaded, %d deltas replayed, worst pause %dus\n",
				st.Phase, st.Backend, st.Table, st.TablesDone, st.TablesTotal, st.CopiedRows, st.LoadedRows, st.DeltaReplayed, st.CutoverPauseUS)
		} else if st.Err != "" {
			fmt.Printf("last migration failed after %d/%d tables: %s\n", st.TablesDone, st.TablesTotal, st.Err)
		} else {
			fmt.Printf("no migration in flight; last run: %d/%d tables, %d rows copied, %d loaded, worst pause %dus\n",
				st.TablesDone, st.TablesTotal, st.CopiedRows, st.LoadedRows, st.CutoverPauseUS)
		}
	case resp.CatchUp != nil:
		cu := resp.CatchUp
		fmt.Printf("recovered %s in %v: %d updates replayed, resynced %v, verified %v, skipped %v\n",
			cu.Backend, time.Duration(cu.Duration).Round(time.Millisecond),
			cu.Replayed, cu.Resynced, cu.Verified, cu.Skipped)
	case resp.History != nil:
		for _, h := range resp.History {
			fmt.Printf("%6d x %8.3fms  %s\n", h.Count, h.Cost, h.SQL)
		}
	case resp.Tables != nil:
		for i, ts := range resp.Tables {
			fmt.Printf("backend %d: %v\n", i+1, ts)
		}
	case cmd == "fail":
		fmt.Printf("backend %s taken out of service\n", resp.Backend)
	default:
		if len(resp.Columns) > 0 {
			fmt.Println(resp.Columns)
		}
		for _, row := range resp.Rows {
			fmt.Println(row...)
		}
		fmt.Printf("(%d rows, backend %s, %dus, affected %d)\n",
			len(resp.Rows), resp.Backend, resp.DurationUS, resp.Affected)
	}
}
