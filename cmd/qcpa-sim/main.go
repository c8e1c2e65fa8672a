// Command qcpa-sim runs the dynamic parts of the system interactively:
//
//	qcpa-sim autoscale            # 24-hour trace with autonomic scaling
//	qcpa-sim cluster              # real-engine cluster workload run
//	qcpa-sim cluster -chaos       # same, with backends killed and revived mid-run
//	qcpa-sim elastic              # real-engine scale-out/in with live data movement
//	qcpa-sim autoscale -scale 40  # the paper's full 40x trace scale
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"qcpa"
	"qcpa/internal/autoscale"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	switch cmd {
	case "autoscale":
		scale := fs.Float64("scale", 4, "trace scale factor (paper: 40)")
		service := fs.Float64("service", 0.15, "seconds of service per cost unit (use 0.015 with -scale 40)")
		maxNodes := fs.Int("max-nodes", 6, "cluster size cap")
		seed := fs.Int64("seed", 1, "RNG seed")
		_ = fs.Parse(os.Args[2:])
		runAutoscale(autoscale.Options{
			MaxNodes: *maxNodes, TraceScale: *scale, ServiceSeconds: *service, Seed: *seed,
		})
	case "cluster":
		backends := fs.Int("backends", 3, "number of backends")
		requests := fs.Int("requests", 2000, "requests to execute")
		workers := fs.Int("workers", 8, "concurrent clients")
		seed := fs.Int64("seed", 7, "RNG seed")
		policy := fs.String("policy", "least-pending", "read scheduling policy: least-pending | random | round-robin")
		chaos := fs.Bool("chaos", false, "kill and revive backends mid-run (allocates 1-safe so reads stay available)")
		chaosKills := fs.Int("chaos-kills", 3, "kill/recover cycles with -chaos")
		chaosDown := fs.Duration("chaos-down", 150*time.Millisecond, "downtime per kill with -chaos")
		_ = fs.Parse(os.Args[2:])
		kind, err := runtime.ParseKind(*policy)
		if err != nil {
			fatal(err)
		}
		runCluster(*backends, *requests, *workers, *seed, kind,
			chaosOpts{enabled: *chaos, kills: *chaosKills, down: *chaosDown})
	case "elastic":
		requests := fs.Int("requests", 1500, "requests per phase")
		seed := fs.Int64("seed", 7, "RNG seed")
		_ = fs.Parse(os.Args[2:])
		runElastic(*requests, *seed)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qcpa-sim <autoscale|cluster|elastic> [flags]")
	os.Exit(2)
}

func runAutoscale(opts autoscale.Options) {
	run, err := autoscale.Run(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Println("hour  requests  nodes  avg-lat(ms)  moved")
	for b := 0; b < trace.Buckets; b += 3 {
		st := run[b]
		fmt.Printf("%5.1f %9d %6d %12.1f %6.0f %s\n",
			float64(b)/6, st.Requests, st.Nodes, st.AvgLatency*1000, st.MovedBytes,
			strings.Repeat("#", st.Nodes))
	}
	s := autoscale.Summarize(run)
	fmt.Printf("\nnodes %d..%d, capacity %d node-buckets, avg latency %.1f ms, max %.1f ms, moved %.0f units\n",
		s.MinNodes, s.PeakNodes, s.NodeBuckets, s.AvgLatency*1000, s.MaxLatency*1000, s.MovedBytes)
}

// chaosOpts configures the optional fault-injection run of the
// cluster subcommand.
type chaosOpts struct {
	enabled bool
	kills   int
	down    time.Duration
}

func runCluster(n, requests, workers int, seed int64, policy runtime.Kind, chaos chaosOpts) {
	mix, err := tpcapp.Mix(1)
	if err != nil {
		fatal(err)
	}
	res, err := qcpa.ClassifyJournal(mix.Journal(10000), tpcapp.Schema(), qcpa.ClassifyOptions{
		Strategy: qcpa.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		fatal(err)
	}
	mix.Bind(res)
	// Under chaos the allocation must be 1-safe: every fragment needs a
	// second replica for reads to fail over to while its primary is down.
	allocOpts := qcpa.AllocateOptions{}
	if chaos.enabled {
		allocOpts.KSafety = 1
	}
	alloc, err := qcpa.Allocate(res.Classification, qcpa.UniformBackends(n), allocOpts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("allocation:\n%s\n\n", alloc)
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(n), Policy: policy, PolicySeed: seed})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	loadRows := map[string]int64{
		"author": 50, "item": 200, "customer": 300, "address": 600, "orders": 900, "order_line": 2700,
	}
	if err := c.Install(alloc, func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, seed)
	}); err != nil {
		fatal(err)
	}
	var ch *cluster.Chaos
	if chaos.enabled {
		ch = cluster.NewChaos(c, cluster.ChaosConfig{Kills: chaos.kills, DownFor: chaos.down, Seed: seed})
		ch.Start()
	}
	rng := rand.New(rand.NewSource(seed))
	stats, err := c.Run(func() workload.Request { return mix.Next(rng) }, requests, workers)
	if ch != nil {
		rep := ch.Stop()
		fmt.Printf("chaos: %d kills, %d recoveries\n", rep.Kills, rep.Recoveries)
		for _, ev := range rep.Events {
			if ev.Err != "" {
				fmt.Printf("  %s: down %v, recovery FAILED: %s\n", ev.Backend, ev.Down.Round(time.Millisecond), ev.Err)
				continue
			}
			cu := ev.CatchUp
			fmt.Printf("  %s: down %v, caught up in %v (%d updates replayed, %d tables resynced, %d verified)\n",
				ev.Backend, ev.Down.Round(time.Millisecond), cu.Duration.Round(time.Millisecond),
				cu.Replayed, len(cu.Resynced), len(cu.Verified))
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d requests (%d errors) at %.0f req/s, avg latency %v\n",
		stats.Completed, stats.Errors, stats.Throughput, stats.AvgLatency)
	if stats.Errors > 0 {
		fmt.Printf("  errors: %d timeouts, %d unavailable, %d backend; first: %s\n",
			stats.Timeouts, stats.Unavailable, stats.BackendErrors, stats.FirstError)
	}
	m := c.Metrics()
	fmt.Printf("runtime metrics (policy %s):\n", m.Policy)
	for _, b := range m.Backends {
		fmt.Printf("  %s [%s]: %d reads (p95 %dus), %d writes (p95 %dus), %d errors, %d failovers\n",
			b.Name, b.State, b.Reads, b.ReadLatency.P95US, b.Writes, b.WriteLatency.P95US, b.Errors, b.Failovers)
	}
	fmt.Printf("  ROWA fan-out: %d writes, mean width %.2f, max %d\n",
		m.Fanout.Writes, m.Fanout.MeanWidth, m.Fanout.MaxWidth)
	g := m.GroupCommit
	fmt.Printf("  group commit: %d rounds, %d updates, mean batch %.2f (max %d), mean wait %.0fus (max %dus)\n",
		g.Rounds, g.Updates, g.MeanBatch, g.MaxBatch, g.MeanWaitUS, g.MaxWaitUS)
	r := m.Reliability
	fmt.Printf("  reliability: %d retries, %d unavailable, %d redo appends, %d catch-ups (mean %.1fms, max %dms)\n",
		r.Retries, r.Unavailable, r.RedoAppends, r.Catchups, r.MeanCatchupMS, r.MaxCatchupMS)
	p := m.Planner
	fmt.Printf("  planner: %d plan hits, %d misses, %d invalidations, %d evictions, %d cached, %d join plans (%d reordered)\n",
		p.PlanHits, p.PlanMisses, p.PlanInvalidations, p.PlanEvictions, p.PlanEntries, p.JoinPlans, p.JoinReordered)
}

// runElastic demonstrates Section 5's elasticity on the real runtime:
// the cluster grows from 2 to 4 backends and shrinks back with the
// online path (cluster.ResizeLive): tables ship in throttled batches
// while the cluster keeps serving, and the only foreground stall is
// the per-table cutover barrier reported below.
func runElastic(requests int, seed int64) {
	mix, err := tpcapp.Mix(1)
	if err != nil {
		fatal(err)
	}
	res, err := qcpa.ClassifyJournal(mix.Journal(10000), tpcapp.Schema(), qcpa.ClassifyOptions{
		Strategy: qcpa.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		fatal(err)
	}
	mix.Bind(res)
	cls := res.Classification
	loadRows := map[string]int64{
		"author": 50, "item": 200, "customer": 300, "address": 600, "orders": 900, "order_line": 2700,
	}
	loader := func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, seed)
	}

	allocFor := func(n int) *qcpa.Allocation {
		a, err := qcpa.Allocate(cls, qcpa.UniformBackends(n), qcpa.AllocateOptions{})
		if err != nil {
			fatal(err)
		}
		return a
	}
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(2)})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if err := c.Install(allocFor(2), loader); err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	phase := func(label string) {
		stats, err := c.Run(func() workload.Request { return mix.Next(rng) }, requests, 8)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %d backends  %6.0f req/s  (%d errors)\n",
			label, c.NumBackends(), stats.Throughput, stats.Errors)
	}

	phase("2 nodes:")
	live := cluster.LiveOptions{}
	rep, err := c.ResizeLive(allocFor(4), loader, live)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scale-out 2->4: copied %d tables (%d rows), loaded %d, dropped %d, %d deltas replayed, cutover pause %v\n",
		rep.CopiedTables, rep.MovedRows, rep.LoadedTables, rep.DroppedTables,
		rep.DeltaReplayed, time.Duration(rep.CutoverPause).Round(time.Microsecond))
	phase("4 nodes:")
	rep, err = c.ResizeLive(allocFor(2), loader, live)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scale-in 4->2: copied %d tables (%d rows), loaded %d, dropped %d, %d deltas replayed, cutover pause %v\n",
		rep.CopiedTables, rep.MovedRows, rep.LoadedTables, rep.DroppedTables,
		rep.DeltaReplayed, time.Duration(rep.CutoverPause).Round(time.Microsecond))
	phase("2 nodes again:")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcpa-sim:", err)
	os.Exit(1)
}
