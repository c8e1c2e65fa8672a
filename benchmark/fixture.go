package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
)

// sizes is the one place data and run lengths are chosen: the CLI runs
// fullSizes, the smoke test runs tinySizes through the same code.
type sizes struct {
	pointRows int64   // customer rows of point-prepared
	eb        int     // TPC-App scale of tpcapp-mixed
	tpchRows  float64 // TPC-H scale factor of tpch-analytic and realloc
	warmup    time.Duration
	// maxRequests, when positive, ends a timed window after that many
	// foreground requests (cycles on realloc: maxCycles) instead of at
	// its deadline. Only the smoke test sets it.
	maxRequests int
	maxCycles   int
	// slices is how many equal parts the timed window is cut into; a
	// metric is the median of its per-slice values.
	slices int
	// setups is how many times a workload is set up; setup_s is the
	// median.
	setups int
	// ladder is the request count of each traced depth (tpch-analytic
	// replays one pass per depth instead).
	ladder int
}

var fullSizes = sizes{
	pointRows: 100_000, eb: 3, tpchRows: 0.01,
	warmup: 3 * time.Second, slices: 5, setups: 5,
	ladder: 2000,
}

var tinySizes = sizes{
	pointRows: 500, eb: 1, tpchRows: 0.0005,
	warmup: 0, maxRequests: 200, maxCycles: 2, slices: 1, setups: 1,
	ladder: 40,
}

// copyLoader returns a cluster.Loader that fills a backend from the
// fully loaded reference engine. The workload generators' own Load
// functions draw every table off one rng stream, so a backend loading a
// subset of tables would hold different rows than a backend loading
// another subset; copying keeps replicas identical whatever the
// allocation.
func copyLoader(ref *sqlmini.Engine) cluster.Loader {
	return func(e *sqlmini.Engine, tables []string) error {
		for _, t := range tables {
			cols, rows, err := ref.CloneTable(t)
			if err != nil {
				return fmt.Errorf("copy %s: %w", t, err)
			}
			if err := e.CreateTable(t, cols); err != nil {
				return err
			}
			if err := e.BulkInsert(t, rows); err != nil {
				return err
			}
			for _, col := range ref.Indexes(t) {
				if err := e.CreateIndex(t, col); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// fixture is one set-up system under test: a cluster behind a server on
// a real loopback listener, and the closed-loop client connections.
type fixture struct {
	cluster *cluster.Cluster
	server  *server.Server
	clients []*server.Client
	// stmts are the prepared handles of the workloads that use them,
	// indexed as the workload chooses.
	stmts []*server.Stmt
	alloc *core.Allocation
}

func (f *fixture) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	if f.server != nil {
		f.server.Close()
	}
	if f.cluster != nil {
		f.cluster.Close()
	}
}

// newFixture installs alloc on a fresh cluster, serves it on
// 127.0.0.1, and dials nClients v2 connections that never retry, so no
// request is resent behind a metric's back.
func newFixture(alloc *core.Allocation, load cluster.Loader, nClients int) (*fixture, error) {
	f := &fixture{alloc: alloc}
	c, err := cluster.New(cluster.Config{Backends: alloc.Backends()})
	if err != nil {
		return nil, err
	}
	f.cluster = c
	if err := c.Install(alloc, load); err != nil {
		f.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.server = server.ServeConfig(ln, c, server.Config{Loader: load})
	for i := 0; i < nClients; i++ {
		cl, err := server.DialOptions(ln.Addr().String(), server.ClientOptions{
			Protocol: 2, MaxRetries: -1, BreakerThreshold: -1, Seed: int64(i + 1),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

// setupTimes runs build (a complete set-up of the system under test)
// sz.setups times, closing all but the last, and returns the last
// fixture with every set-up's duration.
func setupTimes(sz sizes, build func() (*fixture, error)) (*fixture, []float64, error) {
	var (
		last  *fixture
		times []float64
	)
	for i := 0; i < sz.setups; i++ {
		if i > 0 {
			last.close()
			// The discarded system's heap must not be collected
			// inside the next set-up's (or the window's) time.
			runtime.GC()
		}
		t0 := time.Now()
		f, err := build()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = f
	}
	return last, times, nil
}

// replicaChecksumErrors compares every table on every backend with the
// expected checksums (want nil: with the first replica found) and
// returns one message per disagreement.
func replicaChecksumErrors(c *cluster.Cluster, want map[string]uint64) []string {
	var errs []string
	seen := map[string]uint64{}
	for t, sum := range want {
		seen[t] = sum
	}
	for i := 0; i < c.NumBackends(); i++ {
		for _, t := range c.Tables(i) {
			sum, err := c.Backend(i).TableChecksum(t)
			if err != nil {
				errs = append(errs, fmt.Sprintf("backend %d table %s: %v", i, t, err))
				continue
			}
			if prev, ok := seen[t]; !ok {
				seen[t] = sum
			} else if prev != sum {
				errs = append(errs, fmt.Sprintf("backend %d table %s: checksum %x differs from %x", i, t, sum, prev))
			}
		}
	}
	sort.Strings(errs)
	return errs
}
