// Command tpch runs the read-only OLAP scenario of Section 4.1 at a
// small scale: the TPC-H workload is classified at table and column
// granularity, allocated with the greedy heuristic, the memetic
// improvement, and (for small clusters) the optimal MILP, and the
// resulting layouts are compared on degree of replication and simulated
// throughput against full replication.
package main

import (
	"fmt"
	"math/rand"

	"qcpa"
	"qcpa/internal/sim"
	"qcpa/internal/workload/tpch"
)

func main() {
	mix, err := tpch.Mix()
	if err != nil {
		panic(err)
	}
	journal := mix.Journal(10000)
	schema := tpch.Schema()
	rows := tpch.RowCounts(1)

	fmt.Println("TPC-H, 19 query classes (Q17/Q20/Q21 omitted per the paper)")
	for _, strat := range []qcpa.Strategy{qcpa.TableBased, qcpa.ColumnBased} {
		res, err := qcpa.ClassifyJournal(journal, schema, qcpa.ClassifyOptions{
			Strategy: strat, RowCounts: rows,
		})
		if err != nil {
			panic(err)
		}
		mix.Bind(res)
		cls := res.Classification
		fmt.Printf("\n=== %v classification: %d classes over %d fragments ===\n",
			strat, len(cls.Classes()), len(cls.Fragments()))

		for _, n := range []int{2, 5, 10} {
			greedy, err := qcpa.Allocate(cls, qcpa.UniformBackends(n), qcpa.AllocateOptions{})
			if err != nil {
				panic(err)
			}
			memetic, err := qcpa.Allocate(cls, qcpa.UniformBackends(n), qcpa.AllocateOptions{
				Solver: qcpa.SolverMemetic, Memetic: qcpa.MemeticOptions{Iterations: 15},
			})
			if err != nil {
				panic(err)
			}
			full := qcpa.FullReplication(cls, qcpa.UniformBackends(n))
			fmt.Printf("n=%2d  replication: full %.2f  greedy %.2f  memetic %.2f",
				n, full.DegreeOfReplication(), greedy.DegreeOfReplication(), memetic.DegreeOfReplication())

			// Simulated throughput with the cache model of Section 4.1.
			thr := func(a *qcpa.Allocation) float64 {
				r, err := qcpa.Simulate(qcpa.SimOptions{Alloc: a, CacheAlpha: 0.4, CacheBeta: 0.7},
					func(rng *rand.Rand) qcpa.SimRequest {
						req := mix.Next(rng)
						return qcpa.SimRequest{Class: req.Class, Cost: req.Cost * 0.08}
					}, 2000)
				if err != nil {
					panic(err)
				}
				return r.Throughput
			}
			fmt.Printf("   throughput: full %.2f  greedy %.2f q/s\n", thr(full), thr(greedy))
		}
	}

	// Optimal allocation on a small cluster (the MILP of Appendix B).
	res, err := qcpa.ClassifyJournal(journal, schema, qcpa.ClassifyOptions{
		Strategy: qcpa.TableBased, RowCounts: rows,
	})
	if err != nil {
		panic(err)
	}
	opt, err := qcpa.OptimalAllocation(res.Classification, qcpa.UniformBackends(3),
		qcpa.OptimalOptions{MaxNodes: 4000})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\noptimal (3 backends, table-based): scale %.3f replication %.2f (proven: scale=%v space=%v, %d nodes)\n",
		opt.Scale, opt.Allocation.DegreeOfReplication(), opt.ScaleProven, opt.SpaceProven, opt.Nodes)
	_ = sim.LeastPending // the simulator is also directly importable
}
