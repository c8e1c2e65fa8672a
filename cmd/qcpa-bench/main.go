// Command qcpa-bench regenerates the paper's evaluation tables and
// figures (Section 4 and Section 5) as text tables, each followed by
// its one-line headline (id, metric name, value). Performance is
// measured by benchmark/, not here.
//
// Usage:
//
//	qcpa-bench                 # run the whole suite at default scale
//	qcpa-bench -quick          # small, fast configuration
//	qcpa-bench -run E01,E06    # selected experiments only
//	qcpa-bench -backends 10 -runs 10 -requests 8000
//
// Experiment ids follow DESIGN.md (E01..E22 figures, A1..A6 ablations).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qcpa/internal/experiments"
)

func main() {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		quick    = flag.Bool("quick", false, "small fast configuration")
		backends = flag.Int("backends", 0, "max backends to sweep (default 10)")
		runs     = flag.Int("runs", 0, "repetitions for deviation/histogram figures (default 10)")
		requests = flag.Int("requests", 0, "simulated requests per measurement (default 4000)")
		optMax   = flag.Int("optimal-max", 0, "largest cluster for the MILP sweep (default 4)")
		seed     = flag.Int64("seed", 1, "base RNG seed")
	)
	flag.Parse()

	opts := experiments.Options{Seed: *seed}
	if *quick {
		opts = experiments.Quick()
		opts.Seed = *seed
	}
	if *backends > 0 {
		opts.MaxBackends = *backends
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *requests > 0 {
		opts.Requests = *requests
	}
	if *optMax > 0 {
		opts.OptimalMaxBackends = *optMax
	}

	var want map[string]bool
	if !strings.EqualFold(*runList, "all") {
		want = map[string]bool{}
		for _, id := range strings.Split(*runList, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, e := range experiments.AllExperiments() {
		if want != nil && !want[e.ID] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		fmt.Printf("%-4s %s = %.6g   (%v)\n\n", e.ID, e.Metric, e.Value(tab), time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q; known ids:", *runList)
		for _, e := range experiments.AllExperiments() {
			fmt.Fprintf(os.Stderr, " %s", e.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
