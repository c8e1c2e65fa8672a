// Command benchmark is the repository's performance gate: four
// workloads over the request path (wire, admission, parse/bind, route,
// plan, execute, encode) and the reallocation path (classify, solve,
// match, migrate), measured end to end with tracing off and layer by
// layer in a separate traced run. README.md documents every metric.
//
//	go run ./benchmark                      all four workloads
//	go run ./benchmark -trace 1             the same, plus the per-layer run
//	go run ./benchmark -workload realloc    one workload; the last line of
//	                                        output is one JSON result object
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

var runners = map[string]func(runConfig) (*workloadResult, error){
	wlPoint:   runPoint,
	wlMixed:   runMixed,
	wlTPCH:    runTPCH,
	wlRealloc: runRealloc,
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print its result as one JSON object on the last line")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", windowSeconds, "the timed window the caller expects; it is fixed, and a run asked for another is refused")
		trace    = flag.Int("trace", 0, "1: also replay the depth ladder after the timed window, write the spans and report the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *seconds != windowSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: the timed window is %d s on every commit (BENCHMARK.json's run_seconds); -seconds %d is refused\n", windowSeconds, *seconds)
		os.Exit(2)
	}

	var names []string
	switch {
	case *workload == "":
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	case runners[*workload] != nil:
		names = []string{*workload}
	default:
		fatal("unknown workload %q", *workload)
	}

	cfg := runConfig{seed: *seed, window: windowSeconds * time.Second, trace: *trace == 1, sz: fullSizes}
	out := newResultFile(*seed, windowSeconds, cfg.trace)
	failed := false
	for _, name := range names {
		fmt.Printf("== %s (seed %d, %d s window, GOMAXPROCS %d)\n", name, *seed, windowSeconds, out.GOMAXPROCS)
		res, err := runners[name](cfg)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		out.Workloads = append(out.Workloads, *res)
		printWorkload(res)
		failed = failed || !res.Correct
	}

	path := fmt.Sprintf("%s/result-%d", outDir, *seed)
	if *workload != "" {
		path += "-" + *workload
	}
	if cfg.trace {
		path += "-trace"
	}
	if err := writeJSON(path+".json", out); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s.json\n", path)
	if *workload != "" {
		printDriverLine(&out.Workloads[0], cfg.trace)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// printWorkload prints every metric of one workload by name with its
// unit, sample count and, for end-to-end metrics, its regression bound.
func printWorkload(r *workloadResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("%s: %d requests attempted, %d failed, oracles %s\n", r.Name, r.Attempted, r.Failed, verdict)
	for _, msg := range r.OracleErrors {
		fmt.Printf("  oracle: %s\n", msg)
	}
	for _, m := range suiteMetrics {
		v, ok := r.EndToEnd[m.Name]
		if !ok {
			continue
		}
		bound := fmt.Sprintf("may worsen by %.0f%%", m.Bound*100)
		switch {
		case m.Exact:
			bound = "exact"
		case m.Demoted:
			bound = "demoted: not gated"
		}
		fmt.Printf("  %-20s %16.6g %-5s (%s is better, %s; n=%d, spread %.1f%%)\n",
			m.Name, v.Value, v.Unit, m.Better, bound, v.N, v.Spread*100)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Println("  per layer:")
	for _, m := range layerMetrics {
		v := r.PerLayer[m.Name]
		fmt.Printf("    %-40s %16.6g %-5s (n=%d)\n", m.Name, v.Value, v.Unit, v.N)
	}
}

// printDriverLine prints the one-workload result object: the metrics
// defined on every workload for an untraced run, every per-layer metric
// for a traced one.
func printDriverLine(r *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range layerMetrics {
			v := r.PerLayer[m.Name]
			metrics[m.Name] = value{v.Value, v.Unit}
		}
	} else {
		for _, m := range driverMetrics() {
			v := r.EndToEnd[m.Name]
			metrics[m.Name] = value{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}
