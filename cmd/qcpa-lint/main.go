// Command qcpa-lint runs the repo's static-analysis suite (see
// internal/analysis). Phase 1 checks each package in isolation —
// detrange, detsource, atomicfield — and phase 2 builds a
// whole-program call graph and runs the interprocedural analyzers:
// lockgraph (//qcpa:locks validation, deadlock cycles, re-locks), ctxflow
// (context propagation on request paths), leakcheck (goroutine
// termination), and viewmutate (publish-then-immutable views).
// Together they make the determinism and concurrency contracts of the
// partitioning pipeline structural instead of aspirational.
//
// Usage:
//
//	qcpa-lint [-run name[,name...]] [-json] [-parallel n] [-list] [packages ...]
//
// With no package patterns, ./... is analyzed. Analyzers run in
// parallel (bounded by -parallel, default GOMAXPROCS); output order is
// deterministic regardless. Exit status is 1 when any diagnostic is
// reported, 2 on usage or load errors. Diagnostics print as
// file:line:col: analyzer: message, ready for editors and CI
// annotations; -json emits the same findings as a JSON array (an empty
// run prints "[]"), which CI diffs against an empty baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"qcpa/internal/analysis"
)

// finding is one diagnostic, shaped for both text and JSON output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max analyzer jobs to run concurrently")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qcpa-lint [-run name[,name...]] [-json] [-parallel n] [-list] [packages ...]\n\nAnalyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "qcpa-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcpa-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcpa-lint: %v\n", err)
		os.Exit(2)
	}

	// Build the job list: one job per (package, per-package analyzer)
	// pair, plus one job per whole-program analyzer. The call graph is
	// built once, up front, and shared (it is read-only after
	// construction).
	var prog *analysis.Program
	for _, a := range suite {
		if a.RunProgram != nil {
			prog = analysis.NewProgram(pkgs)
			break
		}
	}

	var (
		mu       sync.Mutex
		findings []finding
		errs     []string
	)
	collect := func(name string, pkg *analysis.Package) func(analysis.Diagnostic) {
		return func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			mu.Lock()
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: name, Message: d.Message,
			})
			mu.Unlock()
		}
	}

	type job func()
	var jobs []job
	for _, a := range suite {
		a := a
		if a.RunProgram != nil {
			jobs = append(jobs, func() {
				pass := &analysis.ProgramPass{
					Analyzer: a,
					Prog:     prog,
					Report:   collect(a.Name, pkgs[0]),
				}
				if err := a.RunProgram(pass); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
					mu.Unlock()
				}
			})
			continue
		}
		for _, pkg := range pkgs {
			pkg := pkg
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			jobs = append(jobs, func() {
				pass := pkg.NewPass(a, collect(a.Name, pkg))
				if err := a.Run(pass); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s on %s: %v", a.Name, pkg.Path, err))
					mu.Unlock()
				}
			})
		}
	}

	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	queue := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j()
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()

	if len(errs) > 0 {
		sort.Strings(errs)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "qcpa-lint: %s\n", e)
		}
		os.Exit(2)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	for i := range findings {
		rel := findings[i].File
		if strings.HasPrefix(rel, cwd+string(os.PathSeparator)) {
			rel = rel[len(cwd)+1:]
		}
		findings[i].File = rel
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "qcpa-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "qcpa-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
