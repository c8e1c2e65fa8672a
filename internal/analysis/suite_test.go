package analysis_test

import (
	"testing"

	"qcpa/internal/analysis"
	"qcpa/internal/analysis/analysistest"
)

func TestDetRange(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetRange, "detrange")
}

func TestDetSource(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetSource, "detsource")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AtomicField, "atomicfield")
}

func TestLockGraph(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockGraph, "lockgraph")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow")
}

func TestLeakCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LeakCheck, "leakcheck")
}

func TestViewMutate(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ViewMutate, "viewmutate")
}

func TestDetCritical(t *testing.T) {
	critical := []string{
		"qcpa/internal/core",
		"qcpa/internal/classify",
		"qcpa/internal/matching",
		"qcpa/internal/lp",
		"qcpa/internal/experiments",
		"qcpa/internal/sim",
		"qcpa/internal/workload",
		"qcpa/internal/workload/tpch",
		"qcpa/internal/workload/tpcapp",
		"qcpa/internal/workload/trace",
	}
	for _, p := range critical {
		if !analysis.DetCritical(p) {
			t.Errorf("DetCritical(%q) = false, want true", p)
		}
	}
	exempt := []string{
		"qcpa/internal/cluster",
		"qcpa/internal/runtime/metrics",
		"qcpa/internal/analysis",
		"qcpa/cmd/qcpa-lint",
		"qcpa/internal/corefoo", // prefix match must respect path boundaries
	}
	for _, p := range exempt {
		if analysis.DetCritical(p) {
			t.Errorf("DetCritical(%q) = true, want false", p)
		}
	}
}

func TestSuite(t *testing.T) {
	suite := analysis.Suite()
	if len(suite) != 7 {
		t.Fatalf("Suite() has %d analyzers, want 7", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q missing name or doc", a.Name)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunProgram", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	perPkg := []string{"detrange", "detsource", "atomicfield"}
	program := []string{"lockgraph", "ctxflow", "leakcheck", "viewmutate"}
	for _, want := range append(perPkg, program...) {
		if !seen[want] {
			t.Errorf("Suite() missing analyzer %q", want)
		}
	}
	for _, a := range suite {
		isProgram := false
		for _, name := range program {
			if a.Name == name {
				isProgram = true
			}
		}
		if isProgram && a.RunProgram == nil {
			t.Errorf("analyzer %q should be whole-program (RunProgram)", a.Name)
		}
		if !isProgram && a.Run == nil {
			t.Errorf("analyzer %q should be per-package (Run)", a.Name)
		}
	}
}
