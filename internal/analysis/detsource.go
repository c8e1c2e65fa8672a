package analysis

import (
	"go/ast"
	"go/types"
)

// DetSource forbids nondeterministic inputs in determinism-critical
// packages: wall-clock reads (time.Now, time.Since, time.Until) and the
// global math/rand source (rand.Intn and friends draw from a shared,
// unseedable-per-run stream; math/rand/v2's top-level functions are
// seeded from runtime entropy by construction).
//
// Deterministic alternatives: thread an explicit seed and build a local
// stream (rand.New(rand.NewSource(seed)), or the O(1)-seed splitmix64
// streams in internal/core used by the parallel memetic solver); bound
// a search by a count of its own work (lp.MIPOptions.MaxNodes), not by
// a deadline.
//
// Only *calls* are flagged: storing time.Now as the default of an
// injectable clock option (o.Now = time.Now) reads no clock, and every
// read then goes through the injection point that tests replace.
// Like detrange, coverage is per file: every file of a det-critical
// package, plus any file opting in with //qcpa:deterministic.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "forbids wall-clock reads and the global math/rand source in determinism-critical files",
	Run:  runDetSource,
}

// globalRandFuncs are the math/rand top-level functions that draw from
// the process-global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// globalRandV2Funcs is the math/rand/v2 equivalent set.
var globalRandV2Funcs = map[string]bool{
	"Int": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "N": true,
}

// wallClockFuncs are the time package's wall-clock reads. Since and
// Until call Now internally, so they are just as nondeterministic.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDetSource(pass *Pass) error {
	for _, file := range pass.Files {
		if !pass.fileDetCritical(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods like t.Sub have a
			// receiver and are deterministic given their inputs.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "wall-clock read time.%s in a determinism-critical package: results must be reproducible across runs; inject the clock (now func() time.Time) or move timing to the caller", fn.Name())
				}
			case "math/rand":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "global math/rand source (rand.%s) in a determinism-critical package: draw from an explicitly seeded stream (rand.New(rand.NewSource(seed)) or core's splitmix64 streams) so results are reproducible", fn.Name())
				}
			case "math/rand/v2":
				if globalRandV2Funcs[fn.Name()] {
					pass.Reportf(sel.Pos(), "global math/rand/v2 source (rand.%s) in a determinism-critical package: draw from an explicitly seeded stream so results are reproducible", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
