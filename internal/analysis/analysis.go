// Package analysis implements qcpa-lint: a suite of static analyzers
// that enforce the repo's determinism, concurrency, and invariant
// contracts at compile time instead of hoping runtime tests trip over
// violations.
//
// The API mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) so the suite could be rehosted on the upstream framework
// verbatim, but it is implemented on the standard library alone:
// packages are loaded with `go list -export` plus go/types' gc export
// importer (see load.go), which works offline and adds no module
// dependency.
//
// Per-package analyzers:
//
//   - detrange:    range over a map in a determinism-critical file (a
//     det-critical package, or a //qcpa:deterministic opt-in) must be
//     provably order-insensitive or carry a //qcpa:orderinsensitive
//     waiver.
//   - detsource:   wall-clock reads and the global math/rand source are
//     forbidden in determinism-critical files.
//   - atomicfield: struct fields must not mix atomic and plain access,
//     and word-sized atomics must use the typed sync/atomic
//     values (alignment by construction).
//
// Whole-program analyzers, over the call graph of every loaded package:
//
//   - lockgraph:   functions annotated //qcpa:locks <mu> may only be
//     called with that mutex held (also through unannotated helpers);
//     no lock-order cycles; no re-lock of a held mutex.
//   - ctxflow:     a function given a context must pass it on.
//   - leakcheck:   every spawned goroutine has a way to stop.
//   - viewmutate:  //qcpa:published values are never written after
//     publication.
//
// The contract, the waiver syntax, and how to run the suite locally are
// documented in DESIGN.md §9.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately
// matches golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The driver consults it; test harnesses
	// bypass it so testdata packages are always analyzed.
	AppliesTo func(pkgPath string) bool
	// Run performs the check on one package. Exactly one of Run and
	// RunProgram is set.
	Run func(*Pass) error
	// RunProgram, when set, marks a whole-program analyzer: the driver
	// calls it once with every loaded package and the call graph
	// connecting them, instead of once per package.
	RunProgram func(*ProgramPass) error
}

// A ProgramPass carries one whole-program analyzer's view of the
// loaded program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	directives *directives // lazily built comment-directive index
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suite returns every analyzer, in the order the driver runs them:
// the three per-package phase-1 analyzers followed by the four
// whole-program phase-2 analyzers.
func Suite() []*Analyzer {
	return []*Analyzer{
		DetRange, DetSource, AtomicField,
		LockGraph, CtxFlow, LeakCheck, ViewMutate,
	}
}

// detCriticalPrefixes are the import paths (and subtrees) whose results
// must be bit-identical across runs, worker counts, and map-iteration
// orders: the partitioning/allocation core, the workload generators,
// and the experiment harness that turns them into paper figures.
var detCriticalPrefixes = []string{
	"qcpa/internal/core",
	"qcpa/internal/classify",
	"qcpa/internal/matching",
	"qcpa/internal/lp",
	"qcpa/internal/experiments",
	"qcpa/internal/sim",
	"qcpa/internal/workload",
}

// DetCritical reports whether the package at path is bound by the
// determinism contract (detrange, detsource).
func DetCritical(path string) bool {
	for _, p := range detCriticalPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// qcpa comment directives.
//
//	//qcpa:orderinsensitive <reason>   waives detrange for the range
//	                                   statement on the same or next line
//	//qcpa:locks <mutex>               declares (on a function's doc
//	                                   comment) that the function must be
//	                                   called with <mutex> held
//	//qcpa:deterministic <reason>      opts a whole file into the
//	                                   determinism contract (detrange,
//	                                   detsource) even when its package
//	                                   is not det-critical — e.g. the
//	                                   sqlmini planner, whose plans must
//	                                   be identical on every replica
//	//qcpa:daemon <reason>             waives leakcheck for the go
//	                                   statement on the same or next
//	                                   line: the goroutine is a named
//	                                   process-lifetime daemon
//	//qcpa:background <reason>         waives ctxflow for a
//	                                   context.Background()/TODO() call
//	                                   on a request path (legitimate
//	                                   lifecycle root)
//	//qcpa:nocancel <reason>           waives ctxflow for a call site
//	                                   that deliberately drops the
//	                                   request context into a blocking
//	                                   callee
//	//qcpa:published <reason>          declares (on a type declaration)
//	                                   that values are immutable once
//	                                   published: viewmutate flags any
//	                                   write outside the builder
//	//qcpa:lazycache <reason>          declares (on a type declaration)
//	                                   a mutex-serialized, idempotent
//	                                   lazy cache: writes through it are
//	                                   exempt from viewmutate
const (
	dirOrderInsensitive = "orderinsensitive"
	dirLocks            = "locks"
	dirDeterministic    = "deterministic"
	dirDaemon           = "daemon"
	dirBackground       = "background"
	dirNoCancel         = "nocancel"
	dirPublished        = "published"
	dirLazyCache        = "lazycache"
)

// fileDetCritical reports whether a file is bound by the determinism
// contract: its package is det-critical, or the file opts in with a
// //qcpa:deterministic directive anywhere in its comments.
func (p *Pass) fileDetCritical(f *ast.File) bool {
	if p.Pkg != nil && DetCritical(p.Pkg.Path()) {
		return true
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if dir, ok := parseDirective(c); ok && dir.name == dirDeterministic {
				return true
			}
		}
	}
	return false
}

type directive struct {
	name string // e.g. "orderinsensitive"
	args string // rest of the line, trimmed
	pos  token.Pos
}

// directives indexes //qcpa:* comments by file and line.
type directives struct {
	byLine map[string]map[int][]directive
}

// parseDirective splits a comment's text into a qcpa directive, if it
// is one. The comment must start exactly with "//qcpa:".
func parseDirective(c *ast.Comment) (directive, bool) {
	const prefix = "//qcpa:"
	if !strings.HasPrefix(c.Text, prefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	name, args, _ := strings.Cut(rest, " ")
	return directive{name: strings.TrimSpace(name), args: strings.TrimSpace(args), pos: c.Pos()}, true
}

// directivesOf lazily scans the pass's files for qcpa directives.
func (p *Pass) directivesOf() *directives {
	if p.directives != nil {
		return p.directives
	}
	d := &directives{byLine: make(map[string]map[int][]directive)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
			}
		}
	}
	p.directives = d
	return d
}

// waivedAt reports whether a directive with the given name appears on
// the same line as pos or on the line immediately above it (the two
// places a human naturally writes a waiver).
func (p *Pass) waivedAt(pos token.Pos, name string) bool {
	d := p.directivesOf()
	position := p.Fset.Position(pos)
	lines := d.byLine[position.Filename]
	for _, dir := range lines[position.Line] {
		if dir.name == name {
			return true
		}
	}
	for _, dir := range lines[position.Line-1] {
		if dir.name == name {
			return true
		}
	}
	return false
}

// funcLockDirective returns the mutex name a function declaration's doc
// comment binds with //qcpa:locks, or "".
func funcLockDirective(decl *ast.FuncDecl) string {
	if decl.Doc == nil {
		return ""
	}
	for _, c := range decl.Doc.List {
		if dir, ok := parseDirective(c); ok && dir.name == dirLocks && dir.args != "" {
			return strings.Fields(dir.args)[0]
		}
	}
	return ""
}

// isIntegerType reports whether t's underlying type is an integer
// (signed or unsigned, any width).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// mentionsObject reports whether expr references the given object.
func mentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
