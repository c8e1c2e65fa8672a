package analysis

// Whole-program call graph for the phase-2 interprocedural analyzers
// (lockgraph, ctxflow, leakcheck, viewmutate). The graph is built once
// per qcpa-lint invocation from every loaded root package and resolves,
// conservatively:
//
//   - static calls: an identifier or selector naming a function or
//     method declared anywhere in the program;
//   - interface dispatch: a call through an interface method fans out
//     to every declared method, on any type in the program, that
//     implements the interface and matches the method name (a sound
//     over-approximation — no points-to narrowing);
//   - indirect calls: a call through a function-typed value fans out to
//     every "address-taken" function (one referenced outside call
//     position, including method values) and every escaping function
//     literal whose signature matches the call site's;
//   - function literals: an immediately invoked literal is a normal
//     call edge; a literal that escapes (stored, passed, spawned) gets
//     a reference edge from its enclosing function, so reachability
//     still flows into it.
//
// The over-approximations (interface fan-out, signature-keyed indirect
// resolution) can only add edges, never drop them: analyses built on
// reachability (ctxflow) or on lock-acquisition summaries (lockgraph)
// stay conservative. DESIGN.md §9 documents the resulting caveats.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A FuncNode is one function body in the program: a declared function
// or method (Decl != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Obj  *types.Func   // declared functions/methods; nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Pkg  *Package

	// Calls are the node's outgoing call sites, in source order.
	Calls []*CallSite
	// enclosing is the node lexically containing a literal (nil for
	// declarations).
	enclosing *FuncNode
}

// Name returns a human-readable identifier: "pkg.Func",
// "pkg.(Type).Method", or "pkg.Parent$literal" for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		if recv := sigOf(n.Obj).Recv(); recv != nil {
			return n.Pkg.Types.Name() + ".(" + typeShortName(recv.Type()) + ")." + n.Obj.Name()
		}
		return n.Pkg.Types.Name() + "." + n.Obj.Name()
	}
	if n.enclosing != nil {
		return n.enclosing.Name() + "$literal"
	}
	return n.Pkg.Types.Name() + ".$literal"
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the node's statement block (nil for bodyless decls).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// FuncType returns the node's signature syntax.
func (n *FuncNode) FuncType() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	return n.Lit.Type
}

// HasContextParam reports whether the node's signature includes a
// context.Context parameter.
func (n *FuncNode) HasContextParam() bool {
	ft := n.FuncType()
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := n.Pkg.Info.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// A CallSite is one call expression inside a FuncNode.
type CallSite struct {
	Call *ast.CallExpr
	// Callees are the resolved targets declared in the program, sorted
	// by position (empty for calls into the standard library or fully
	// unresolvable indirect calls).
	Callees []*FuncNode
	// Go and Defer mark call sites spawned via a go statement or run at
	// return via defer: execution is decoupled from the call point.
	Go    bool
	Defer bool
	// Dynamic marks sites resolved by signature matching (indirect
	// calls) or interface fan-out rather than a static callee.
	Dynamic bool
}

// A Program is the whole-program view: every loaded package, every
// function body, and the call graph connecting them.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// Funcs holds every node in deterministic (position) order.
	Funcs []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// callers is the reverse call graph: for each node, the (caller,
	// site) pairs that can invoke it.
	callers map[*FuncNode][]CallerEdge

	// addrTaken maps signature keys to the declared functions whose
	// value escapes (referenced outside call position).
	addrTaken map[string][]*FuncNode
	// escapedLits maps signature keys to escaping literals.
	escapedLits map[string][]*FuncNode
	// methodsByName maps a method name to every declared method with
	// that name, for interface dispatch fan-out.
	methodsByName map[string][]*FuncNode

	dirs map[*Package]*directives // per-package directive indexes
	// typeDirs maps a named type object to the qcpa directives on its
	// type declaration's doc comment.
	typeDirs map[types.Object][]directive
}

// A CallerEdge is one incoming edge of the reverse call graph.
type CallerEdge struct {
	Caller *FuncNode
	Site   *CallSite
}

// FuncOf returns the node for a declared function object, or nil.
func (p *Program) FuncOf(obj *types.Func) *FuncNode { return p.byObj[obj] }

// Callers returns the reverse edges into n.
func (p *Program) Callers(n *FuncNode) []CallerEdge { return p.callers[n] }

// NewProgram indexes the packages and builds the call graph.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Packages:      pkgs,
		byObj:         make(map[*types.Func]*FuncNode),
		byLit:         make(map[*ast.FuncLit]*FuncNode),
		callers:       make(map[*FuncNode][]CallerEdge),
		addrTaken:     make(map[string][]*FuncNode),
		escapedLits:   make(map[string][]*FuncNode),
		methodsByName: make(map[string][]*FuncNode),
		dirs:          make(map[*Package]*directives),
		typeDirs:      make(map[types.Object][]directive),
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	// Pass 1: nodes for every declaration and literal, plus the
	// address-taken and type-directive indexes.
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	sort.Slice(p.Funcs, func(i, j int) bool { return p.Funcs[i].Pos() < p.Funcs[j].Pos() })
	for key := range p.addrTaken {
		sortNodes(p.addrTaken[key])
	}
	for key := range p.escapedLits {
		sortNodes(p.escapedLits[key])
	}
	for name := range p.methodsByName {
		sortNodes(p.methodsByName[name])
	}

	// Pass 2: resolve call sites.
	for _, n := range p.Funcs {
		p.resolveCalls(n)
	}
	for _, n := range p.Funcs {
		for _, site := range n.Calls {
			for _, callee := range site.Callees {
				p.callers[callee] = append(p.callers[callee], CallerEdge{Caller: n, Site: site})
			}
		}
	}
	return p
}

func sortNodes(ns []*FuncNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Pos() < ns[j].Pos() })
}

// indexPackage creates the package's nodes and side indexes.
func (p *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.ObjectOf(d.Name).(*types.Func)
				n := &FuncNode{Obj: obj, Decl: d, Pkg: pkg}
				p.Funcs = append(p.Funcs, n)
				if obj != nil {
					p.byObj[obj] = n
					if sigOf(obj).Recv() != nil {
						p.methodsByName[obj.Name()] = append(p.methodsByName[obj.Name()], n)
					}
				}
				if d.Body != nil {
					p.indexLits(pkg, n, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					obj := pkg.Info.ObjectOf(ts.Name)
					if obj == nil {
						continue
					}
					for _, cg := range []*ast.CommentGroup{d.Doc, ts.Doc, ts.Comment} {
						if cg == nil {
							continue
						}
						for _, c := range cg.List {
							if dir, ok := parseDirective(c); ok {
								p.typeDirs[obj] = append(p.typeDirs[obj], dir)
							}
						}
					}
				}
			}
		}
	}
	// Address-taken functions: any reference to a declared function
	// outside immediate call position.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if ok {
				// The callee expression itself is a use, not an escape;
				// arguments are visited independently below.
				for _, arg := range call.Args {
					p.markEscapes(pkg, arg)
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident, *ast.SelectorExpr:
					_ = fun
				default:
					p.markEscapes(pkg, call.Fun)
				}
				return false
			}
			if id, ok := node.(*ast.Ident); ok {
				p.markFuncEscape(pkg, id)
			}
			return true
		})
	}
}

// markEscapes records every function reference under expr as
// address-taken.
func (p *Program) markEscapes(pkg *Package, expr ast.Expr) {
	ast.Inspect(expr, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			// Nested call: its own callee is again a use, not an escape.
			for _, arg := range call.Args {
				p.markEscapes(pkg, arg)
			}
			switch call.Fun.(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				p.markEscapes(pkg, call.Fun)
			}
			return false
		}
		if id, ok := node.(*ast.Ident); ok {
			p.markFuncEscape(pkg, id)
		}
		return true
	})
}

func (p *Program) markFuncEscape(pkg *Package, id *ast.Ident) {
	f, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	n := p.byObj[f]
	if n == nil {
		return
	}
	key := sigKey(sigOf(f))
	for _, existing := range p.addrTaken[key] {
		if existing == n {
			return
		}
	}
	p.addrTaken[key] = append(p.addrTaken[key], n)
}

// indexLits creates nodes for every literal nested under body,
// recording the enclosing node of each.
func (p *Program) indexLits(pkg *Package, encl *FuncNode, body *ast.BlockStmt) {
	var walk func(node ast.Node, parent *FuncNode)
	walk = func(node ast.Node, parent *FuncNode) {
		ast.Inspect(node, func(nd ast.Node) bool {
			lit, ok := nd.(*ast.FuncLit)
			if !ok {
				return true
			}
			n := &FuncNode{Lit: lit, Pkg: pkg, enclosing: parent}
			p.Funcs = append(p.Funcs, n)
			p.byLit[lit] = n
			walk(lit.Body, n)
			return false
		})
	}
	walk(body, encl)
}

// resolveCalls fills n.Calls from n's own body, not
// descending into nested literals (those are their own nodes).
func (p *Program) resolveCalls(n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	inspectOwn(body, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.GoStmt:
			goCalls[s.Call] = true
		case *ast.DeferStmt:
			deferCalls[s.Call] = true
		case *ast.CallExpr:
			site := p.resolveSite(n, s)
			site.Go = goCalls[s]
			site.Defer = deferCalls[s]
			n.Calls = append(n.Calls, site)
		case *ast.FuncLit:
			// Reached only for the immediate child literal: it escapes
			// unless it is immediately invoked (then resolveSite
			// already linked it).
			lit := p.byLit[s]
			if lit != nil && !isImmediateCall(body, s) {
				p.escapedLits[sigKeyOfLit(n.Pkg, s)] = append(p.escapedLits[sigKeyOfLit(n.Pkg, s)], lit)
			}
		}
	})
}

// isImmediateCall reports whether lit appears as the Fun of a call
// (including go/defer) somewhere in body.
func isImmediateCall(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	found := false
	inspectOwnLits(body, func(node ast.Node) {
		if call, ok := node.(*ast.CallExpr); ok && call.Fun == lit {
			found = true
		}
	})
	return found
}

// resolveSite resolves one call expression's callees.
func (p *Program) resolveSite(n *FuncNode, call *ast.CallExpr) *CallSite {
	site := &CallSite{Call: call}
	info := n.Pkg.Info

	// Immediately invoked literal.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		if ln := p.byLit[lit]; ln != nil {
			site.Callees = []*FuncNode{ln}
		}
		return site
	}

	// Conversions (T(x)) type-check as calls; skip them.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return site
	}

	if callee := staticCallee(info, call); callee != nil {
		if iface := interfaceRecv(callee); iface != nil {
			// Interface dispatch: every implementing declared method.
			site.Dynamic = true
			for _, m := range p.methodsByName[callee.Name()] {
				if implementsFor(m, iface) {
					site.Callees = append(site.Callees, m)
				}
			}
			return site
		}
		if target := p.byObj[callee]; target != nil {
			site.Callees = []*FuncNode{target}
		}
		return site
	}

	// Indirect call through a function value: match by signature
	// against everything address-taken plus escaping literals.
	sig, ok := typeOfCallFun(info, call)
	if !ok {
		return site
	}
	site.Dynamic = true
	key := sigKey(sig)
	site.Callees = append(site.Callees, p.addrTaken[key]...)
	site.Callees = append(site.Callees, p.escapedLits[key]...)
	sortNodes(site.Callees)
	return site
}

func typeOfCallFun(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// staticCallee resolves the *types.Func a call's Fun names, or nil for
// indirect calls and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// interfaceRecv returns the interface a method is declared on, or nil
// for concrete methods and plain functions.
func interfaceRecv(f *types.Func) *types.Interface {
	recv := sigOf(f).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// implementsFor reports whether method node m's receiver type (or a
// pointer to it) implements iface.
func implementsFor(m *FuncNode, iface *types.Interface) bool {
	recv := sigOf(m.Obj).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// sigOf returns a function object's signature. ((*types.Func).Signature
// needs go1.23; the module language version is go1.22.)
func sigOf(f *types.Func) *types.Signature {
	return f.Type().(*types.Signature)
}

// sigKey canonicalizes a signature (ignoring any receiver and parameter
// names) for indirect-call matching.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(params.At(i).Type(), nil))
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(results.At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

func sigKeyOfLit(pkg *Package, lit *ast.FuncLit) string {
	if t := pkg.Info.TypeOf(lit); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			return sigKey(sig)
		}
	}
	return "?"
}

// inspectOwn walks a function body's own statements and expressions,
// not descending into nested function literals (whose bodies belong to
// their own nodes). The literal node itself IS visited, so callers see
// escapes and immediate invocations.
func inspectOwn(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		fn(node)
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// inspectOwnLits is inspectOwn without the literal cutoff (full
// subtree).
func inspectOwnLits(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		fn(node)
		return true
	})
}

// directivesIn lazily builds the directive index for one package.
func (p *Program) directivesIn(pkg *Package) *directives {
	if d, ok := p.dirs[pkg]; ok {
		return d
	}
	d := &directives{byLine: make(map[string]map[int][]directive)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
			}
		}
	}
	p.dirs[pkg] = d
	return d
}

// WaivedAt reports whether a directive with the given name appears on
// the same line as pos or the line immediately above, in pkg.
func (p *Program) WaivedAt(pkg *Package, pos token.Pos, name string) bool {
	d := p.directivesIn(pkg)
	position := pkg.Fset.Position(pos)
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

// TypeDirective returns the first directive with the given name on the
// type declaration of obj, if any.
func (p *Program) TypeDirective(obj types.Object, name string) (directive, bool) {
	for _, dir := range p.typeDirs[obj] {
		if dir.name == name {
			return dir, true
		}
	}
	return directive{}, false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// typeShortName renders a receiver type compactly: "*Cluster",
// "Engine".
func typeShortName(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return "*" + typeShortName(ptr.Elem())
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
