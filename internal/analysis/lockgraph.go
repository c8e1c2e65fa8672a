package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockGraph checks the locking contract over the whole program. It
// builds a global lock-acquisition graph over every loaded package and
// the call graph connecting them, and reports:
//
//   - lock-order cycles: mutex A held while acquiring B somewhere, B
//     held while acquiring A somewhere else (directly or through any
//     chain of synchronous calls) — a potential deadlock, found before
//     any schedule ever exercises it;
//   - interprocedural contract violations: a call to a //qcpa:locks-
//     annotated function from a context where the mutex is not provably
//     held, where "provably" includes inference through unannotated
//     intermediaries (a private helper whose every caller holds the
//     mutex inherits that fact);
//   - re-locks: Lock on a mutex that is held on every path reaching it
//     ("double lock"), or that the function's own annotation or every
//     caller says is held when it starts ("deadlock on entry");
//   - unresolvable annotations: a //qcpa:locks directive whose mutex
//     name matches no field of the receiver type (resolved through
//     embedding), no unique mutex field in the package, and no
//     package-level mutex.
//
// Mutex identity is type-qualified — pkg.Type.field for struct fields
// (resolved through embedded structs and promoted sync.Mutex methods),
// pkg.name for package-level mutexes. Function-local mutexes are
// per-instance and excluded. Two instances of the same field (a.mu and
// b.mu) share a node; self-edges are therefore ignored rather than
// reported as cycles (instance-order deadlocks among siblings are out
// of scope, see DESIGN.md §9), and nesting two instances reads as a
// re-lock.
var LockGraph = &Analyzer{
	Name:       "lockgraph",
	Doc:        "global lock-acquisition graph: deadlock cycles and interprocedural //qcpa:locks validation",
	RunProgram: runLockGraph,
}

type lockGraphState struct {
	pass *ProgramPass
	prog *Program

	// contracts maps each annotated node to its resolved mutex id; bare
	// keeps the annotation's literal spelling for messages.
	contracts map[*FuncNode]string
	bare      map[*FuncNode]string

	// entries is the inferred "held on entry" set per node.
	entries map[*FuncNode]map[string]bool
	// heldAt snapshots the held set at every synchronous call site.
	heldAt map[*ast.CallExpr]map[string]bool
	// acquires is the per-node set of mutexes the node may lock
	// directly; acqStar adds everything its synchronous callees may.
	acquires map[*FuncNode]map[string]bool
	acqStar  map[*FuncNode]map[string]bool

	// edges collects the acquisition graph, first witness per pair.
	edges map[[2]string]token.Pos

	// display maps mutex ids to the short, package-name-based form used
	// in messages.
	display map[string]string
}

func runLockGraph(pass *ProgramPass) error {
	st := &lockGraphState{
		pass:      pass,
		prog:      pass.Prog,
		contracts: make(map[*FuncNode]string),
		bare:      make(map[*FuncNode]string),
		entries:   make(map[*FuncNode]map[string]bool),
		heldAt:    make(map[*ast.CallExpr]map[string]bool),
		acquires:  make(map[*FuncNode]map[string]bool),
		acqStar:   make(map[*FuncNode]map[string]bool),
		edges:     make(map[[2]string]token.Pos),
		display:   make(map[string]string),
	}
	st.collectContracts()
	st.inferEntries()
	st.finalPass()
	st.checkCycles()
	return nil
}

// collectContracts resolves every //qcpa:locks annotation to a
// qualified mutex id, reporting annotations that resolve to nothing.
func (st *lockGraphState) collectContracts() {
	for _, n := range st.prog.Funcs {
		if n.Decl == nil {
			continue
		}
		bare := funcLockDirective(n.Decl)
		if bare == "" {
			continue
		}
		ref, ok := st.resolveContract(n, bare)
		if !ok {
			st.pass.Reportf(n.Decl.Pos(), "//qcpa:locks %s: %q does not resolve to a mutex field of the receiver (through embedding), a unique mutex field in package %s, or a package-level mutex", bare, bare, n.Pkg.Types.Name())
			continue
		}
		st.contracts[n] = ref
		st.bare[n] = bare
		st.entries[n] = map[string]bool{ref: true}
	}
}

// resolveContract maps an annotation's bare mutex name to a qualified
// id: a field of the receiver type (resolved through embedding), a
// package-level mutex, or a unique mutex field among the package's
// struct types.
func (st *lockGraphState) resolveContract(n *FuncNode, bare string) (string, bool) {
	pkg := n.Pkg
	// Receiver field, resolved through embedded structs.
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
		if rt := pkg.Info.TypeOf(n.Decl.Recv.List[0].Type); rt != nil {
			obj, index, _ := types.LookupFieldOrMethod(rt, true, pkg.Types, bare)
			if v, ok := obj.(*types.Var); ok && v.IsField() && isMutexType(v.Type()) {
				if id := st.fieldID(rt, index); id != "" {
					return id, true
				}
			}
		}
	}
	// Package-level mutex variable.
	if obj := pkg.Types.Scope().Lookup(bare); obj != nil {
		if v, ok := obj.(*types.Var); ok && isMutexType(v.Type()) {
			return st.intern(pkg.Types.Path()+"."+bare, pkg.Types.Name()+"."+bare), true
		}
	}
	// Unique mutex field of that name among the package's structs (the
	// cluster convention: backend methods annotated with the cluster's
	// dispatchMu).
	var owners []string
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		structT, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < structT.NumFields(); i++ {
			f := structT.Field(i)
			if f.Name() == bare && isMutexType(f.Type()) {
				owners = append(owners, tn.Name())
			}
		}
	}
	if len(owners) == 1 {
		return st.intern(pkg.Types.Path()+"."+owners[0]+"."+bare, pkg.Types.Name()+"."+owners[0]+"."+bare), true
	}
	return "", false
}

// fieldID qualifies the field reached from root type t through the
// lookup index path, naming the struct type that declares it.
func (st *lockGraphState) fieldID(t types.Type, index []int) string {
	owner := ""
	pkgPath, pkgName := "", ""
	field := ""
	for _, i := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			owner = named.Obj().Name()
			if named.Obj().Pkg() != nil {
				pkgPath = named.Obj().Pkg().Path()
				pkgName = named.Obj().Pkg().Name()
			}
		}
		structT, ok := t.Underlying().(*types.Struct)
		if !ok || i >= structT.NumFields() {
			return ""
		}
		f := structT.Field(i)
		field = f.Name()
		t = f.Type()
	}
	if owner == "" || field == "" {
		return ""
	}
	return st.intern(pkgPath+"."+owner+"."+field, pkgName+"."+owner+"."+field)
}

func (st *lockGraphState) intern(id, display string) string {
	st.display[id] = display
	return id
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// resolveLockSite classifies a call as a mutex acquire (+1) or release
// (-1) and returns the qualified mutex id ("" for local mutexes, which
// are per-instance and untracked).
func (st *lockGraphState) resolveLockSite(pkg *Package, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	op := 0
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = 1
	case "Unlock", "RUnlock":
		op = -1
	default:
		return "", 0
	}
	// Direct receiver: x.mu.Lock().
	if t := pkg.Info.TypeOf(sel.X); t != nil && isMutexType(t) {
		return st.qualifyMutexExpr(pkg, sel.X), op
	}
	// Promoted from an embedded mutex: x.Lock().
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if f, ok := s.Obj().(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "sync" {
			index := s.Index()
			if len(index) > 1 {
				return st.fieldID(s.Recv(), index[:len(index)-1]), op
			}
		}
	}
	return "", 0
}

// qualifyMutexExpr qualifies the mutex expression of a Lock/Unlock
// receiver chain: a struct field (by declaring type), a package-level
// variable, or "" for locals.
func (st *lockGraphState) qualifyMutexExpr(pkg *Package, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// Package-qualified variable: pkgname.mu.
		if base, ok := e.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[base].(*types.PkgName); ok {
				imported := pn.Imported()
				return st.intern(imported.Path()+"."+e.Sel.Name, imported.Name()+"."+e.Sel.Name)
			}
		}
		// Struct field: resolve the declaring struct through the
		// selection's index path (handles embedding).
		if s, ok := pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return st.fieldID(s.Recv(), s.Index())
		}
		return ""
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return st.intern(obj.Pkg().Path()+"."+obj.Name(), obj.Pkg().Name()+"."+obj.Name())
		}
		return "" // local or parameter: per-instance
	}
	return ""
}

// nonInferable reports whether a node's entry set must stay at its
// annotation only: it is callable from outside the analyzed program or
// through edges whose held state is unknown.
func (st *lockGraphState) nonInferable(n *FuncNode) bool {
	if n.Decl != nil {
		name := n.Decl.Name.Name
		if ast.IsExported(name) || name == "main" || name == "init" {
			return true
		}
	}
	edges := st.prog.Callers(n)
	if len(edges) == 0 {
		return true
	}
	for _, e := range edges {
		if e.Site.Go || e.Site.Defer || e.Site.Dynamic {
			return true
		}
	}
	// Address-taken functions run from unknown contexts.
	if n.Obj != nil {
		key := sigKey(sigOf(n.Obj))
		for _, taken := range st.prog.addrTaken[key] {
			if taken == n {
				return true
			}
		}
	}
	if n.Lit != nil {
		// Escaping literals run from unknown contexts; immediately
		// invoked ones have ordinary call edges and were handled above.
		key := sigKeyOfLit(n.Pkg, n.Lit)
		for _, lit := range st.prog.escapedLits[key] {
			if lit == n {
				return true
			}
		}
	}
	return false
}

// inferEntries computes each node's held-on-entry set: its annotation,
// plus (for private, statically called nodes) the intersection of the
// held sets at every incoming call site — the interprocedural step that
// lets an unannotated helper inherit "every caller holds mu". The
// sequence is monotone increasing and bounded, so it converges.
func (st *lockGraphState) inferEntries() {
	for iter := 0; iter < 20; iter++ {
		st.heldAt = make(map[*ast.CallExpr]map[string]bool)
		for _, n := range st.prog.Funcs {
			st.flowNode(n, nil)
		}
		changed := false
		for _, n := range st.prog.Funcs {
			if st.nonInferable(n) {
				continue
			}
			var inter map[string]bool
			first := true
			for _, e := range st.prog.Callers(n) {
				held := st.heldAt[e.Site.Call]
				if first {
					inter = cloneSet(held)
					first = false
					continue
				}
				for id := range inter {
					if !held[id] {
						delete(inter, id)
					}
				}
			}
			entry := st.entries[n]
			for id := range inter {
				if !entry[id] {
					if entry == nil {
						entry = make(map[string]bool)
						st.entries[n] = entry
					}
					entry[id] = true
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// finalPass re-flows every node with the converged entry sets, this
// time recording acquisition edges and reporting contract violations.
func (st *lockGraphState) finalPass() {
	st.heldAt = make(map[*ast.CallExpr]map[string]bool)
	reports := &lockGraphReports{}
	for _, n := range st.prog.Funcs {
		st.flowNode(n, reports)
	}
	// Transitive acquisition summaries for interprocedural edges.
	st.computeAcqStar()
	for _, n := range st.prog.Funcs {
		for _, site := range n.Calls {
			if site.Go || site.Defer {
				continue
			}
			held := st.heldAt[site.Call]
			if len(held) == 0 {
				continue
			}
			for _, callee := range site.Callees {
				for to := range st.acqStar[callee] {
					for from := range held {
						st.addEdge(from, to, site.Call.Pos())
					}
				}
			}
		}
	}
	reports.emit(st.pass)
}

// computeAcqStar closes the per-node direct-acquisition sets over
// synchronous call edges.
func (st *lockGraphState) computeAcqStar() {
	for _, n := range st.prog.Funcs {
		st.acqStar[n] = cloneSet(st.acquires[n])
	}
	for changed := true; changed; {
		changed = false
		for _, n := range st.prog.Funcs {
			target := st.acqStar[n]
			for _, site := range n.Calls {
				if site.Go || site.Defer {
					continue
				}
				for _, callee := range site.Callees {
					for id := range st.acqStar[callee] {
						if !target[id] {
							target[id] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

func (st *lockGraphState) addEdge(from, to string, pos token.Pos) {
	if from == to {
		return // same qualified mutex: instance ordering is out of scope
	}
	key := [2]string{from, to}
	if old, ok := st.edges[key]; !ok || pos < old {
		st.edges[key] = pos
	}
}

// lockGraphReports batches contract findings so the inference pass can
// run silently first.
type lockGraphReports struct {
	items []Diagnostic
}

func (r *lockGraphReports) addf(pos token.Pos, format string, args ...any) {
	r.items = append(r.items, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

func (r *lockGraphReports) emit(pass *ProgramPass) {
	sort.Slice(r.items, func(i, j int) bool { return r.items[i].Pos < r.items[j].Pos })
	for _, d := range r.items {
		pass.Report(d)
	}
}

// flowNode runs the held-set dataflow over one node's own body.
// reports == nil during inference (collect heldAt only); in the final
// pass it receives contract violations.
func (st *lockGraphState) flowNode(n *FuncNode, reports *lockGraphReports) {
	body := n.Body()
	if body == nil {
		return
	}
	f := &lgFlow{st: st, node: n, reports: reports}
	f.block(body, cloneSet(st.entries[n]))
}

// cloneSet copies a held set; the copy of a nil set is empty, not nil.
func cloneSet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// lgFlow walks one body in control-flow order, tracking which qualified
// mutex ids are provably held. The tracking is conservative: branches
// merge by intersection (held only if held on every surviving path),
// loops keep the entry state unless the body changes it.
type lgFlow struct {
	st      *lockGraphState
	node    *FuncNode
	reports *lockGraphReports
}

func (f *lgFlow) block(b *ast.BlockStmt, held map[string]bool) {
	for _, s := range b.List {
		f.stmt(s, held)
	}
}

func (f *lgFlow) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			f.stmt(s.Init, held)
		}
		f.expr(s.Cond, held)
		thenHeld := cloneSet(held)
		f.block(s.Body, thenHeld)
		elseHeld := cloneSet(held)
		if s.Else != nil {
			f.stmt(s.Else, elseHeld)
		}
		var merge []map[string]bool
		if !terminates(s.Body) {
			merge = append(merge, thenHeld)
		}
		if s.Else == nil {
			merge = append(merge, elseHeld)
		} else if !stmtTerminates(s.Else) {
			merge = append(merge, elseHeld)
		}
		mergeInto(held, merge)
	case *ast.ForStmt:
		if s.Init != nil {
			f.stmt(s.Init, held)
		}
		if s.Cond != nil {
			f.expr(s.Cond, held)
		}
		bodyHeld := cloneSet(held)
		f.block(s.Body, bodyHeld)
		if s.Post != nil {
			f.stmt(s.Post, bodyHeld)
		}
		intersectInto(held, bodyHeld)
	case *ast.RangeStmt:
		f.expr(s.X, held)
		bodyHeld := cloneSet(held)
		f.block(s.Body, bodyHeld)
		intersectInto(held, bodyHeld)
	case *ast.SwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init, held)
		}
		if s.Tag != nil {
			f.expr(s.Tag, held)
		}
		f.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init, held)
		}
		f.clauses(s.Body, held)
	case *ast.SelectStmt:
		f.clauses(s.Body, held)
	case *ast.BlockStmt:
		f.block(s, held)
	case *ast.GoStmt:
		f.call(s.Call, map[string]bool{}, true)
	case *ast.DeferStmt:
		// Deferred Unlocks keep the mutex held for the rest of the
		// body; other deferred calls run at return with unknown state.
		if id, op := f.st.resolveLockSite(f.node.Pkg, s.Call); op == -1 && id != "" {
			return
		}
		f.call(s.Call, map[string]bool{}, true)
	case *ast.LabeledStmt:
		f.stmt(s.Stmt, held)
	default:
		// A statement without nested blocks: every call in it, in
		// source order.
		f.expr(s, held)
	}
}

func mergeInto(held map[string]bool, branches []map[string]bool) {
	if len(branches) == 0 {
		return // all branches terminate
	}
	merged := branches[0]
	for _, b := range branches[1:] {
		intersectInto(merged, b)
	}
	for k := range held {
		held[k] = merged[k]
	}
	for k, v := range merged {
		// Propagating locks held in all branches: order-insensitive.
		held[k] = v
	}
}

func intersectInto(held, other map[string]bool) {
	for k, v := range held {
		if v && !other[k] {
			held[k] = false
		}
	}
}

// terminates reports whether a block always transfers control away
// (return, branch, panic) at its end.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}

func (f *lgFlow) clauses(b *ast.BlockStmt, held map[string]bool) {
	var merge []map[string]bool
	hasDefault := false
	for _, cl := range b.List {
		clHeld := cloneSet(held)
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				f.expr(e, held)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				f.stmt(cl.Comm, clHeld)
			}
			body = cl.Body
		}
		terminated := false
		for _, s := range body {
			f.stmt(s, clHeld)
			if stmtTerminates(s) {
				terminated = true
			}
		}
		if !terminated {
			merge = append(merge, clHeld)
		}
	}
	if !hasDefault {
		merge = append(merge, cloneSet(held))
	}
	mergeInto(held, merge)
}

func (f *lgFlow) expr(e ast.Node, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f.call(n, held, false)
			return true
		case *ast.FuncLit:
			return false // a separate node with its own entry set
		}
		return true
	})
}

// call processes one call site: lock-state transitions, held-set
// snapshots for inference, acquisition edges, and contract checks.
func (f *lgFlow) call(call *ast.CallExpr, held map[string]bool, detached bool) {
	st := f.st
	if id, op := st.resolveLockSite(f.node.Pkg, call); op != 0 {
		if id == "" {
			return // local mutex: per-instance, untracked
		}
		if op == 1 {
			if !detached {
				if f.reports != nil {
					if held[id] {
						what := "locked while already held on every path here: double lock"
						if st.entries[f.node][id] {
							what = "held on entry (//qcpa:locks, or every caller holds it) and locked again here: deadlock on entry"
						}
						f.reports.addf(call.Pos(), "%s is %s", st.display[id], what)
					}
					for from, h := range held {
						if h {
							st.addEdge(from, id, call.Pos())
						}
					}
				}
				acq := st.acquires[f.node]
				if acq == nil {
					acq = make(map[string]bool)
					st.acquires[f.node] = acq
				}
				acq[id] = true
				held[id] = true
			}
		} else if !detached {
			held[id] = false
		}
		return
	}

	// Snapshot for entry inference (synchronous sites only; detached
	// sites pass the empty set they were given).
	snapshot := make(map[string]bool)
	for k, v := range held {
		if v {
			// Held-set snapshot copy: order-insensitive.
			snapshot[k] = true
		}
	}
	st.heldAt[call] = snapshot

	if f.reports == nil {
		return
	}
	// Contract checks against every resolved callee.
	callee := staticCallee(f.node.Pkg.Info, call)
	if callee == nil {
		return
	}
	target := st.prog.FuncOf(callee)
	if target == nil || target == f.node {
		return
	}
	id, ok := st.contracts[target]
	if !ok {
		return
	}
	if !snapshot[id] {
		where := "not provably held on any path reaching this call"
		if detached {
			where = "never held in a goroutine/deferred call"
		}
		f.reports.addf(call.Pos(), "call to %s requires %s held (//qcpa:locks %s) but it is %s: lock it, call from a holder, or annotate the caller", callee.Name(), st.display[id], st.bare[target], where)
	}
}

// checkCycles finds strongly connected components of the acquisition
// graph and reports each as a potential deadlock.
func (st *lockGraphState) checkCycles() {
	// Deterministic adjacency.
	adj := make(map[string][]string)
	nodes := make([]string, 0)
	seen := make(map[string]bool)
	type edgeKey = [2]string
	keys := make([]edgeKey, 0, len(st.edges))
	for k := range st.edges {
		// Edge-key collection: sorted below before use.
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
		for _, n := range []string{k[0], k[1]} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	sccs := tarjanSCC(nodes, adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		// Build a readable witness: every SCC-internal edge with its
		// acquisition site.
		var parts []string
		var minPos token.Pos = -1
		for _, k := range keys {
			if !inSCC[k[0]] || !inSCC[k[1]] {
				continue
			}
			pos := st.edges[k]
			position := st.prog.Fset.Position(pos)
			parts = append(parts, fmt.Sprintf("%s -> %s at %s:%d", st.display[k[0]], st.display[k[1]], shortFile(position.Filename), position.Line))
			if minPos < 0 || pos < minPos {
				minPos = pos
			}
		}
		displays := make([]string, len(scc))
		for i, n := range scc {
			displays[i] = st.display[n]
		}
		st.pass.Reportf(minPos, "lock-order cycle among {%s}: potential deadlock (%s); impose a single acquisition order", strings.Join(displays, ", "), strings.Join(parts, "; "))
	}
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// tarjanSCC returns the strongly connected components of the graph in
// deterministic order.
func tarjanSCC(nodes []string, adj map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}
