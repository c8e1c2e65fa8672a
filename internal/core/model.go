// Package core implements the query-centric partitioning and allocation
// model of Rabl and Jacobsen, "Query Centric Partitioning and Allocation
// for Partially Replicated Database Systems" (SIGMOD 2017).
//
// The package contains the formal model of Section 3 (fragments, query
// classes, allocations, load, scale, and speedup), the greedy first-fit
// allocation heuristic (Algorithm 1), its k-safe extension (Algorithm 4),
// the memetic meta-heuristic (Algorithm 2) with the local-search
// strategies of Eqs. 21-26, and the optimal MILP formulation of
// Appendix B.
//
// All weights in the model are relative: the weights of all query classes
// of a classification sum to 1, and the relative performance (load) of
// all backends of a cluster sums to 1. Fragment sizes are in arbitrary
// units (the same unit throughout a classification).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Eps is the tolerance used for floating point comparisons of weights and
// loads throughout the package.
const Eps = 1e-9

// FragmentID identifies a data fragment. Depending on the classification
// granularity a fragment is a table ("lineitem"), a column
// ("lineitem.l_quantity"), or a horizontal partition ("orders[0:1000)").
type FragmentID string

// Fragment is a unit of data placement: an identifier plus its size in
// arbitrary, classification-wide consistent units.
type Fragment struct {
	ID   FragmentID
	Size float64
}

// Kind distinguishes read query classes (C_Q in the paper) from update
// query classes (C_U).
type Kind uint8

const (
	// Read marks a query class consisting of read-only requests.
	Read Kind = iota
	// Update marks a query class consisting of data-modifying requests.
	Update
)

// String returns "read" or "update".
func (k Kind) String() string {
	if k == Update {
		return "update"
	}
	return "read"
}

// Class is a query class: a set of queries grouped by the data fragments
// they reference (Eq. 2), together with the class's relative share of the
// total workload cost (Eq. 4).
type Class struct {
	// Name identifies the class within its classification.
	Name string
	// Kind is Read or Update.
	Kind Kind
	// Weight is the fraction of the overall workload cost produced by
	// this class; the weights of all classes of a classification sum
	// to 1.
	Weight float64

	frags []FragmentID // sorted, unique
	pos   int          // index in its classification's class list, set by AddClass
}

// NewClass creates a query class referencing the given fragments. The
// fragment list is deduplicated and kept sorted.
func NewClass(name string, kind Kind, weight float64, frags ...FragmentID) *Class {
	c := &Class{Name: name, Kind: kind, Weight: weight}
	seen := make(map[FragmentID]struct{}, len(frags))
	for _, f := range frags {
		if _, ok := seen[f]; !ok {
			seen[f] = struct{}{}
			c.frags = append(c.frags, f)
		}
	}
	sort.Slice(c.frags, func(i, j int) bool { return c.frags[i] < c.frags[j] })
	return c
}

// Fragments returns the fragments referenced by the class in sorted
// order. The returned slice must not be modified.
func (c *Class) Fragments() []FragmentID { return c.frags }

// References reports whether the class references fragment f.
func (c *Class) References(f FragmentID) bool {
	i := sort.Search(len(c.frags), func(i int) bool { return c.frags[i] >= f })
	return i < len(c.frags) && c.frags[i] == f
}

// Overlaps reports whether the two classes reference at least one common
// fragment (C ∩ C' ≠ ∅).
func (c *Class) Overlaps(o *Class) bool {
	i, j := 0, 0
	for i < len(c.frags) && j < len(o.frags) {
		switch {
		case c.frags[i] == o.frags[j]:
			return true
		case c.frags[i] < o.frags[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// String formats the class as "name(kind 12.3% {f1 f2})".
func (c *Class) String() string {
	parts := make([]string, len(c.frags))
	for i, f := range c.frags {
		parts[i] = string(f)
	}
	return fmt.Sprintf("%s(%s %.1f%% {%s})", c.Name, c.Kind, c.Weight*100, strings.Join(parts, " "))
}

// Classification is the result of query classification (Section 3.1): the
// universe of data fragments F and the set of weighted query classes C,
// split into read classes C_Q and update classes C_U.
type Classification struct {
	fragments map[FragmentID]Fragment
	fragOrder []FragmentID
	classes   []*Class
	byName    map[string]*Class

	mu sync.Mutex
	ly *layout // dense index view, built lazily by layoutRef
}

// NewClassification returns an empty classification.
func NewClassification() *Classification {
	return &Classification{
		fragments: make(map[FragmentID]Fragment),
		byName:    make(map[string]*Class),
	}
}

// AddFragment registers a data fragment. Re-adding an existing fragment
// overwrites its size.
func (cl *Classification) AddFragment(f Fragment) {
	cl.invalidateLayout()
	if _, ok := cl.fragments[f.ID]; !ok {
		cl.fragOrder = append(cl.fragOrder, f.ID)
		sort.Slice(cl.fragOrder, func(i, j int) bool { return cl.fragOrder[i] < cl.fragOrder[j] })
	}
	cl.fragments[f.ID] = f
}

// AddClass registers a query class. All fragments referenced by the
// class must have been added before, the class name must be unique, and
// the weight must be non-negative.
func (cl *Classification) AddClass(c *Class) error {
	if c.Name == "" {
		return errors.New("core: class name must not be empty")
	}
	if _, dup := cl.byName[c.Name]; dup {
		return fmt.Errorf("core: duplicate class %q", c.Name)
	}
	if c.Weight < 0 {
		return fmt.Errorf("core: class %q has negative weight %g", c.Name, c.Weight)
	}
	if len(c.frags) == 0 {
		return fmt.Errorf("core: class %q references no fragments", c.Name)
	}
	for _, f := range c.frags {
		if _, ok := cl.fragments[f]; !ok {
			return fmt.Errorf("core: class %q references unknown fragment %q", c.Name, f)
		}
	}
	cl.invalidateLayout()
	c.pos = len(cl.classes)
	cl.classes = append(cl.classes, c)
	cl.byName[c.Name] = c
	return nil
}

// MustAddClass is AddClass but panics on error; intended for tests and
// statically known classifications.
func (cl *Classification) MustAddClass(c *Class) {
	if err := cl.AddClass(c); err != nil {
		panic(err)
	}
}

// Normalize rescales all class weights so they sum to 1. It returns an
// error if the total weight is zero.
func (cl *Classification) Normalize() error {
	total := 0.0
	for _, c := range cl.classes {
		total += c.Weight
	}
	if total <= 0 {
		return errors.New("core: total class weight is zero")
	}
	for _, c := range cl.classes {
		c.Weight /= total
	}
	return nil
}

// Validate checks that the classification is complete and that the class
// weights sum to 1 within tolerance.
func (cl *Classification) Validate() error {
	if len(cl.classes) == 0 {
		return errors.New("core: classification has no classes")
	}
	total := 0.0
	for _, c := range cl.classes {
		total += c.Weight
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("core: class weights sum to %g, want 1", total)
	}
	return nil
}

// Fragments returns all fragments in sorted ID order.
func (cl *Classification) Fragments() []Fragment {
	out := make([]Fragment, len(cl.fragOrder))
	for i, id := range cl.fragOrder {
		out[i] = cl.fragments[id]
	}
	return out
}

// Fragment returns the fragment with the given ID and whether it exists.
func (cl *Classification) Fragment(id FragmentID) (Fragment, bool) {
	f, ok := cl.fragments[id]
	return f, ok
}

// Classes returns all query classes in insertion order.
func (cl *Classification) Classes() []*Class { return cl.classes }

// Class returns the class with the given name, or nil.
func (cl *Classification) Class(name string) *Class { return cl.byName[name] }

// Reads returns the read query classes C_Q in insertion order.
func (cl *Classification) Reads() []*Class { return cl.filter(Read) }

// Updates returns the update query classes C_U in insertion order.
func (cl *Classification) Updates() []*Class { return cl.filter(Update) }

func (cl *Classification) filter(k Kind) []*Class {
	var out []*Class
	for _, c := range cl.classes {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// UpdatesFor implements Eq. 12: the set of update query classes whose
// fragment set overlaps the given class's fragment set. For an update
// class c, the result contains c itself.
func (cl *Classification) UpdatesFor(c *Class) []*Class {
	var out []*Class
	for _, u := range cl.classes {
		if u.Kind == Update && c.Overlaps(u) {
			out = append(out, u)
		}
	}
	return out
}

// UpdateWeightFor returns the summed weight of UpdatesFor(c).
func (cl *Classification) UpdateWeightFor(c *Class) float64 {
	w := 0.0
	for _, u := range cl.UpdatesFor(c) {
		w += u.Weight
	}
	return w
}

// SizeOf returns the summed size of the given fragment set.
func (cl *Classification) SizeOf(frags []FragmentID) float64 {
	s := 0.0
	for _, f := range frags {
		s += cl.fragments[f].Size
	}
	return s
}

// TotalSize returns the size of the complete database, i.e. the sum of
// all fragment sizes. Summation follows fragOrder: float addition is
// not associative, so summing in map-iteration order would drift in
// the last bits across runs.
func (cl *Classification) TotalSize() float64 {
	s := 0.0
	for _, id := range cl.fragOrder {
		s += cl.fragments[id].Size
	}
	return s
}

// MaxSpeedup implements Eq. 17: the upper bound on the speedup of any
// allocation of this classification,
//
//	speedup_max ≤ 1 / max_C Σ_{C_U ∈ updates(C)} weight(C_U).
//
// For a read-only classification the bound is +Inf (linear speedup).
func (cl *Classification) MaxSpeedup() float64 {
	maxU := 0.0
	for _, c := range cl.classes {
		if w := cl.UpdateWeightFor(c); w > maxU {
			maxU = w
		}
	}
	if maxU <= 0 {
		return math.Inf(1)
	}
	return 1 / maxU
}

// ClassUnion returns the union of the fragments of the given classes, in
// sorted order.
func ClassUnion(classes ...*Class) []FragmentID {
	seen := make(map[FragmentID]struct{})
	var out []FragmentID
	for _, c := range classes {
		for _, f := range c.frags {
			if _, ok := seen[f]; !ok {
				seen[f] = struct{}{}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// layout is the dense index view of a classification, built lazily and
// shared by every allocation over it: fragments get contiguous indices
// in sorted-ID order and classes keep their insertion positions, so an
// Allocation stores placement and assignment as flat arrays instead of
// hash maps. A classification must not be modified once allocations
// over it exist — AddFragment/AddClass invalidate the cached layout,
// and allocations built from different layouts are incompatible.
type layout struct {
	fragIDs   []FragmentID
	fragSizes []float64
	fragIndex map[FragmentID]int
	classFrag [][]int  // per class position: referenced fragment indices
	classUpd  [][]int  // per class position: overlapping updates, as indices into updates
	reads     []*Class // read classes in insertion order
	updates   []*Class // update classes in insertion order
}

func (cl *Classification) layoutRef() *layout {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.ly == nil {
		ly := &layout{
			fragIDs:   append([]FragmentID(nil), cl.fragOrder...),
			fragSizes: make([]float64, len(cl.fragOrder)),
			fragIndex: make(map[FragmentID]int, len(cl.fragOrder)),
			classFrag: make([][]int, len(cl.classes)),
		}
		for i, id := range ly.fragIDs {
			ly.fragSizes[i] = cl.fragments[id].Size
			ly.fragIndex[id] = i
		}
		for pos, c := range cl.classes {
			idx := make([]int, len(c.frags))
			for j, f := range c.frags {
				idx[j] = ly.fragIndex[f]
			}
			ly.classFrag[pos] = idx
			if c.Kind == Read {
				ly.reads = append(ly.reads, c)
			} else {
				ly.updates = append(ly.updates, c)
			}
		}
		ly.classUpd = make([][]int, len(cl.classes))
		for pos, c := range cl.classes {
			for ui, u := range ly.updates {
				if c.Overlaps(u) {
					ly.classUpd[pos] = append(ly.classUpd[pos], ui)
				}
			}
		}
		cl.ly = ly
	}
	return cl.ly
}

func (cl *Classification) invalidateLayout() {
	cl.mu.Lock()
	cl.ly = nil
	cl.mu.Unlock()
}

// Backend describes one backend database of the cluster: a name and its
// relative query processing performance (Eq. 7). The loads of all
// backends of a cluster sum to 1; in a homogeneous cluster of s nodes
// every load is 1/s.
type Backend struct {
	Name string
	Load float64
}

// UniformBackends returns n homogeneous backends named B1..Bn with load
// 1/n each.
func UniformBackends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{Name: fmt.Sprintf("B%d", i+1), Load: 1 / float64(n)}
	}
	return out
}

// NormalizeBackends rescales the backend loads so they sum to 1.
func NormalizeBackends(bs []Backend) []Backend {
	total := 0.0
	for _, b := range bs {
		total += b.Load
	}
	out := make([]Backend, len(bs))
	for i, b := range bs {
		out[i] = Backend{Name: b.Name, Load: b.Load / total}
	}
	return out
}

// Allocation is a partial replication (Section 3.2): for every backend
// the set of fragments it stores and, for every query class, the share
// of the class's weight assigned to the backend (the assign function,
// Eq. 8).
type Allocation struct {
	cls      *Classification
	ly       *layout
	backends []Backend

	// Placement and assignment are flat arrays over the layout's dense
	// indices, backed by single slabs so a scratch allocation can be
	// overwritten with a handful of copy calls (see CopyFrom):
	// frags[b][i] says whether backend b stores fragment i, and
	// assign[b][pos] is the weight of class position pos on b.
	frags      [][]bool
	assign     [][]float64
	fragsData  []bool
	assignData []float64

	// Incremental cost aggregates, maintained by every mutator so the
	// memetic solver's local-search probes evaluate moves in O(touched
	// backends) instead of recomputing Eq. 14/15 and the total data
	// size from scratch (see DESIGN.md, "Performance"):
	//
	//   - loadSum[b] is Σ assign(·, b), Eq. 14's assignedLoad;
	//   - sizeSum[b] is the summed size of the fragments stored on b,
	//     and totalSize is Σ_b sizeSum[b] (the numerator of Eq. 28);
	//   - scale caches Eq. 15's max_b loadSum[b]/load[b] (floored at 1)
	//     together with the backend it came from. A mutation that
	//     raises some backend's ratio to or above the cached maximum
	//     updates the cache in place; one that lowers the maximum
	//     backend's ratio marks it stale for a lazy O(|B|) rescan.
	loadSum   []float64
	sizeSum   []float64
	totalSize float64
	scale     float64
	scaleB    int // backend the cached scale came from; -1 = the floor of 1
	scaleOK   bool
}

// NewAllocation returns an empty allocation over the given classification
// and backends. The backend loads must sum to 1 within tolerance.
func NewAllocation(cls *Classification, backends []Backend) *Allocation {
	ly := cls.layoutRef()
	nb, nf, nc := len(backends), len(ly.fragIDs), len(ly.classFrag)
	a := &Allocation{
		cls:        cls,
		ly:         ly,
		backends:   append([]Backend(nil), backends...),
		frags:      make([][]bool, nb),
		assign:     make([][]float64, nb),
		fragsData:  make([]bool, nb*nf),
		assignData: make([]float64, nb*nc),
		loadSum:    make([]float64, nb),
		sizeSum:    make([]float64, nb),
		scale:      1,
		scaleB:     -1,
		scaleOK:    true,
	}
	for i := range backends {
		a.frags[i] = a.fragsData[i*nf : (i+1)*nf]
		a.assign[i] = a.assignData[i*nc : (i+1)*nc]
	}
	return a
}

// Classification returns the classification the allocation was computed
// for.
func (a *Allocation) Classification() *Classification { return a.cls }

// Backends returns the backends of the allocation.
func (a *Allocation) Backends() []Backend { return a.backends }

// NumBackends returns the number of backends.
func (a *Allocation) NumBackends() int { return len(a.backends) }

// AddFragments places the given fragments on backend b (idempotent).
// Fragments unknown to the classification are ignored. The size
// aggregates accumulate in argument order, so callers that expand a
// fragment set collected from a map must sort it first to keep runs
// bit-identical.
func (a *Allocation) AddFragments(b int, frags ...FragmentID) {
	for _, f := range frags {
		i, ok := a.ly.fragIndex[f]
		if !ok || a.frags[b][i] {
			continue
		}
		a.frags[b][i] = true
		a.sizeSum[b] += a.ly.fragSizes[i]
		a.totalSize += a.ly.fragSizes[i]
	}
}

// addFragIdx places fragment index i on backend b (idempotent).
func (a *Allocation) addFragIdx(b, i int) {
	if a.frags[b][i] {
		return
	}
	a.frags[b][i] = true
	a.sizeSum[b] += a.ly.fragSizes[i]
	a.totalSize += a.ly.fragSizes[i]
}

// RemoveFragment removes a fragment from backend b.
func (a *Allocation) RemoveFragment(b int, f FragmentID) {
	i, ok := a.ly.fragIndex[f]
	if !ok || !a.frags[b][i] {
		return
	}
	a.frags[b][i] = false
	a.sizeSum[b] -= a.ly.fragSizes[i]
	a.totalSize -= a.ly.fragSizes[i]
}

// removeFragIdx removes fragment index i from backend b.
func (a *Allocation) removeFragIdx(b, i int) {
	if !a.frags[b][i] {
		return
	}
	a.frags[b][i] = false
	a.sizeSum[b] -= a.ly.fragSizes[i]
	a.totalSize -= a.ly.fragSizes[i]
}

// HasFragment reports whether backend b stores fragment f.
func (a *Allocation) HasFragment(b int, f FragmentID) bool {
	i, ok := a.ly.fragIndex[f]
	return ok && a.frags[b][i]
}

// HasAllFragments reports whether backend b stores every fragment of the
// given set, i.e. whether a query of that class can execute locally on b.
func (a *Allocation) HasAllFragments(b int, frags []FragmentID) bool {
	for _, f := range frags {
		i, ok := a.ly.fragIndex[f]
		if !ok || !a.frags[b][i] {
			return false
		}
	}
	return true
}

// hasClassLocally reports whether backend b stores every fragment of
// class c (the index-based fast path of HasAllFragments).
func (a *Allocation) hasClassLocally(b int, c *Class) bool {
	for _, i := range a.ly.classFrag[c.pos] {
		if !a.frags[b][i] {
			return false
		}
	}
	return true
}

// Fragments returns the fragments stored on backend b in sorted order.
func (a *Allocation) Fragments(b int) []FragmentID {
	var out []FragmentID
	for i, ok := range a.frags[b] {
		if ok {
			out = append(out, a.ly.fragIDs[i])
		}
	}
	return out
}

// SetAssign sets assign(class, b) = w. A non-positive w removes the
// assignment; classes unknown to the classification are ignored.
func (a *Allocation) SetAssign(b int, class string, w float64) {
	if c := a.cls.byName[class]; c != nil {
		a.setAssignPos(b, c.pos, w)
	}
}

// setAssignPos is SetAssign by class position.
func (a *Allocation) setAssignPos(b, pos int, w float64) {
	old := a.assign[b][pos]
	if w <= 0 {
		if old == 0 {
			return
		}
		w = 0
	}
	a.assign[b][pos] = w
	a.loadSum[b] += w - old
	a.noteLoadChange(b)
}

// noteLoadChange refreshes the cached scale after backend b's assigned
// load changed: a ratio at or above the cached maximum replaces it, a
// drop on the maximum backend invalidates the cache for a lazy rescan,
// and any other change cannot affect the maximum.
func (a *Allocation) noteLoadChange(b int) {
	if !a.scaleOK || a.backends[b].Load <= 0 {
		return
	}
	switch r := a.loadSum[b] / a.backends[b].Load; {
	case r >= a.scale:
		if r > 1 {
			a.scale, a.scaleB = r, b
		} else {
			a.scale, a.scaleB = 1, -1
		}
	case b == a.scaleB:
		a.scaleOK = false
	}
}

// AddAssign increases assign(class, b) by w.
func (a *Allocation) AddAssign(b int, class string, w float64) {
	if c := a.cls.byName[class]; c != nil {
		a.setAssignPos(b, c.pos, a.assign[b][c.pos]+w)
	}
}

// addAssignPos is AddAssign by class position.
func (a *Allocation) addAssignPos(b, pos int, w float64) {
	a.setAssignPos(b, pos, a.assign[b][pos]+w)
}

// Assign returns assign(class, b): the share of the class's weight
// handled by backend b.
func (a *Allocation) Assign(b int, class string) float64 {
	if c := a.cls.byName[class]; c != nil {
		return a.assign[b][c.pos]
	}
	return 0
}

// AssignedLoad implements Eq. 14: the sum of all class weights assigned
// to backend b, maintained incrementally by SetAssign/AddAssign.
func (a *Allocation) AssignedLoad(b int) float64 {
	return a.loadSum[b]
}

// AssignedClasses returns the names of the classes with assign > 0 on
// backend b, sorted.
func (a *Allocation) AssignedClasses(b int) []string {
	var out []string
	for pos, w := range a.assign[b] {
		if w > 0 {
			out = append(out, a.cls.classes[pos].Name)
		}
	}
	sort.Strings(out)
	return out
}

// Scale implements Eq. 15's scale factor: the maximum over all backends
// of assignedLoad(B)/load(B), but never less than 1. A scale of 1 means
// the workload (including replicated updates) fits the cluster without
// stretching; the theoretical speedup is |B|/scale (Eq. 19). The value
// is cached across mutations and rescanned lazily (O(|B|)) only after a
// mutation lowered the maximum backend's load.
func (a *Allocation) Scale() float64 {
	if !a.scaleOK {
		a.scale, a.scaleB = 1, -1
		for b := range a.backends {
			if a.backends[b].Load <= 0 {
				continue
			}
			if r := a.loadSum[b] / a.backends[b].Load; r > a.scale {
				a.scale, a.scaleB = r, b
			}
		}
		a.scaleOK = true
	}
	return a.scale
}

// ScaledLoad implements Eq. 15: load(B) × max(scale, 1).
func (a *Allocation) ScaledLoad(b int) float64 {
	return a.backends[b].Load * a.Scale()
}

// Speedup implements Eq. 19: |B| / scale. For a homogeneous cluster this
// equals Eq. 18's 1/scaledLoad.
func (a *Allocation) Speedup() float64 {
	return float64(len(a.backends)) / a.Scale()
}

// DataSize returns the summed size of the fragments stored on backend
// b, maintained incrementally by AddFragments/RemoveFragment.
func (a *Allocation) DataSize(b int) float64 {
	return a.sizeSum[b]
}

// TotalDataSize returns the summed size over all backends (the numerator
// of Eq. 28), maintained incrementally.
func (a *Allocation) TotalDataSize() float64 {
	return a.totalSize
}

// DegreeOfReplication implements Eq. 28: total allocated size divided by
// the size of the database. Full replication on n backends yields n; a
// partition without replication yields 1.
func (a *Allocation) DegreeOfReplication() float64 {
	total := a.cls.TotalSize()
	if total <= 0 {
		return 0
	}
	return a.TotalDataSize() / total
}

// FragmentReplicas returns on how many backends fragment f is stored.
func (a *Allocation) FragmentReplicas(f FragmentID) int {
	i, ok := a.ly.fragIndex[f]
	if !ok {
		return 0
	}
	n := 0
	for b := range a.backends {
		if a.frags[b][i] {
			n++
		}
	}
	return n
}

// ClassReplicas returns on how many backends the complete fragment set of
// class c is stored (the replica count of Appendix C, Algorithm 4 line
// 34).
func (a *Allocation) ClassReplicas(c *Class) int {
	n := 0
	for b := range a.backends {
		if a.hasClassLocally(b, c) {
			n++
		}
	}
	return n
}

// Validate checks the validity constraints of Section 3.2:
//
//   - Eq. 8: assign(C,B) > 0 implies C ⊆ fragments(B);
//   - Eq. 9: every read class is fully assigned (Σ_B assign = weight);
//   - Eq. 10: every update class is assigned with its full weight to
//     every backend storing any of its fragments;
//   - Eq. 11: every update class is assigned to at least one backend.
func (a *Allocation) Validate() error {
	for b := range a.backends {
		for pos, w := range a.assign[b] {
			c := a.cls.classes[pos]
			if w > 0 && !a.hasClassLocally(b, c) {
				return fmt.Errorf("core: backend %s assigns class %q without storing all its fragments (violates Eq. 8)", a.backends[b].Name, c.Name)
			}
		}
	}
	for _, c := range a.cls.Classes() {
		total := 0.0
		for b := range a.backends {
			total += a.assign[b][c.pos]
		}
		switch c.Kind {
		case Read:
			if math.Abs(total-c.Weight) > 1e-6 {
				return fmt.Errorf("core: read class %q assigned %.6f of weight %.6f (violates Eq. 9)", c.Name, total, c.Weight)
			}
		case Update:
			if total < c.Weight-1e-6 {
				return fmt.Errorf("core: update class %q assigned %.6f < weight %.6f (violates Eq. 11)", c.Name, total, c.Weight)
			}
			for b := range a.backends {
				touches := false
				for _, i := range a.ly.classFrag[c.pos] {
					if a.frags[b][i] {
						touches = true
						break
					}
				}
				if touches && math.Abs(a.assign[b][c.pos]-c.Weight) > 1e-6 {
					return fmt.Errorf("core: update class %q assigned %.6f on backend %s storing its data, want full weight %.6f (violates Eq. 10)",
						c.Name, a.assign[b][c.pos], a.backends[b].Name, c.Weight)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the allocation (sharing the immutable
// classification and backend specs). The incremental aggregates are
// copied verbatim, not recomputed, so the clone's cost is bit-identical
// to the original's.
func (a *Allocation) Clone() *Allocation {
	c := NewAllocation(a.cls, a.backends)
	c.CopyFrom(a)
	return c
}

// CopyFrom makes a into a deep copy of src without reallocating its
// per-backend maps, so a hot loop can reuse one scratch allocation for
// many trial moves instead of cloning per probe. Both allocations must
// have been created over the same classification and backend list.
func (a *Allocation) CopyFrom(src *Allocation) {
	copy(a.fragsData, src.fragsData)
	copy(a.assignData, src.assignData)
	copy(a.loadSum, src.loadSum)
	copy(a.sizeSum, src.sizeSum)
	a.totalSize = src.totalSize
	a.scale, a.scaleB, a.scaleOK = src.scale, src.scaleB, src.scaleOK
}

// CheckAggregates recomputes every incrementally maintained aggregate
// from the underlying maps and reports the first one that drifted
// beyond tolerance from its running value. It is the debug cross-check
// for the invariants documented in DESIGN.md ("Performance"); the
// greedy and memetic property tests call it on every result.
func (a *Allocation) CheckAggregates() error {
	const tol = 1e-6
	totalSize := 0.0
	for b := range a.backends {
		load := 0.0
		for _, w := range a.assign[b] {
			load += w
		}
		if math.Abs(load-a.loadSum[b]) > tol {
			return fmt.Errorf("core: backend %s loadSum %.12g, recomputed %.12g", a.backends[b].Name, a.loadSum[b], load)
		}
		size := 0.0
		for i, ok := range a.frags[b] {
			if ok {
				size += a.ly.fragSizes[i]
			}
		}
		if math.Abs(size-a.sizeSum[b]) > tol {
			return fmt.Errorf("core: backend %s sizeSum %.12g, recomputed %.12g", a.backends[b].Name, a.sizeSum[b], size)
		}
		totalSize += size
	}
	if math.Abs(totalSize-a.totalSize) > tol {
		return fmt.Errorf("core: totalSize %.12g, recomputed %.12g", a.totalSize, totalSize)
	}
	if a.scaleOK {
		scale := 1.0
		for b := range a.backends {
			if a.backends[b].Load <= 0 {
				continue
			}
			if r := a.loadSum[b] / a.backends[b].Load; r > scale {
				scale = r
			}
		}
		if math.Abs(scale-a.scale) > tol {
			return fmt.Errorf("core: cached scale %.12g, recomputed %.12g", a.scale, scale)
		}
	}
	return nil
}

// LoadMatrix returns the per-backend, per-class assigned weights as a
// matrix indexed [backend][class], with classes in the order of
// Classification.Classes(). This is the "load matrix" notation of the
// paper's Appendix A.
func (a *Allocation) LoadMatrix() [][]float64 {
	m := make([][]float64, len(a.backends))
	for b := range a.backends {
		m[b] = append([]float64(nil), a.assign[b]...)
	}
	return m
}

// AllocationMatrix returns the 0/1 fragment placement matrix indexed
// [backend][fragment], with fragments in sorted ID order (the paper's
// Appendix B matrix A).
func (a *Allocation) AllocationMatrix() [][]int {
	m := make([][]int, len(a.backends))
	for b := range a.backends {
		m[b] = make([]int, len(a.frags[b]))
		for i, ok := range a.frags[b] {
			if ok {
				m[b][i] = 1
			}
		}
	}
	return m
}

// String renders a human-readable summary of the allocation: per backend
// the stored fragments, the assigned load, and overall scale, speedup and
// degree of replication.
func (a *Allocation) String() string {
	var sb strings.Builder
	for b := range a.backends {
		fmt.Fprintf(&sb, "%s (load %.3f, assigned %.3f): {", a.backends[b].Name, a.backends[b].Load, a.AssignedLoad(b))
		for i, f := range a.Fragments(b) {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(string(f))
		}
		sb.WriteString("}\n")
	}
	fmt.Fprintf(&sb, "scale %.4f speedup %.3f replication %.3f", a.Scale(), a.Speedup(), a.DegreeOfReplication())
	return sb.String()
}

// FullReplication returns the trivial allocation that places every
// fragment on every backend and spreads each read class across all
// backends proportionally to their load; update classes are assigned to
// every backend with full weight (ROWA).
func FullReplication(cls *Classification, backends []Backend) *Allocation {
	a := NewAllocation(cls, backends)
	all := make([]FragmentID, 0)
	for _, f := range cls.Fragments() {
		all = append(all, f.ID)
	}
	for b := range backends {
		a.AddFragments(b, all...)
		for _, c := range cls.Classes() {
			if c.Kind == Update {
				a.SetAssign(b, c.Name, c.Weight)
			} else {
				a.SetAssign(b, c.Name, c.Weight*backends[b].Load)
			}
		}
	}
	return a
}
