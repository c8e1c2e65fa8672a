package core

import (
	"errors"
	"fmt"
	"math"

	"qcpa/internal/lp"
)

// OptimalOptions bound the MILP solves of Optimal.
type OptimalOptions struct {
	// MaxNodes caps branch-and-bound nodes per phase (0: solver default).
	MaxNodes int
	// SkipSpacePhase stops after the throughput phase (minimal scale)
	// without minimizing the allocated space under that scale.
	SkipSpacePhase bool
}

// OptimalResult carries the allocation computed by Optimal together with
// solver diagnostics.
type OptimalResult struct {
	Allocation *Allocation
	// Scale is the proven (or best-incumbent) minimal scale factor.
	Scale float64
	// ScaleProven and SpaceProven report whether each phase closed the
	// optimality gap within the budget.
	ScaleProven, SpaceProven bool
	// Nodes is the total number of branch-and-bound nodes explored.
	Nodes int
}

// Optimal computes a throughput-optimal, space-minimal allocation using
// the linear program of Appendix B: the first phase minimizes the scale
// factor (maximizing the theoretical speedup |B|/scale, Eq. 19), the
// second phase fixes that scale and minimizes the total allocated data
// size. The MILP is NP-hard; Optimal is intended for small instances
// (the paper solves up to 7 backends) and returns the best incumbent
// with ScaleProven/SpaceProven = false when the budget runs out.
//
// Modelling notes relative to Appendix B:
//
//   - The fragment placement matrix A (Eq. 35) is kept continuous in
//     [0,1]: constraints 44/45 force each entry to 1 whenever a class
//     using the fragment is allocated, and the space objective drives the
//     remaining entries to 0, so A is integral at every optimum. Only
//     the per-backend class indicators H and H' (Eqs. 40-41) are binary.
//   - Overlapping update classes are forced to co-occur per backend
//     (Eq. 10 applied transitively), which the appendix's pairing of
//     updates with read classes leaves implicit.
func Optimal(cls *Classification, backends []Backend, opts OptimalOptions) (*OptimalResult, error) {
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	if len(backends) == 0 {
		return nil, errors.New("core: no backends")
	}
	total := 0.0
	minLoad := math.Inf(1)
	for _, b := range backends {
		total += b.Load
		if b.Load < minLoad {
			minLoad = b.Load
		}
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, errors.New("core: backend loads must sum to 1")
	}
	if minLoad <= 0 {
		return nil, errors.New("core: backend with non-positive load")
	}

	reads := cls.Reads()
	updates := cls.Updates()
	frags := cls.Fragments()
	nb := len(backends)

	fragIdx := make(map[FragmentID]int, len(frags))
	for j, f := range frags {
		fragIdx[f.ID] = j
	}

	updateWeightSum := 0.0
	for _, u := range updates {
		updateWeightSum += u.Weight
	}
	scaleUB := 1 + updateWeightSum*float64(nb)/minLoad + 1

	p := lp.NewProblem()
	// Variable layout.
	scaleVar := p.AddVariable(1, 1, scaleUB, false) // phase-1 objective: scale
	aVar := make([][]int, nb)                       // a[i][j] in [0,1]
	for i := 0; i < nb; i++ {
		aVar[i] = make([]int, len(frags))
		for j := range frags {
			aVar[i][j] = p.AddVariable(0, 0, 1, false)
		}
	}
	lVar := make([][]int, nb) // l[i][k] read load share
	hVar := make([][]int, nb) // h[i][k] read indicator
	for i := 0; i < nb; i++ {
		lVar[i] = make([]int, len(reads))
		hVar[i] = make([]int, len(reads))
		for k, c := range reads {
			lVar[i][k] = p.AddVariable(0, 0, c.Weight, false)
			hVar[i][k] = p.AddBinary(0)
		}
	}
	hUVar := make([][]int, nb) // h'[i][k] update indicator
	for i := 0; i < nb; i++ {
		hUVar[i] = make([]int, len(updates))
		for k := range updates {
			hUVar[i][k] = p.AddBinary(0)
		}
	}

	// Eq. 38: every read class fully assigned.
	for k, c := range reads {
		terms := make([]lp.Term, nb)
		for i := 0; i < nb; i++ {
			terms[i] = lp.Term{Var: lVar[i][k], Coef: 1}
		}
		p.AddConstraint(lp.EQ, c.Weight, terms...)
	}
	// Eq. 40 linking: l[i][k] <= weight_k * h[i][k].
	for i := 0; i < nb; i++ {
		for k, c := range reads {
			p.AddConstraint(lp.LE, 0,
				lp.Term{Var: lVar[i][k], Coef: 1},
				lp.Term{Var: hVar[i][k], Coef: -c.Weight})
		}
	}
	// Eq. 41: h'[i][u] >= h[i][m] whenever C_u in updates(C_m).
	for m, rc := range reads {
		for ui, uc := range updates {
			if !rc.Overlaps(uc) {
				continue
			}
			for i := 0; i < nb; i++ {
				p.AddConstraint(lp.LE, 0,
					lp.Term{Var: hVar[i][m], Coef: 1},
					lp.Term{Var: hUVar[i][ui], Coef: -1})
			}
		}
	}
	// Transitive Eq. 10: overlapping update classes co-occur.
	for u1 := range updates {
		for u2 := u1 + 1; u2 < len(updates); u2++ {
			if !updates[u1].Overlaps(updates[u2]) {
				continue
			}
			for i := 0; i < nb; i++ {
				p.AddConstraint(lp.EQ, 0,
					lp.Term{Var: hUVar[i][u1], Coef: 1},
					lp.Term{Var: hUVar[i][u2], Coef: -1})
			}
		}
	}
	// Eq. 39: every update class allocated somewhere.
	for ui := range updates {
		terms := make([]lp.Term, nb)
		for i := 0; i < nb; i++ {
			terms[i] = lp.Term{Var: hUVar[i][ui], Coef: 1}
		}
		p.AddConstraint(lp.GE, 1, terms...)
	}
	// Eq. 43: backend load within scale * load_i.
	for i := 0; i < nb; i++ {
		terms := make([]lp.Term, 0, len(reads)+len(updates)+1)
		for k := range reads {
			terms = append(terms, lp.Term{Var: lVar[i][k], Coef: 1})
		}
		for ui, uc := range updates {
			terms = append(terms, lp.Term{Var: hUVar[i][ui], Coef: uc.Weight})
		}
		terms = append(terms, lp.Term{Var: scaleVar, Coef: -backends[i].Load})
		p.AddConstraint(lp.LE, 0, terms...)
	}
	// Eq. 44/45: allocated classes force their fragments.
	addFragCoupling := func(i int, c *Class, hv int) {
		fs := c.Fragments()
		terms := make([]lp.Term, 0, len(fs)+1)
		for _, f := range fs {
			terms = append(terms, lp.Term{Var: aVar[i][fragIdx[f]], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: hv, Coef: -float64(len(fs))})
		p.AddConstraint(lp.GE, 0, terms...)
	}
	for i := 0; i < nb; i++ {
		for k, c := range reads {
			addFragCoupling(i, c, hVar[i][k])
		}
		for ui, uc := range updates {
			addFragCoupling(i, uc, hUVar[i][ui])
		}
	}

	mipOpts := lp.MIPOptions{MaxNodes: opts.MaxNodes}

	// Phase 1: minimize scale.
	sol1, err := p.SolveMIP(mipOpts)
	if err != nil {
		return nil, err
	}
	if sol1.Status == lp.Infeasible {
		return nil, errors.New("core: optimal allocation infeasible (should not happen for a valid classification)")
	}
	if sol1.Status == lp.Unbounded {
		return nil, errors.New("core: optimal allocation unbounded (internal error)")
	}
	res := &OptimalResult{
		Scale:       sol1.X[scaleVar],
		ScaleProven: sol1.Status == lp.Optimal,
		Nodes:       sol1.Nodes,
	}

	finalSol := sol1
	if !opts.SkipSpacePhase {
		// Phase 2: fix scale, minimize space.
		p.SetObjective(scaleVar, 0)
		p.SetBounds(scaleVar, 1, res.Scale+1e-7)
		for i := 0; i < nb; i++ {
			for j, f := range frags {
				p.SetObjective(aVar[i][j], f.Size)
			}
		}
		sol2, err := p.SolveMIP(mipOpts)
		if err != nil {
			return nil, err
		}
		if sol2.Status == lp.Optimal || sol2.Status == lp.Feasible {
			finalSol = sol2
			res.SpaceProven = sol2.Status == lp.Optimal
			res.Nodes += sol2.Nodes
		}
	}

	// Extract the allocation from the binary class indicators only: the
	// continuous l values carry solver tolerances (numerical dust places
	// spurious fragments) and the phase-2 scale slack, so the exact read
	// shares are recomputed by RebalanceReads below.
	alloc := NewAllocation(cls, backends)
	x := finalSol.X
	for i := 0; i < nb; i++ {
		for k, c := range reads {
			if x[hVar[i][k]] > 0.5 {
				alloc.AddFragments(i, c.Fragments()...)
				if w := x[lVar[i][k]]; w > Eps {
					alloc.SetAssign(i, c.Name, w)
				}
			}
		}
		for ui, uc := range updates {
			if x[hUVar[i][ui]] > 0.5 {
				alloc.AddFragments(i, uc.Fragments()...)
				alloc.SetAssign(i, uc.Name, uc.Weight)
			}
		}
	}
	// Defensive repair: a backend may hold a fragment of an update class
	// via a read class whose indicator was set with zero load; Eq. 10
	// then demands the update there.
	for i := 0; i < nb; i++ {
		for _, uc := range updates {
			touches := false
			for _, f := range uc.Fragments() {
				if alloc.HasFragment(i, f) {
					touches = true
					break
				}
			}
			if touches && alloc.Assign(i, uc.Name) == 0 {
				alloc.AddFragments(i, uc.Fragments()...)
				alloc.SetAssign(i, uc.Name, uc.Weight)
			}
		}
	}
	if err := RebalanceReads(alloc); err != nil {
		return nil, fmt.Errorf("core: rebalancing optimal allocation: %w", err)
	}
	if err := alloc.Validate(); err != nil {
		return nil, fmt.Errorf("core: optimal allocation failed validation: %w", err)
	}
	res.Allocation = alloc
	res.Scale = alloc.Scale()
	return res, nil
}

// RebalanceReads recomputes the read assignments of an allocation for
// its fixed fragment placement and update assignments so that the scale
// factor is minimal. This is a small continuous LP (no integer
// variables): minimize scale subject to every read class being fully
// assigned across the backends able to execute it locally, and every
// backend's total load staying within scale × load.
//
// It is used to clean up solver tolerances after Optimal and as the
// exact re-balancing step of the memetic algorithm's local search.
func RebalanceReads(a *Allocation) error {
	backends := a.Backends()
	reads := a.ly.reads

	p := lp.NewProblem()
	scaleVar := p.AddVariable(1, 1, math.Inf(1), false)
	type rv struct{ k, i, v int }
	var vars []rv
	for k, c := range reads {
		for i := range backends {
			if a.hasClassLocally(i, c) {
				// No explicit upper bound: Σ_B x = weight with x ≥ 0
				// already caps each share, and a finite bound would cost
				// the simplex an extra tableau row per variable.
				vars = append(vars, rv{k, i, p.AddVariable(0, 0, math.Inf(1), false)})
			}
		}
	}
	// Full assignment per read class.
	for k, c := range reads {
		var terms []lp.Term
		for _, v := range vars {
			if v.k == k {
				terms = append(terms, lp.Term{Var: v.v, Coef: 1})
			}
		}
		if len(terms) == 0 {
			return fmt.Errorf("core: read class %q cannot execute on any backend", c.Name)
		}
		p.AddConstraint(lp.EQ, c.Weight, terms...)
	}
	// Load constraints with the fixed update weights.
	updates := a.ly.updates
	for i := range backends {
		updLoad := 0.0
		for _, u := range updates {
			updLoad += a.assign[i][u.pos]
		}
		terms := []lp.Term{{Var: scaleVar, Coef: -backends[i].Load}}
		for _, v := range vars {
			if v.i == i {
				terms = append(terms, lp.Term{Var: v.v, Coef: 1})
			}
		}
		p.AddConstraint(lp.LE, -updLoad, terms...)
	}
	sol, err := p.SolveLP()
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("core: read rebalancing LP %v", sol.Status)
	}
	for k, c := range reads {
		for i := range backends {
			a.setAssignPos(i, c.pos, 0)
		}
		total := 0.0
		last := -1
		for _, v := range vars {
			if v.k != k {
				continue
			}
			w := sol.X[v.v]
			if w > 1e-12 {
				a.setAssignPos(v.i, c.pos, w)
				total += w
				last = v.i
			}
		}
		// Absorb any residual numerical error into the last share so the
		// class is assigned exactly its weight.
		if last >= 0 && math.Abs(total-c.Weight) > 0 {
			a.addAssignPos(last, c.pos, c.Weight-total)
		}
	}
	return nil
}
