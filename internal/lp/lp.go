// Package lp provides a small linear and mixed-integer programming solver
// built on a dense two-phase primal simplex method with a depth-first
// branch-and-bound search for integer variables.
//
// It exists to solve the optimal allocation MILP of the paper's
// Appendix B (see internal/core's Optimal). The solver is exact on the
// instance sizes the paper reports optimal results for (clusters of up
// to seven backends); beyond a configurable node or time budget it
// returns the best incumbent found.
//
// All problems are minimization problems over variables with finite
// lower bounds:
//
//	min c·x   subject to   A x {≤,=,≥} b,   lo ≤ x ≤ hi.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a linear constraint.
type Rel int8

const (
	// LE constrains a row to ≤ rhs.
	LE Rel = iota
	// GE constrains a row to ≥ rhs.
	GE
	// EQ constrains a row to = rhs.
	EQ
)

// Term is one coefficient of a linear constraint: Coef × x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear or mixed-integer program under construction.
// Create it with NewProblem, add variables and constraints, then call
// SolveLP or SolveMIP.
type Problem struct {
	obj     []float64
	lo, hi  []float64
	integer []bool
	rows    []constraint
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a variable with the given objective coefficient and
// bounds and returns its index. The lower bound must be finite; the
// upper bound may be math.Inf(1). If integer is true the variable is
// constrained to integral values by SolveMIP (SolveLP relaxes it).
func (p *Problem) AddVariable(obj, lo, hi float64, integer bool) int {
	if math.IsInf(lo, -1) || math.IsNaN(lo) {
		panic("lp: variable lower bound must be finite")
	}
	if hi < lo {
		panic("lp: variable upper bound below lower bound")
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.integer = append(p.integer, integer)
	return len(p.obj) - 1
}

// AddBinary adds a {0,1} variable with the given objective coefficient.
func (p *Problem) AddBinary(obj float64) int {
	return p.AddVariable(obj, 0, 1, true)
}

// SetObjective replaces the objective coefficient of a variable. This
// allows re-solving the same constraint system under a second objective
// (the paper's two-phase optimal allocation).
func (p *Problem) SetObjective(v int, obj float64) { p.obj[v] = obj }

// SetBounds replaces the bounds of a variable.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	if hi < lo {
		panic("lp: upper bound below lower bound")
	}
	p.lo[v], p.hi[v] = lo, hi
}

// AddConstraint adds the constraint Σ terms {rel} rhs. Terms referring
// to the same variable are summed.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.rows = append(p.rows, constraint{terms: append([]Term(nil), terms...), rel: rel, rhs: rhs})
}

// Status describes the outcome of a solve.
type Status int8

const (
	// Optimal: the returned solution is proven optimal.
	Optimal Status = iota
	// Feasible: a feasible (integer) solution was found but optimality
	// was not proven within the budget.
	Feasible
	// Infeasible: the problem has no feasible solution.
	Infeasible
	// Unbounded: the objective is unbounded below.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution is the result of SolveLP or SolveMIP.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored (MIP only).
	Nodes int
}

const eps = 1e-9

// SolveLP solves the linear relaxation of the problem (integrality is
// ignored). It returns an error only for malformed problems; infeasible
// and unbounded outcomes are reported via Solution.Status.
func (p *Problem) SolveLP() (Solution, error) {
	return p.solveRelaxation(p.lo, p.hi)
}

// solveRelaxation solves the LP with the given bounds (used by
// branch-and-bound to override bounds without copying the problem).
func (p *Problem) solveRelaxation(lo, hi []float64) (Solution, error) {
	n := len(p.obj)
	if n == 0 {
		return Solution{Status: Optimal}, nil
	}

	// Shift variables by their lower bounds: x = y + lo, y >= 0.
	// Finite upper bounds become extra ≤ rows.
	nUB := 0
	for j := 0; j < n; j++ {
		if hi[j] < lo[j] {
			return Solution{Status: Infeasible}, nil
		}
		if !math.IsInf(hi[j], 1) {
			nUB++
		}
	}
	m := len(p.rows) + nUB
	// Dense standard-form rows, backed by one slab to keep the per-solve
	// allocation count flat (this path runs once per local-search probe).
	coefData := make([]float64, m*n)
	coef := make([][]float64, m)
	rhs := make([]float64, m)
	rel := make([]Rel, m)
	for i, c := range p.rows {
		row := coefData[i*n : (i+1)*n]
		coef[i] = row
		r := c.rhs
		for _, t := range c.terms {
			row[t.Var] += t.Coef
			r -= t.Coef * lo[t.Var]
		}
		rhs[i] = r
		rel[i] = c.rel
	}
	ri := len(p.rows)
	for j := 0; j < n; j++ {
		if !math.IsInf(hi[j], 1) {
			coef[ri] = coefData[ri*n : (ri+1)*n]
			coef[ri][j] = 1
			rhs[ri] = hi[j] - lo[j]
			rel[ri] = LE
			ri++
		}
	}

	// Count auxiliary columns: slack (LE), surplus (GE), artificial
	// (GE, EQ, and LE rows with negative rhs after sign flip handling).
	// Normalize to rhs >= 0 first.
	for i := 0; i < m; i++ {
		if rhs[i] < 0 {
			for j := range coef[i] {
				coef[i][j] = -coef[i][j]
			}
			rhs[i] = -rhs[i]
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
	}
	nSlack := 0
	nArt := 0
	for i := 0; i < m; i++ {
		switch rel[i] {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	total := n + nSlack + nArt
	// tableau: m rows × (total+1) columns; last column is rhs, all rows
	// in one slab.
	tabData := make([]float64, m*(total+1))
	tab := make([][]float64, m)
	basis := make([]int, m)
	artStart := n + nSlack
	si, ai := n, artStart
	for i := 0; i < m; i++ {
		tab[i] = tabData[i*(total+1) : (i+1)*(total+1)]
		copy(tab[i], coef[i])
		tab[i][total] = rhs[i]
		switch rel[i] {
		case LE:
			tab[i][si] = 1
			basis[i] = si
			si++
		case GE:
			tab[i][si] = -1
			si++
			tab[i][ai] = 1
			basis[i] = ai
			ai++
		case EQ:
			tab[i][ai] = 1
			basis[i] = ai
			ai++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		cost := make([]float64, total)
		for j := artStart; j < total; j++ {
			cost[j] = 1
		}
		obj, stat := simplexRun(tab, basis, cost, total)
		if stat == Unbounded {
			return Solution{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		if obj > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > 1e-7 {
					pivot(tab, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is redundant; zero it so it cannot interfere.
				for j := 0; j <= total; j++ {
					tab[i][j] = 0
				}
				basis[i] = -1
			}
		}
		// Forbid artificials from re-entering by zeroing their columns.
		for i := 0; i < m; i++ {
			for j := artStart; j < total; j++ {
				tab[i][j] = 0
			}
		}
	}

	// Phase 2: original objective over the shifted variables.
	cost := make([]float64, total)
	copy(cost, p.obj)
	_, stat := simplexRun(tab, basis, cost, total)
	if stat == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	copy(x, lo)
	for i := 0; i < m; i++ {
		if b := basis[i]; b >= 0 && b < n {
			x[b] = lo[b] + tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.obj[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: objVal}, nil
}

// simplexRun runs the primal simplex on the tableau with the given cost
// vector, returning the final objective value and a status (Optimal or
// Unbounded). It uses Dantzig's rule with a switch to Bland's rule after
// a stall threshold, which guarantees termination.
func simplexRun(tab [][]float64, basis []int, cost []float64, total int) (float64, Status) {
	m := len(tab)
	// Reduced costs row.
	z := make([]float64, total+1)
	copy(z, cost)
	for i := 0; i < m; i++ {
		if b := basis[i]; b >= 0 && cost[b] != 0 {
			c := cost[b]
			for j := 0; j <= total; j++ {
				z[j] -= c * tab[i][j]
			}
		}
	}

	maxIter := 200 * (m + total + 10)
	bland := false
	for iter := 0; ; iter++ {
		if iter > maxIter/2 {
			bland = true
		}
		if iter > maxIter {
			// Extremely defensive; with Bland's rule this cannot cycle,
			// so hitting the cap means numerical trouble. Report the
			// current point as optimal-so-far.
			return -z[total], Optimal
		}
		// Entering column.
		col := -1
		if bland {
			for j := 0; j < total; j++ {
				if z[j] < -eps {
					col = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < total; j++ {
				if z[j] < best {
					best = z[j]
					col = j
				}
			}
		}
		if col < 0 {
			return -z[total], Optimal
		}
		// Leaving row (minimum ratio).
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][col]
			if a > eps {
				r := tab[i][total] / a
				if r < bestRatio-eps || (r < bestRatio+eps && (row < 0 || basis[i] < basis[row])) {
					bestRatio = r
					row = i
				}
			}
		}
		if row < 0 {
			return 0, Unbounded
		}
		pivot(tab, basis, row, col, total)
		// Update reduced costs.
		zc := z[col]
		if zc != 0 {
			for j := 0; j <= total; j++ {
				z[j] -= zc * tab[row][j]
			}
		}
	}
}

// pivot performs a Gauss-Jordan pivot on tab[row][col].
func pivot(tab [][]float64, basis []int, row, col, total int) {
	p := tab[row][col]
	inv := 1 / p
	for j := 0; j <= total; j++ {
		tab[row][j] *= inv
	}
	tab[row][col] = 1 // fight rounding
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
		tab[i][col] = 0
	}
	basis[row] = col
}
