package lp

import "math"

// MIPOptions bound the branch-and-bound search of SolveMIP.
type MIPOptions struct {
	// MaxNodes caps the number of explored nodes; 0 means 1<<20. It is
	// the search's only budget, so a result depends on its input alone.
	MaxNodes int
}

// integralityTol is the tolerance for treating a relaxation value as
// integral.
const integralityTol = 1e-6

// SolveMIP solves the problem respecting integer variable markers using
// depth-first branch-and-bound over LP relaxations. If the budget is
// exhausted before optimality is proven, the best incumbent is returned
// with Status == Feasible; if no incumbent was found the status is
// Infeasible (which is then only "infeasible within budget").
func (p *Problem) SolveMIP(opts MIPOptions) (Solution, error) {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 1 << 20
	}

	type node struct {
		lo, hi []float64
	}
	root := node{lo: append([]float64(nil), p.lo...), hi: append([]float64(nil), p.hi...)}
	stack := []node{root}

	var best Solution
	best.Status = Infeasible
	best.Objective = math.Inf(1)
	nodes := 0
	proven := true

	for len(stack) > 0 {
		if nodes >= maxNodes {
			proven = false
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		rel, err := p.solveRelaxation(nd.lo, nd.hi)
		if err != nil {
			return Solution{}, err
		}
		if rel.Status == Infeasible {
			continue
		}
		if rel.Status == Unbounded {
			// An unbounded relaxation of a node with all-finite integer
			// bounds means the continuous part is unbounded; the MIP is
			// unbounded too.
			return Solution{Status: Unbounded, Nodes: nodes}, nil
		}
		if rel.Objective >= best.Objective-1e-9 {
			continue // bound: cannot improve the incumbent
		}

		// Find the most fractional integer variable.
		frac := -1
		fracDist := 0.0
		for j, isInt := range p.integer {
			if !isInt {
				continue
			}
			v := rel.X[j]
			d := math.Abs(v - math.Round(v))
			if d > integralityTol && d > fracDist {
				frac, fracDist = j, d
			}
		}
		if frac < 0 {
			// Integral: new incumbent. Round the integer coordinates to
			// exact values.
			x := append([]float64(nil), rel.X...)
			for j, isInt := range p.integer {
				if isInt {
					x[j] = math.Round(x[j])
				}
			}
			obj := 0.0
			for j := range x {
				obj += p.obj[j] * x[j]
			}
			if obj < best.Objective {
				best = Solution{Status: Optimal, X: x, Objective: obj}
			}
			continue
		}

		// Branch. Explore the branch closer to the relaxation value
		// first (it is pushed last, so popped first).
		v := rel.X[frac]
		down := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		down.hi[frac] = math.Floor(v)
		up := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		up.lo[frac] = math.Ceil(v)
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}

	best.Nodes = nodes
	if best.Status == Optimal && !proven {
		best.Status = Feasible
	}
	return best, nil
}
