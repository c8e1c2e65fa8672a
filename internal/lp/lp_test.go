package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestSimpleLP: min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2 ->
// x=2, y=2, obj=-6.
func TestSimpleLP(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(-1, 0, 3, false)
	y := p.AddVariable(-2, 0, 2, false)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, -6) || !approx(s.X[x], 2) || !approx(s.X[y], 2) {
		t.Fatalf("got obj %v x %v y %v", s.Objective, s.X[x], s.X[y])
	}
}

// TestEqualityAndGE: min x + y s.t. x + y = 10, x >= 3, y >= 2 ->
// obj = 10, with x >= 3 and y >= 2 respected.
func TestEqualityAndGE(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 3, math.Inf(1), false)
	y := p.AddVariable(1, 2, math.Inf(1), false)
	p.AddConstraint(EQ, 10, Term{x, 1}, Term{y, 1})
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 10) {
		t.Fatalf("status %v obj %v", s.Status, s.Objective)
	}
	if s.X[x] < 3-1e-9 || s.X[y] < 2-1e-9 {
		t.Fatalf("bounds violated: %v", s.X)
	}
}

// TestGEConstraint: min 2x + 3y s.t. x + y >= 5, x - y >= -2 (i.e.
// y - x <= 2). Optimum at intersection-ish; solve by hand: cheapest is
// to use x as much as possible: y - x <= 2 and x + y >= 5 allow y = 0,
// x = 5 -> check y - x = -5 <= 2 ok. obj = 10.
func TestGEConstraint(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(2, 0, math.Inf(1), false)
	y := p.AddVariable(3, 0, math.Inf(1), false)
	p.AddConstraint(GE, 5, Term{x, 1}, Term{y, 1})
	p.AddConstraint(GE, -2, Term{x, 1}, Term{y, -1})
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 10) {
		t.Fatalf("status %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 1, false)
	p.AddConstraint(GE, 5, Term{x, 1})
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 4, false)
	_ = x
	s, err := p.solveRelaxation([]float64{3}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(-1, 0, math.Inf(1), false)
	y := p.AddVariable(0, 0, 1, false)
	p.AddConstraint(LE, 1, Term{y, 1}) // does not bound x
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	_ = x
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -1 with minimize x, x,y in [0, 5] -> x = 0, y >= 1.
	p := NewProblem()
	x := p.AddVariable(1, 0, 5, false)
	y := p.AddVariable(0, 0, 5, false)
	p.AddConstraint(LE, -1, Term{x, 1}, Term{y, -1})
	s, err := p.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.X[x], 0) || s.X[y] < 1-1e-6 {
		t.Fatalf("status %v x %v", s.Status, s.X)
	}
}

// TestKnapsackMIP: classic 0/1 knapsack, small enough to verify by hand.
// Values 60,100,120 weights 10,20,30 cap 50 -> best 220 (items 2,3).
func TestKnapsackMIP(t *testing.T) {
	p := NewProblem()
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	vars := make([]int, 3)
	terms := make([]Term, 3)
	for i := range vals {
		vars[i] = p.AddBinary(-vals[i]) // maximize value = minimize -value
		terms[i] = Term{vars[i], wts[i]}
	}
	p.AddConstraint(LE, 50, terms...)
	s, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -220) {
		t.Fatalf("status %v obj %v x %v", s.Status, s.Objective, s.X)
	}
	if !approx(s.X[vars[0]], 0) || !approx(s.X[vars[1]], 1) || !approx(s.X[vars[2]], 1) {
		t.Fatalf("selection = %v, want [0 1 1]", s.X)
	}
}

// TestMIPIntegerRounding: LP relaxation is fractional, MIP must branch.
// max x + y s.t. 2x + 2y <= 3, x,y binary -> best is 1 (one of them).
func TestMIPIntegerRounding(t *testing.T) {
	p := NewProblem()
	x := p.AddBinary(-1)
	y := p.AddBinary(-1)
	p.AddConstraint(LE, 3, Term{x, 2}, Term{y, 2})
	s, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -1) {
		t.Fatalf("status %v obj %v", s.Status, s.Objective)
	}
}

// TestMIPMixed: continuous + integer variables together.
// min 2y - 3x with x in [0, 2.5] continuous, y integer in [0, 10],
// x <= y. For each y the best x is min(2.5, y), so f(y) = 2y - 3min(2.5,y)
// is minimized at y = 2, x = 2 with objective -2. The LP relaxation sits
// at the fractional point x = y = 2.5 (objective -2.5), so branching is
// required.
func TestMIPMixed(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(-3, 0, 2.5, false)
	y := p.AddVariable(2, 0, 10, true)
	p.AddConstraint(GE, 0, Term{y, 1}, Term{x, -1})
	s, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -2) || !approx(s.X[y], 2) {
		t.Fatalf("status %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestMIPInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddBinary(1)
	y := p.AddBinary(1)
	p.AddConstraint(EQ, 1, Term{x, 2}, Term{y, 2}) // parity conflict
	s, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestMIPBudget(t *testing.T) {
	// A problem that needs branching, with a 1-node budget: should
	// report no proven optimum.
	p := NewProblem()
	vars := make([]Term, 8)
	for i := range vars {
		v := p.AddBinary(-1)
		vars[i] = Term{v, 1.5}
	}
	p.AddConstraint(LE, 7, vars...)
	s, err := p.SolveMIP(MIPOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal {
		t.Fatalf("status = optimal with a 1-node budget")
	}
	s2, err := p.SolveMIP(MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Status != Optimal || !approx(s2.Objective, -4) {
		t.Fatalf("full solve: status %v obj %v", s2.Status, s2.Objective)
	}
}

func TestSetObjectiveAndBounds(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 10, false)
	p.AddConstraint(GE, 2, Term{x, 1})
	s, _ := p.SolveLP()
	if !approx(s.X[x], 2) {
		t.Fatalf("x = %v, want 2", s.X[x])
	}
	p.SetObjective(x, -1)
	s, _ = p.SolveLP()
	if !approx(s.X[x], 10) {
		t.Fatalf("after SetObjective x = %v, want 10", s.X[x])
	}
	p.SetBounds(x, 0, 5)
	s, _ = p.SolveLP()
	if !approx(s.X[x], 5) {
		t.Fatalf("after SetBounds x = %v, want 5", s.X[x])
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible",
		Infeasible: "infeasible", Unbounded: "unbounded", Status(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestPanics(t *testing.T) {
	p := NewProblem()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("inf lower bound", func() { p.AddVariable(0, math.Inf(-1), 0, false) })
	mustPanic("inverted bounds", func() { p.AddVariable(0, 1, 0, false) })
	mustPanic("unknown var in constraint", func() { p.AddConstraint(LE, 0, Term{5, 1}) })
	x := p.AddVariable(0, 0, 1, false)
	mustPanic("inverted SetBounds", func() { p.SetBounds(x, 2, 1) })
}

// bruteForceLP solves min c·x over a box with a handful of ≤ constraints
// by dense grid search, as an independent oracle for random tests.
func bruteForceLP(c []float64, rows [][]float64, rhs []float64, steps int) float64 {
	n := len(c)
	best := math.Inf(1)
	var rec func(i int, x []float64)
	rec = func(i int, x []float64) {
		if i == n {
			for r := range rows {
				s := 0.0
				for j := 0; j < n; j++ {
					s += rows[r][j] * x[j]
				}
				if s > rhs[r]+1e-9 {
					return
				}
			}
			v := 0.0
			for j := 0; j < n; j++ {
				v += c[j] * x[j]
			}
			if v < best {
				best = v
			}
			return
		}
		for s := 0; s <= steps; s++ {
			x[i] = float64(s) / float64(steps)
			rec(i+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best
}

// TestLPPropertyVsGrid: on random small box-constrained LPs the simplex
// optimum must be <= the best grid point (grid points are feasible
// candidates) and every constraint must hold at the solution.
func TestLPPropertyVsGrid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		m := 1 + rng.Intn(3)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 2
			}
			rhs[i] = 0.5 + rng.Float64()*2
		}
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddVariable(c[j], 0, 1, false)
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{j, rows[i][j]}
			}
			p.AddConstraint(LE, rhs[i], terms...)
		}
		s, err := p.SolveLP()
		if err != nil || s.Status != Optimal {
			t.Logf("seed %d: err %v status %v", seed, err, s.Status)
			return false
		}
		// Feasibility.
		for i := 0; i < m; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += rows[i][j] * s.X[j]
			}
			if sum > rhs[i]+1e-6 {
				t.Logf("seed %d: constraint %d violated by %v", seed, i, sum-rhs[i])
				return false
			}
		}
		grid := bruteForceLP(c, rows, rhs, 8)
		if s.Objective > grid+1e-6 {
			t.Logf("seed %d: simplex %v worse than grid %v", seed, s.Objective, grid)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMIPPropertyVsEnumeration: on random small binary programs the
// branch-and-bound optimum must equal exhaustive enumeration.
func TestMIPPropertyVsEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4) // up to 5 binaries
		m := 1 + rng.Intn(3)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64()*3 - 1
			}
			rhs[i] = rng.Float64() * 2
		}
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddBinary(c[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{j, rows[i][j]}
			}
			p.AddConstraint(LE, rhs[i], terms...)
		}
		s, err := p.SolveMIP(MIPOptions{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Enumerate.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for i := 0; i < m && ok; i++ {
				sum := 0.0
				for j := 0; j < n; j++ {
					if mask>>j&1 == 1 {
						sum += rows[i][j]
					}
				}
				if sum > rhs[i]+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			v := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					v += c[j]
				}
			}
			if v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			return s.Status == Infeasible
		}
		if s.Status != Optimal {
			t.Logf("seed %d: status %v, enumeration found %v", seed, s.Status, best)
			return false
		}
		if math.Abs(s.Objective-best) > 1e-6 {
			t.Logf("seed %d: mip %v enum %v", seed, s.Objective, best)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
