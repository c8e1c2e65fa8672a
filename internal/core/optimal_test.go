package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestOptimalSection3TwoBackends: the read-only example is balanceable
// with scale 1 and the space-minimal solution replicates only relation B
// (degree of replication 4/3), exactly as the paper argues.
func TestOptimalSection3TwoBackends(t *testing.T) {
	cl := section3Classification()
	res, err := Optimal(cl, UniformBackends(2), OptimalOptions{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if !res.ScaleProven || !res.SpaceProven {
		t.Fatalf("optimality not proven: %+v", res)
	}
	if !almostEq(res.Scale, 1) {
		t.Fatalf("Scale = %v, want 1", res.Scale)
	}
	a := res.Allocation
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !almostEq(a.DegreeOfReplication(), 4.0/3) {
		t.Fatalf("DegreeOfReplication = %v, want 4/3 (paper: replicate only B)", a.DegreeOfReplication())
	}
	if !almostEq(a.Speedup(), 2) {
		t.Fatalf("Speedup = %v, want 2", a.Speedup())
	}
}

// TestOptimalSection3FourBackends: scale 1 (speedup 4) with minimal
// space. Only C1's 30% must be split, so exactly one extra copy of A and
// one extra copy of either A or B is needed: optimal total size is 5
// (degree 5/3).
func TestOptimalSection3FourBackends(t *testing.T) {
	cl := section3Classification()
	res, err := Optimal(cl, UniformBackends(4), OptimalOptions{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if !almostEq(res.Scale, 1) {
		t.Fatalf("Scale = %v, want 1", res.Scale)
	}
	a := res.Allocation
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r := a.DegreeOfReplication(); res.SpaceProven && r > 5.0/3+1e-6 {
		t.Fatalf("DegreeOfReplication = %v, want <= 5/3", r)
	}
}

// TestOptimalAppendixAUpdates: the heterogeneous update-aware instance.
// The paper's Figure 7 shows an optimal allocation; the minimal scale
// for these weights is 1.24 is the greedy result, but the optimum can be
// lower. We check that the optimal scale is <= the greedy scale and that
// the Eq. 17 bound holds.
func TestOptimalAppendixAUpdates(t *testing.T) {
	cl := appendixAClassification()
	backends := []Backend{{"B1", 0.30}, {"B2", 0.30}, {"B3", 0.20}, {"B4", 0.20}}
	res, err := Optimal(cl, backends, OptimalOptions{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	a := res.Allocation
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	greedy, err := Greedy(cl, backends)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if res.Scale > greedy.Scale()+1e-6 {
		t.Fatalf("optimal scale %v worse than greedy %v", res.Scale, greedy.Scale())
	}
	if a.Speedup() > cl.MaxSpeedup()+1e-6 {
		t.Fatalf("speedup %v above Eq. 17 bound %v", a.Speedup(), cl.MaxSpeedup())
	}
}

// TestOptimalHomogeneousFigure7: the homogeneous variant of Appendix A
// (Figure 7 top): four backends with 25% each. The figure's allocation
// reaches scale 1.24-ish; verify the solver is at least as good and the
// allocation is valid.
func TestOptimalHomogeneousFigure7(t *testing.T) {
	cl := appendixAClassification()
	res, err := Optimal(cl, UniformBackends(4), OptimalOptions{})
	if err != nil {
		t.Fatalf("Optimal: %v", err)
	}
	if err := res.Allocation.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Figure 7's allocation yields a maximum backend load of about 30%
	// (B1: Q1 24% split...). The provable lower bound from Eq. 17: the
	// class with the heaviest related update weight is Q4 or U2's
	// cluster; scale >= 4 * max per-backend mandatory load. We simply
	// require a speedup of at least 3 here (the paper's figure implies
	// speedup 4/1.2 ≈ 3.33 or better is impossible only if updates
	// force more).
	if s := res.Allocation.Speedup(); s < 3 {
		t.Fatalf("Speedup = %v, want >= 3", s)
	}
}

// TestOptimalReadOnlySpeedupIsLinear: for read-only workloads the
// optimal scale is always 1 (Section 3.2.1).
func TestOptimalReadOnlySpeedupIsLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := NewClassification()
		nf := 2 + rng.Intn(3)
		for i := 0; i < nf; i++ {
			cl.AddFragment(Fragment{ID: FragmentID(rune('a' + i)), Size: 1 + rng.Float64()*5})
		}
		nc := 1 + rng.Intn(4)
		for i := 0; i < nc; i++ {
			cl.MustAddClass(NewClass(
				"Q"+string(rune('0'+i)), Read, 0.1+rng.Float64(),
				FragmentID(rune('a'+rng.Intn(nf)))))
		}
		if err := cl.Normalize(); err != nil {
			return false
		}
		n := 2 + rng.Intn(2)
		res, err := Optimal(cl, UniformBackends(n), OptimalOptions{SkipSpacePhase: true, MaxNodes: 20000})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if math.Abs(res.Scale-1) > 1e-6 {
			t.Logf("seed %d: scale %v", seed, res.Scale)
			return false
		}
		return res.Allocation.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalNeverWorseThanGreedy: on random small instances the proven
// optimal scale must be <= the greedy heuristic's scale, and the proven
// space under equal scale must be <= greedy's when greedy achieved the
// optimal scale.
func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := NewClassification()
		nf := 2 + rng.Intn(3)
		for i := 0; i < nf; i++ {
			cl.AddFragment(Fragment{ID: FragmentID(rune('a' + i)), Size: 1 + rng.Float64()*3})
		}
		nc := 2 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			k := Read
			if rng.Float64() < 0.4 {
				k = Update
			}
			cl.MustAddClass(NewClass(
				"C"+string(rune('0'+i)), k, 0.1+rng.Float64(),
				FragmentID(rune('a'+rng.Intn(nf)))))
		}
		if err := cl.Normalize(); err != nil {
			return false
		}
		n := 2 + rng.Intn(2)
		res, err := Optimal(cl, UniformBackends(n), OptimalOptions{MaxNodes: 20000})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		g, err := Greedy(cl, UniformBackends(n))
		if err != nil {
			t.Logf("seed %d greedy: %v", seed, err)
			return false
		}
		if res.ScaleProven && res.Scale > g.Scale()+1e-6 {
			t.Logf("seed %d: optimal scale %v > greedy %v", seed, res.Scale, g.Scale())
			return false
		}
		if res.ScaleProven && res.SpaceProven &&
			math.Abs(g.Scale()-res.Scale) < 1e-9 &&
			res.Allocation.TotalDataSize() > g.TotalDataSize()+1e-6 {
			t.Logf("seed %d: optimal space %v > greedy %v at equal scale", seed,
				res.Allocation.TotalDataSize(), g.TotalDataSize())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalErrors(t *testing.T) {
	cl := section3Classification()
	if _, err := Optimal(cl, nil, OptimalOptions{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := Optimal(cl, []Backend{{"b", 0.4}}, OptimalOptions{}); err == nil {
		t.Error("non-normalized loads accepted")
	}
	if _, err := Optimal(NewClassification(), UniformBackends(2), OptimalOptions{}); err == nil {
		t.Error("empty classification accepted")
	}
	if _, err := Optimal(cl, []Backend{{"a", 1}, {"b", 0}}, OptimalOptions{}); err == nil {
		t.Error("zero-load backend accepted")
	}
}
