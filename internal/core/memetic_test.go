package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemeticSection3(t *testing.T) {
	cl := section3Classification()
	a, err := Memetic(cl, UniformBackends(4), MemeticOptions{Iterations: 20})
	if err != nil {
		t.Fatalf("Memetic: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !almostEq(a.Speedup(), 4) {
		t.Fatalf("Speedup = %v, want 4", a.Speedup())
	}
	g, _ := Greedy(cl, UniformBackends(4))
	if CostOf(g).Less(CostOf(a)) {
		t.Fatalf("memetic cost %+v worse than greedy %+v", CostOf(a), CostOf(g))
	}
}

// TestMemeticNeverWorseThanGreedy: the defining property of Algorithm 2
// seeded with the greedy solution.
func TestMemeticNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := randomClassification(rng)
		n := 2 + rng.Intn(4)
		g, err := Greedy(cl, UniformBackends(n))
		if err != nil {
			return false
		}
		m, err := Memetic(cl, UniformBackends(n), MemeticOptions{Iterations: 10, Population: 6, Seed: seed + 1})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := m.Validate(); err != nil {
			t.Logf("seed %d: invalid: %v", seed, err)
			return false
		}
		if CostOf(g).Less(CostOf(m)) {
			t.Logf("seed %d: memetic %+v worse than greedy %+v", seed, CostOf(m), CostOf(g))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMemeticImprovesReplicatedUpdates: construct a case where greedy
// leaves avoidable update replication and check the memetic algorithm
// removes it. Two read classes over the same fragment with a heavy
// update: the paper's local search should concentrate them.
func TestMemeticImprovesOrMatchesScale(t *testing.T) {
	cl := NewClassification()
	for _, f := range []string{"a", "b", "c", "d"} {
		cl.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cl.MustAddClass(NewClass("Q1", Read, 0.20, "a"))
	cl.MustAddClass(NewClass("Q2", Read, 0.18, "a", "b"))
	cl.MustAddClass(NewClass("Q3", Read, 0.17, "c"))
	cl.MustAddClass(NewClass("Q4", Read, 0.15, "d"))
	cl.MustAddClass(NewClass("U1", Update, 0.18, "a"))
	cl.MustAddClass(NewClass("U2", Update, 0.07, "c"))
	cl.MustAddClass(NewClass("U3", Update, 0.05, "d"))
	if err := cl.Normalize(); err != nil {
		t.Fatal(err)
	}
	n := 3
	g, err := Greedy(cl, UniformBackends(n))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Memetic(cl, UniformBackends(n), MemeticOptions{Iterations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale() > g.Scale()+1e-9 {
		t.Fatalf("memetic scale %v worse than greedy %v", m.Scale(), g.Scale())
	}
	if m.Speedup() > cl.MaxSpeedup()+1e-6 {
		t.Fatalf("speedup %v above bound %v", m.Speedup(), cl.MaxSpeedup())
	}
}

func TestMemeticFromInvalid(t *testing.T) {
	cl := section3Classification()
	bad := NewAllocation(cl, UniformBackends(2)) // nothing assigned
	if _, err := MemeticFrom(bad, MemeticOptions{}); err == nil {
		t.Fatal("invalid initial solution accepted")
	}
}

func TestCostLess(t *testing.T) {
	a := Cost{Scale: 1.0, Size: 10}
	b := Cost{Scale: 1.2, Size: 5}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("scale must dominate size")
	}
	c := Cost{Scale: 1.0, Size: 9}
	if !c.Less(a) || a.Less(c) {
		t.Fatal("size breaks scale ties")
	}
	if a.Less(a) {
		t.Fatal("cost less than itself")
	}
}

// TestPruneBackend: after removing the only read share, prune drops the
// data and duplicate update assignments but keeps sole update replicas.
func TestPruneBackend(t *testing.T) {
	cl := NewClassification()
	cl.AddFragment(Fragment{ID: "a", Size: 1})
	cl.AddFragment(Fragment{ID: "b", Size: 1})
	cl.MustAddClass(NewClass("q", Read, 0.6, "a"))
	cl.MustAddClass(NewClass("u", Update, 0.4, "a"))
	a := NewAllocation(cl, UniformBackends(2))
	// Both backends hold everything; read runs only on backend 0.
	for b := 0; b < 2; b++ {
		a.AddFragments(b, "a", "b")
		a.SetAssign(b, "u", 0.4)
	}
	a.SetAssign(0, "q", 0.6)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	pruneBackend(a, 1)
	if a.Assign(1, "u") != 0 {
		t.Fatal("duplicate update replica not pruned")
	}
	if a.HasFragment(1, "a") || a.HasFragment(1, "b") {
		t.Fatal("orphaned fragments not pruned")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate after prune: %v", err)
	}
	// Pruning the only replica must keep it.
	pruneBackend(a, 0)
	if a.Assign(0, "u") == 0 {
		t.Fatal("sole update replica was pruned")
	}
}

func TestRebalanceReads(t *testing.T) {
	cl := section3Classification()
	a, err := Greedy(cl, UniformBackends(2))
	if err != nil {
		t.Fatal(err)
	}
	// Skew the assignment badly, then rebalance.
	w := a.Assign(0, "C1")
	if w == 0 {
		t.Skip("layout differs")
	}
	// Move all of C4 onto backend 0's partner if possible; simply check
	// rebalance restores scale 1.
	if err := RebalanceReads(a); err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.Scale(), 1) {
		t.Fatalf("scale after rebalance = %v", a.Scale())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupUnderDrift(t *testing.T) {
	// Build the Figure 2 four-backend allocation by hand: B1: C1 25%,
	// B2: C1 5% + C4 20%, B3: C2 25%, B4: C3 25%.
	cl := section3Classification()
	a := NewAllocation(cl, UniformBackends(4))
	a.AddFragments(0, "A")
	a.SetAssign(0, "C1", 0.25)
	a.AddFragments(1, "A", "B")
	a.SetAssign(1, "C1", 0.05)
	a.SetAssign(1, "C4", 0.20)
	a.AddFragments(2, "B")
	a.SetAssign(2, "C2", 0.25)
	a.AddFragments(3, "C")
	a.SetAssign(3, "C3", 0.25)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Section 5: raising C3 from 25% to 27% drops the speedup to
	// 4/1.08 = 3.7037...
	s, err := SpeedupUnderDrift(a, map[string]float64{"C3": 0.27})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-4/1.08) > 1e-9 {
		t.Fatalf("speedup = %v, want %v (paper: 3.7)", s, 4/1.08)
	}
	// No drift: speedup 4.
	s, err = SpeedupUnderDrift(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s, 4) {
		t.Fatalf("speedup = %v, want 4", s)
	}
	// Errors.
	if _, err := SpeedupUnderDrift(a, map[string]float64{"nope": 0.1}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := SpeedupUnderDrift(a, map[string]float64{"C3": -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestShiftableWeightAndRobustness(t *testing.T) {
	cl := section3Classification()
	a, err := Greedy(cl, UniformBackends(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := EnsureRobustness(a, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for b := 0; b < 4; b++ {
		if sw := ShiftableWeight(a, b); sw < 0.5*a.AssignedLoad(b)-Eps {
			t.Fatalf("backend %d shiftable %v < 50%% of %v", b, sw, a.AssignedLoad(b))
		}
	}
	if err := EnsureRobustness(a, 2); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	// Single backend: no-op.
	one, _ := Greedy(cl, UniformBackends(1))
	if err := EnsureRobustness(one, 0.9); err != nil {
		t.Fatal(err)
	}
}
