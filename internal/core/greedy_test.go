package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// section3Classification builds the read-only example of Section 3 /
// Figure 2: relations A, B, C of equal size and four read classes
// C1(A, 30%), C2(B, 25%), C3(C, 25%), C4(AB, 20%).
func section3Classification() *Classification {
	cl := NewClassification()
	for _, f := range []string{"A", "B", "C"} {
		cl.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cl.MustAddClass(NewClass("C1", Read, 0.30, "A"))
	cl.MustAddClass(NewClass("C2", Read, 0.25, "B"))
	cl.MustAddClass(NewClass("C3", Read, 0.25, "C"))
	cl.MustAddClass(NewClass("C4", Read, 0.20, "A", "B"))
	return cl
}

// appendixAClassification builds the update-aware example of Appendix A:
// tables A, B, C of size 1, reads Q1(A,24%), Q2(B,20%), Q3(C,20%),
// Q4(AB,16%) and updates U1(A,4%), U2(B,10%), U3(C,6%).
func appendixAClassification() *Classification {
	cl := NewClassification()
	for _, f := range []string{"A", "B", "C"} {
		cl.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cl.MustAddClass(NewClass("Q1", Read, 0.24, "A"))
	cl.MustAddClass(NewClass("Q2", Read, 0.20, "B"))
	cl.MustAddClass(NewClass("Q3", Read, 0.20, "C"))
	cl.MustAddClass(NewClass("Q4", Read, 0.16, "A", "B"))
	cl.MustAddClass(NewClass("U1", Update, 0.04, "A"))
	cl.MustAddClass(NewClass("U2", Update, 0.10, "B"))
	cl.MustAddClass(NewClass("U3", Update, 0.06, "C"))
	return cl
}

// TestSection3ExampleTwoBackends checks the 2-backend allocation of the
// paper's Section 3 example: B1{A,B} handling C1+C4 = 50% and B2{B,C}
// handling C2+C3 = 50%, speedup 2, with only relation B replicated.
func TestSection3ExampleTwoBackends(t *testing.T) {
	cl := section3Classification()
	a, err := Greedy(cl, UniformBackends(2))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !almostEq(a.Scale(), 1) {
		t.Fatalf("Scale = %v, want 1 (theoretical speedup 2)", a.Scale())
	}
	if !almostEq(a.Speedup(), 2) {
		t.Fatalf("Speedup = %v, want 2", a.Speedup())
	}
	if !almostEq(a.AssignedLoad(0), 0.5) || !almostEq(a.AssignedLoad(1), 0.5) {
		t.Fatalf("loads = %v %v, want 0.5 0.5 (paper's table)", a.AssignedLoad(0), a.AssignedLoad(1))
	}
	// Paper: "only one relation has to be replicated instead of all
	// three": degree of replication 4/3.
	if !almostEq(a.DegreeOfReplication(), 4.0/3) {
		t.Fatalf("DegreeOfReplication = %v, want 4/3", a.DegreeOfReplication())
	}
	// The paper's exact placement: C1 and C4 together on one backend,
	// C2 and C3 on the other.
	b1 := 0
	if a.Assign(0, "C1") == 0 {
		b1 = 1
	}
	b2 := 1 - b1
	if !almostEq(a.Assign(b1, "C1"), 0.30) || !almostEq(a.Assign(b1, "C4"), 0.20) {
		t.Fatalf("backend %d: C1=%v C4=%v, want 0.30/0.20", b1, a.Assign(b1, "C1"), a.Assign(b1, "C4"))
	}
	if !almostEq(a.Assign(b2, "C2"), 0.25) || !almostEq(a.Assign(b2, "C3"), 0.25) {
		t.Fatalf("backend %d: C2=%v C3=%v, want 0.25/0.25", b2, a.Assign(b2, "C2"), a.Assign(b2, "C3"))
	}
}

// TestSection3ExampleFourBackends checks the 4-backend variant: every
// backend gets exactly 25% of the workload (theoretical speedup 4) and
// the degree of replication stays far below full replication.
func TestSection3ExampleFourBackends(t *testing.T) {
	cl := section3Classification()
	a, err := Greedy(cl, UniformBackends(4))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for b := 0; b < 4; b++ {
		if !almostEq(a.AssignedLoad(b), 0.25) {
			t.Fatalf("backend %d load = %v, want 0.25", b, a.AssignedLoad(b))
		}
	}
	if !almostEq(a.Speedup(), 4) {
		t.Fatalf("Speedup = %v, want 4", a.Speedup())
	}
	// Full replication would be 4; the paper replicates only two extra
	// tables (degree 5/3 in our deterministic run, and never above 2).
	if r := a.DegreeOfReplication(); r > 2+1e-9 {
		t.Fatalf("DegreeOfReplication = %v, want <= 2", r)
	}
}

// TestAppendixAExample replays the complete heterogeneous worked example
// of Appendix A and checks the final allocation and load matrices
// digit-for-digit against the paper.
func TestAppendixAExample(t *testing.T) {
	cl := appendixAClassification()
	backends := []Backend{
		{Name: "B1", Load: 0.30},
		{Name: "B2", Load: 0.30},
		{Name: "B3", Load: 0.20},
		{Name: "B4", Load: 0.20},
	}
	a, err := Greedy(cl, backends)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Final allocation matrix (Appendix A):
	//        A B C
	//   B1   1 1 0
	//   B2   0 1 1
	//   B3   1 0 0
	//   B4   0 0 1
	wantFrags := [][]FragmentID{
		{"A", "B"},
		{"B", "C"},
		{"A"},
		{"C"},
	}
	for b, want := range wantFrags {
		got := a.Fragments(b)
		if len(got) != len(want) {
			t.Fatalf("backend %s fragments = %v, want %v", backends[b].Name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("backend %s fragments = %v, want %v", backends[b].Name, got, want)
			}
		}
	}

	// Final load matrix (percent):
	//        Q1    Q2   Q3    Q4   U1   U2   U3   Overall
	//   B1   7.2   0    0     16   4    10   0    37.2
	//   B2   0     20   1.2   0    0    10   6    37.2
	//   B3   16.8  0    0     0    4    0    0    20.8
	//   B4   0     0    18.8  0    0    0    6    24.8
	want := map[string][4]float64{
		"Q1": {0.072, 0, 0.168, 0},
		"Q2": {0, 0.20, 0, 0},
		"Q3": {0, 0.012, 0, 0.188},
		"Q4": {0.16, 0, 0, 0},
		"U1": {0.04, 0, 0.04, 0},
		"U2": {0.10, 0.10, 0, 0},
		"U3": {0, 0.06, 0, 0.06},
	}
	for name, row := range want {
		for b := 0; b < 4; b++ {
			if got := a.Assign(b, name); math.Abs(got-row[b]) > 1e-9 {
				t.Errorf("assign(%s, %s) = %v, want %v", name, backends[b].Name, got, row[b])
			}
		}
	}
	wantLoads := []float64{0.372, 0.372, 0.208, 0.248}
	for b, w := range wantLoads {
		if got := a.AssignedLoad(b); math.Abs(got-w) > 1e-9 {
			t.Errorf("assignedLoad(%s) = %v, want %v", backends[b].Name, got, w)
		}
	}
	if !almostEq(a.Scale(), 1.24) {
		t.Errorf("Scale = %v, want 1.24", a.Scale())
	}
	// Eq. 19: speedup = |B|/scale = 4/1.24.
	if !almostEq(a.Speedup(), 4/1.24) {
		t.Errorf("Speedup = %v, want %v", a.Speedup(), 4/1.24)
	}
}

// TestGreedySingleBackend: a single backend must receive everything.
func TestGreedySingleBackend(t *testing.T) {
	cl := appendixAClassification()
	a, err := Greedy(cl, UniformBackends(1))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if !almostEq(a.AssignedLoad(0), 1) {
		t.Fatalf("load = %v, want 1", a.AssignedLoad(0))
	}
	if !almostEq(a.DegreeOfReplication(), 1) {
		t.Fatalf("DegreeOfReplication = %v, want 1", a.DegreeOfReplication())
	}
	if !almostEq(a.Speedup(), 1) {
		t.Fatalf("Speedup = %v, want 1", a.Speedup())
	}
}

func TestGreedyErrors(t *testing.T) {
	cl := section3Classification()
	if _, err := Greedy(cl, nil); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := Greedy(cl, []Backend{{"b", 0.5}}); err == nil {
		t.Error("loads not summing to 1 accepted")
	}
	if _, err := GreedyKSafe(cl, UniformBackends(2), -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := GreedyKSafe(cl, UniformBackends(2), 2); err == nil {
		t.Error("k >= |B| accepted")
	}
	empty := NewClassification()
	if _, err := Greedy(empty, UniformBackends(2)); err == nil {
		t.Error("empty classification accepted")
	}
}

// TestGreedyUpdateOnlyClass: an update class with no overlapping read
// class must still be allocated (it is in C*).
func TestGreedyUpdateOnlyClass(t *testing.T) {
	cl := NewClassification()
	cl.AddFragment(Fragment{ID: "a", Size: 1})
	cl.AddFragment(Fragment{ID: "log", Size: 5})
	cl.MustAddClass(NewClass("q", Read, 0.6, "a"))
	cl.MustAddClass(NewClass("uLog", Update, 0.4, "log"))
	a, err := Greedy(cl, UniformBackends(2))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total := a.Assign(0, "uLog") + a.Assign(1, "uLog")
	if !almostEq(total, 0.4) {
		t.Fatalf("uLog assigned %v in total, want 0.4 (exactly one replica)", total)
	}
	if a.FragmentReplicas("log") != 1 {
		t.Fatalf("log replicated %d times, want 1 (write-heavy data is not replicated)", a.FragmentReplicas("log"))
	}
}

// TestGreedyTransitiveClosure: placing a read class must pull in update
// classes transitively. q references a; u1 covers {a,b}; u2 covers {b}.
// Any backend holding q must hold u1's b and therefore also be assigned
// u2 (Eq. 10).
func TestGreedyTransitiveClosure(t *testing.T) {
	cl := NewClassification()
	for _, f := range []string{"a", "b", "c"} {
		cl.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cl.MustAddClass(NewClass("q", Read, 0.5, "a"))
	cl.MustAddClass(NewClass("q2", Read, 0.2, "c"))
	cl.MustAddClass(NewClass("u1", Update, 0.2, "a", "b"))
	cl.MustAddClass(NewClass("u2", Update, 0.1, "b"))
	a, err := Greedy(cl, UniformBackends(2))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for b := 0; b < 2; b++ {
		if a.Assign(b, "q") > 0 {
			if !almostEq(a.Assign(b, "u1"), 0.2) || !almostEq(a.Assign(b, "u2"), 0.1) {
				t.Fatalf("backend %d holds q but u1=%v u2=%v", b, a.Assign(b, "u1"), a.Assign(b, "u2"))
			}
		}
	}
}

// TestGreedyHeavyReadSplit: a read class heavier than one backend's share
// must be split across several backends (the Section 3 four-backend case
// for C1).
func TestGreedyHeavyReadSplit(t *testing.T) {
	cl := NewClassification()
	cl.AddFragment(Fragment{ID: "a", Size: 1})
	cl.AddFragment(Fragment{ID: "b", Size: 1})
	cl.MustAddClass(NewClass("big", Read, 0.9, "a"))
	cl.MustAddClass(NewClass("small", Read, 0.1, "b"))
	a, err := Greedy(cl, UniformBackends(4))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !almostEq(a.Speedup(), 4) {
		t.Fatalf("Speedup = %v, want 4 (read-only is always balanceable)", a.Speedup())
	}
	n := 0
	for b := 0; b < 4; b++ {
		if a.Assign(b, "big") > 0 {
			n++
		}
	}
	if n < 4 {
		t.Fatalf("class big (90%%) spread over %d backends, want 4", n)
	}
}

// randomClassification builds a reproducible random classification for
// property tests.
func randomClassification(rng *rand.Rand) *Classification {
	cl := NewClassification()
	nf := 2 + rng.Intn(8)
	frags := make([]FragmentID, nf)
	for i := range frags {
		frags[i] = FragmentID(rune('a' + i))
		cl.AddFragment(Fragment{ID: frags[i], Size: 0.5 + rng.Float64()*9.5})
	}
	nc := 1 + rng.Intn(9)
	for i := 0; i < nc; i++ {
		k := Read
		if rng.Float64() < 0.35 {
			k = Update
		}
		nref := 1 + rng.Intn(3)
		set := make([]FragmentID, 0, nref)
		for j := 0; j < nref; j++ {
			set = append(set, frags[rng.Intn(nf)])
		}
		name := string(rune('Q'))
		if k == Update {
			name = "U"
		}
		cl.MustAddClass(NewClass(name+string(rune('0'+i)), k, 0.05+rng.Float64(), set...))
	}
	if err := cl.Normalize(); err != nil {
		panic(err)
	}
	return cl
}

// TestGreedyPropertyValid: for random classifications and cluster sizes,
// Greedy always returns a valid allocation with scale >= 1, speedup <=
// |B|, and (homogeneous case) speedup within the Eq. 17 bound.
func TestGreedyPropertyValid(t *testing.T) {
	f := func(seed int64, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := randomClassification(rng)
		n := int(nb%9) + 1
		a, err := Greedy(cl, UniformBackends(n))
		if err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		if err := a.Validate(); err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		if a.Scale() < 1-1e-9 {
			return false
		}
		if a.Speedup() > float64(n)+1e-9 {
			return false
		}
		if bound := cl.MaxSpeedup(); a.Speedup() > bound+1e-6 {
			t.Logf("seed %d n %d: speedup %v exceeds Eq.17 bound %v", seed, n, a.Speedup(), bound)
			return false
		}
		if err := a.CheckAggregates(); err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyPropertyHeterogeneous: random heterogeneous loads keep the
// allocation valid.
func TestGreedyPropertyHeterogeneous(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := randomClassification(rng)
		n := 2 + rng.Intn(5)
		bs := make([]Backend, n)
		for i := range bs {
			bs[i] = Backend{Name: string(rune('A' + i)), Load: 0.2 + rng.Float64()}
		}
		bs = NormalizeBackends(bs)
		a, err := Greedy(cl, bs)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return a.Validate() == nil && a.Scale() >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyKSafeProperty: with k-safety every class must exist on at
// least k+1 backends and the allocation must stay valid.
func TestGreedyKSafeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := randomClassification(rng)
		n := 3 + rng.Intn(5)
		k := 1 + rng.Intn(2)
		if k >= n {
			k = n - 1
		}
		a, err := GreedyKSafe(cl, UniformBackends(n), k)
		if err != nil {
			t.Logf("seed %d n %d k %d: %v", seed, n, k, err)
			return false
		}
		if err := a.Validate(); err != nil {
			t.Logf("seed %d n %d k %d: %v", seed, n, k, err)
			return false
		}
		for _, c := range cl.Classes() {
			if got := a.ClassReplicas(c); got < k+1 {
				t.Logf("seed %d n %d k %d: class %s has %d replicas, want >= %d", seed, n, k, c.Name, got, k+1)
				return false
			}
		}
		a.Scale() // cache the scale so CheckAggregates checks it too
		if err := a.CheckAggregates(); err != nil {
			t.Logf("seed %d n %d k %d: %v", seed, n, k, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestKSafetySection3: the read-only example with k=1 keeps the speedup
// at the theoretical maximum (the paper: "The theoretical speedup is
// unaffected by the additional replicas" in the read-only case).
func TestKSafetySection3(t *testing.T) {
	cl := section3Classification()
	a, err := GreedyKSafe(cl, UniformBackends(4), 1)
	if err != nil {
		t.Fatalf("GreedyKSafe: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, c := range cl.Classes() {
		if a.ClassReplicas(c) < 2 {
			t.Fatalf("class %s has %d replicas, want >= 2", c.Name, a.ClassReplicas(c))
		}
	}
	if !almostEq(a.Speedup(), 4) {
		t.Fatalf("Speedup = %v, want 4 (read-only k-safety costs no throughput)", a.Speedup())
	}
	// But it costs space: strictly more than the k=0 run.
	plain, _ := Greedy(cl, UniformBackends(4))
	if a.DegreeOfReplication() <= plain.DegreeOfReplication() {
		t.Fatalf("k=1 replication %v not above k=0 replication %v", a.DegreeOfReplication(), plain.DegreeOfReplication())
	}
}

func TestEnsureFragmentRedundancy(t *testing.T) {
	cl := NewClassification()
	cl.AddFragment(Fragment{ID: "a", Size: 1})
	cl.AddFragment(Fragment{ID: "b", Size: 1})
	cl.MustAddClass(NewClass("q", Read, 0.5, "a"))
	cl.MustAddClass(NewClass("q2", Read, 0.5, "b"))
	a, err := Greedy(cl, UniformBackends(3))
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	EnsureFragmentRedundancy(a, 2)
	for _, f := range []FragmentID{"a", "b"} {
		if got := a.FragmentReplicas(f); got < 3 {
			t.Fatalf("fragment %s has %d replicas, want >= 3", f, got)
		}
	}
	// Allocation must still be valid (fragment copies do not break Eq. 10
	// because only never-updated fragments are copied).
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate after EnsureFragmentRedundancy: %v", err)
	}
}
