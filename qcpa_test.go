package qcpa

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"
)

func exampleClassification() *Classification {
	cls := NewClassification()
	cls.AddFragment(Fragment{ID: "orders", Size: 100})
	cls.AddFragment(Fragment{ID: "items", Size: 80})
	cls.AddFragment(Fragment{ID: "users", Size: 40})
	cls.MustAddClass(NewClass("browse", Read, 0.5, "items"))
	cls.MustAddClass(NewClass("account", Read, 0.2, "users"))
	cls.MustAddClass(NewClass("checkout", Update, 0.3, "orders"))
	return cls
}

func TestAllocateGreedy(t *testing.T) {
	cls := exampleClassification()
	a, err := Allocate(cls, UniformBackends(3), AllocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Speedup() <= 1 {
		t.Fatalf("speedup = %v", a.Speedup())
	}
}

func TestAllocateMemetic(t *testing.T) {
	cls := exampleClassification()
	a, err := Allocate(cls, UniformBackends(3), AllocateOptions{
		Solver: SolverMemetic, Memetic: MemeticOptions{Iterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := Allocate(cls, UniformBackends(3), AllocateOptions{})
	if CostOf(g).Less(CostOf(a)) {
		t.Fatal("memetic worse than greedy")
	}
}

func TestAllocateOptimal(t *testing.T) {
	cls := exampleClassification()
	a, err := Allocate(cls, UniformBackends(2), AllocateOptions{
		Solver: SolverOptimal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := OptimalAllocation(cls, UniformBackends(2), OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale < 1 {
		t.Fatalf("scale = %v", res.Scale)
	}
}

func TestAllocateKSafety(t *testing.T) {
	cls := exampleClassification()
	a, err := Allocate(cls, UniformBackends(3), AllocateOptions{KSafety: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cls.Classes() {
		if a.ClassReplicas(c) < 2 {
			t.Fatalf("class %s has %d replicas", c.Name, a.ClassReplicas(c))
		}
	}
	// Memetic + k-safety: repaired after solving.
	am, err := Allocate(cls, UniformBackends(3), AllocateOptions{
		KSafety: 1, Solver: SolverMemetic, Memetic: MemeticOptions{Iterations: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cls.Classes() {
		if am.ClassReplicas(c) < 2 {
			t.Fatalf("memetic k-safety: class %s has %d replicas", c.Name, am.ClassReplicas(c))
		}
	}
	if _, err := Allocate(cls, UniformBackends(3), AllocateOptions{Solver: Solver(9)}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestClassifyJournalFacade(t *testing.T) {
	schema := Schema{
		"t": {{Name: "id", Type: 1, PrimaryKey: true}, {Name: "v", Type: 1}},
	}
	res, err := ClassifyJournal([]JournalEntry{
		{SQL: "SELECT v FROM t WHERE id = 1", Count: 3, Cost: 1},
		{SQL: "UPDATE t SET v = 2 WHERE id = 1", Count: 1, Cost: 1},
	}, schema, ClassifyOptions{Strategy: TableBased})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classification.Classes()) != 2 {
		t.Fatalf("classes = %d", len(res.Classification.Classes()))
	}
	a, err := Allocate(res.Classification, UniformBackends(2), AllocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMigrationFacade(t *testing.T) {
	cls := exampleClassification()
	oldA, _ := Allocate(cls, UniformBackends(2), AllocateOptions{})
	newA, _ := Allocate(cls, UniformBackends(3), AllocateOptions{})
	plan, dec, err := PlanMigration(oldA, newA)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decommissioned on scale-out: %v", dec)
	}
	if plan == nil || len(plan.Mapping) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestMergeAllocationsFacade(t *testing.T) {
	cls := exampleClassification()
	a1, _ := Allocate(cls, UniformBackends(2), AllocateOptions{})
	a2 := FullReplication(cls, UniformBackends(2))
	merged, err := MergeAllocations(cls, []*Allocation{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateFacade(t *testing.T) {
	cls := exampleClassification()
	a, _ := Allocate(cls, UniformBackends(2), AllocateOptions{})
	res, err := Simulate(SimOptions{Alloc: a}, func(rng *rand.Rand) SimRequest {
		classes := cls.Classes()
		c := classes[rng.Intn(len(classes))]
		return SimRequest{Class: c.Name, Write: c.Kind == Update, Cost: 1}
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestDriftAndRobustnessFacade(t *testing.T) {
	cls := exampleClassification()
	a, _ := Allocate(cls, UniformBackends(3), AllocateOptions{})
	s0, err := SpeedupUnderDrift(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SpeedupUnderDrift(a, map[string]float64{"browse": 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if s1 > s0+1e-9 {
		t.Fatalf("drift increased speedup: %v -> %v", s0, s1)
	}
	if err := EnsureRobustness(a, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func ExampleAllocate() {
	cls := NewClassification()
	cls.AddFragment(Fragment{ID: "A", Size: 1})
	cls.AddFragment(Fragment{ID: "B", Size: 1})
	cls.AddFragment(Fragment{ID: "C", Size: 1})
	cls.MustAddClass(NewClass("C1", Read, 0.30, "A"))
	cls.MustAddClass(NewClass("C2", Read, 0.25, "B"))
	cls.MustAddClass(NewClass("C3", Read, 0.25, "C"))
	cls.MustAddClass(NewClass("C4", Read, 0.20, "A", "B"))

	alloc, err := Allocate(cls, UniformBackends(2), AllocateOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("speedup %.0f, replication %.2f\n", alloc.Speedup(), alloc.DegreeOfReplication())
	// Output:
	// speedup 2, replication 1.33
}

func TestUniformAndNormalize(t *testing.T) {
	bs := NormalizeBackends([]Backend{{Name: "a", Load: 1}, {Name: "b", Load: 3}})
	if math.Abs(bs[1].Load-0.75) > 1e-12 {
		t.Fatalf("normalize wrong: %v", bs)
	}
}

// TestClusterFacadeEndToEnd drives the runtime and the TCP protocol
// entirely through the public API.
func TestClusterFacadeEndToEnd(t *testing.T) {
	cls := NewClassification()
	cls.AddFragment(Fragment{ID: "kv", Size: 1})
	cls.MustAddClass(NewClass("get", Read, 0.6, "kv"))
	cls.MustAddClass(NewClass("put", Update, 0.4, "kv"))
	alloc, err := Allocate(cls, UniformBackends(2), AllocateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Backends: UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	load := Loader(func(e *Engine, tables []string) error {
		for _, tb := range tables {
			if _, err := e.Exec(`CREATE TABLE ` + tb + ` (k INT PRIMARY KEY, v INT)`); err != nil {
				return err
			}
			if _, err := e.Exec(`INSERT INTO ` + tb + ` VALUES (1, 10), (2, 20)`); err != nil {
				return err
			}
		}
		return nil
	})
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(Request{SQL: `SELECT v FROM kv WHERE k = 1`, Class: "get"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data[0][0].I != 10 {
		t.Fatalf("value = %v", res.Data[0][0])
	}
	// Serve it over TCP and query through the client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, c)
	defer srv.Close()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Exec(`UPDATE kv SET v = 99 WHERE k = 2`, "put")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("affected = %d", resp.Affected)
	}
	got, err := client.Query(`SELECT v FROM kv WHERE k = 2`, "get")
	if err != nil {
		t.Fatal(err)
	}
	// The binary value encoding preserves integer typing.
	if v, ok := got.Rows[0][0].(int64); !ok || v != 99 {
		t.Fatalf("value over TCP = %v (%T)", got.Rows[0][0], got.Rows[0][0])
	}
}

func ExamplePlanMigration() {
	cls := NewClassification()
	cls.AddFragment(Fragment{ID: "users", Size: 10})
	cls.AddFragment(Fragment{ID: "logs", Size: 30})
	cls.MustAddClass(NewClass("q", Read, 0.7, "users"))
	cls.MustAddClass(NewClass("w", Update, 0.3, "logs"))

	two, _ := Allocate(cls, UniformBackends(2), AllocateOptions{})
	three, _ := Allocate(cls, UniformBackends(3), AllocateOptions{})
	plan, decommissioned, _ := PlanMigration(two, three)
	fmt.Printf("scale-out ships %.0f units, decommissions %d backends\n",
		plan.MoveSize, len(decommissioned))
	// Output:
	// scale-out ships 10 units, decommissions 0 backends
}

func ExampleSpeedupUnderDrift() {
	cls := NewClassification()
	cls.AddFragment(Fragment{ID: "a", Size: 1})
	cls.AddFragment(Fragment{ID: "b", Size: 1})
	cls.MustAddClass(NewClass("qa", Read, 0.5, "a"))
	cls.MustAddClass(NewClass("qb", Read, 0.5, "b"))
	a, _ := Allocate(cls, UniformBackends(2), AllocateOptions{})

	before, _ := SpeedupUnderDrift(a, nil)
	after, _ := SpeedupUnderDrift(a, map[string]float64{"qa": 0.6})
	fmt.Printf("speedup %.2f -> %.2f under drift\n", before, after)
	// Output:
	// speedup 2.00 -> 1.67 under drift
}
