package experiments

import (
	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/matching"
)

// SpeedupModelTable regenerates the analytical predictions of
// Section 4.2 (Eqs. 29 and 30) next to measured values: full
// replication's Amdahl estimate 1/(0.75/n + 0.25) and the partial
// allocation's |B|/scale bound from the Order_Line write class, for
// n = MaxBackends.
func SpeedupModelTable(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	n := opts.MaxBackends
	t := &Table{
		ID: "E18", Title: "Eq. 29/30 speedup model vs measurement (TPC-App)",
		XLabel: "backends", YLabel: "speedup",
	}
	predFull := Series{Name: "full predicted", X: backendRange(n)}
	measFull := Series{Name: "full measured", X: predFull.X}
	predPart := Series{Name: "partial bound", X: predFull.X}
	measPart := Series{Name: "table measured", X: predFull.X}
	var baseFull, basePart float64
	for i := 1; i <= n; i++ {
		predFull.Y = append(predFull.Y, 1/(0.75/float64(i)+0.25))

		aF, stF, err := tpcappAlloc("full", i, false)
		if err != nil {
			return nil, err
		}
		rF, err := measure(aF, stF, opts, opts.Seed, false)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			baseFull = rF.Throughput
		}
		measFull.Y = append(measFull.Y, rF.Throughput/baseFull)

		aT, stT, err := tpcappAlloc("table", i, false)
		if err != nil {
			return nil, err
		}
		bound := stT.cls.MaxSpeedup()
		if bound > float64(i) {
			bound = float64(i)
		}
		predPart.Y = append(predPart.Y, bound)
		rT, err := measure(aT, stT, opts, opts.Seed, false)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			basePart = rT.Throughput
		}
		measPart.Y = append(measPart.Y, rT.Throughput/basePart)
	}
	t.Series = []Series{predFull, measFull, predPart, measPart}
	return t, nil
}

// RobustnessTable regenerates Section 5's drift example: in the
// Figure 2 four-backend allocation, growing one class's weight reduces
// the achievable speedup per Eq. 19 (25% -> 27% gives 4/1.08 ≈ 3.7).
func RobustnessTable(opts Options) (*Table, error) {
	cl := core.NewClassification()
	for _, f := range []string{"A", "B", "C"} {
		cl.AddFragment(core.Fragment{ID: core.FragmentID(f), Size: 1})
	}
	cl.MustAddClass(core.NewClass("C1", core.Read, 0.30, "A"))
	cl.MustAddClass(core.NewClass("C2", core.Read, 0.25, "B"))
	cl.MustAddClass(core.NewClass("C3", core.Read, 0.25, "C"))
	cl.MustAddClass(core.NewClass("C4", core.Read, 0.20, "A", "B"))
	a := core.NewAllocation(cl, core.UniformBackends(4))
	a.AddFragments(0, "A")
	a.SetAssign(0, "C1", 0.25)
	a.AddFragments(1, "A", "B")
	a.SetAssign(1, "C1", 0.05)
	a.SetAssign(1, "C4", 0.20)
	a.AddFragments(2, "B")
	a.SetAssign(2, "C2", 0.25)
	a.AddFragments(3, "C")
	a.SetAssign(3, "C3", 0.25)

	t := &Table{
		ID: "E19", Title: "Sec 5 robustness: speedup under weight drift (Fig 2 allocation)",
		XLabel: "class C3 weight (%)", YLabel: "achievable speedup (Eq. 19)",
	}
	s := Series{Name: "speedup"}
	for _, w := range []float64{0.25, 0.26, 0.27, 0.30, 0.35} {
		sp, err := core.SpeedupUnderDrift(a, map[string]float64{"C3": w})
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, w*100)
		s.Y = append(s.Y, sp)
	}
	t.Series = []Series{s}
	return t, nil
}

// KSafetyTable regenerates Appendix C's trade-off: degree of
// replication and theoretical speedup of the k-safe allocation for
// k = 0, 1, 2 on the TPC-H (read-only) and TPC-App (update) workloads.
// Read-only k-safety costs space, not throughput; with updates the
// extra update replicas also cost throughput.
func KSafetyTable(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	n := opts.MaxBackends
	if n < 4 {
		n = 4
	}
	t := &Table{
		ID: "E20", Title: "Appendix C k-safety overhead (on " + itoa(n) + " backends)",
		XLabel: "k", YLabel: "degree of replication / speedup",
	}
	hSetup, err := tpchSetup(classify.TableBased, 1)
	if err != nil {
		return nil, err
	}
	aSetup, err := tpcappSetup(classify.TableBased, false)
	if err != nil {
		return nil, err
	}
	repH := Series{Name: "TPC-H replication"}
	spH := Series{Name: "TPC-H speedup"}
	repA := Series{Name: "TPC-App replication"}
	spA := Series{Name: "TPC-App speedup"}
	for k := 0; k <= 2; k++ {
		ah, err := core.GreedyKSafe(hSetup.cls, core.UniformBackends(n), k)
		if err != nil {
			return nil, err
		}
		aa, err := core.GreedyKSafe(aSetup.cls, core.UniformBackends(n), k)
		if err != nil {
			return nil, err
		}
		x := float64(k)
		repH.X, repH.Y = append(repH.X, x), append(repH.Y, ah.DegreeOfReplication())
		spH.X, spH.Y = append(spH.X, x), append(spH.Y, ah.Speedup())
		repA.X, repA.Y = append(repA.X, x), append(repA.Y, aa.DegreeOfReplication())
		spA.X, spA.Y = append(spA.X, x), append(spA.Y, aa.Speedup())
	}
	t.Series = []Series{repH, spH, repA, spA}
	return t, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// AblationSolvers compares the three allocation solvers (greedy,
// memetic, MILP-optimal) on scale and space over the TPC-App
// classification — DESIGN.md's A1 ablation.
func AblationSolvers(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	st, err := tpcappSetup(classify.TableBased, false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "A1", Title: "ablation: greedy vs memetic vs optimal (TPC-App, table-based)",
		XLabel: "backends", YLabel: "scale factor (lower is better)",
	}
	greedyS := Series{Name: "greedy scale"}
	memS := Series{Name: "memetic scale"}
	optS := Series{Name: "optimal scale"}
	greedyR := Series{Name: "greedy repl"}
	memR := Series{Name: "memetic repl"}
	for n := 2; n <= opts.OptimalMaxBackends+1; n++ {
		g, err := core.Greedy(st.cls, core.UniformBackends(n))
		if err != nil {
			return nil, err
		}
		m, err := core.Memetic(st.cls, core.UniformBackends(n), core.MemeticOptions{Iterations: 25, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		o, err := core.Optimal(st.cls, core.UniformBackends(n), core.OptimalOptions{MaxNodes: opts.OptimalNodeBudget, SkipSpacePhase: true})
		if err != nil {
			return nil, err
		}
		x := float64(n)
		greedyS.X, greedyS.Y = append(greedyS.X, x), append(greedyS.Y, g.Scale())
		memS.X, memS.Y = append(memS.X, x), append(memS.Y, m.Scale())
		optS.X, optS.Y = append(optS.X, x), append(optS.Y, o.Scale)
		greedyR.X, greedyR.Y = append(greedyR.X, x), append(greedyR.Y, g.DegreeOfReplication())
		memR.X, memR.Y = append(memR.X, x), append(memR.Y, m.DegreeOfReplication())
	}
	t.Series = []Series{greedyS, memS, optS, greedyR, memR}
	return t, nil
}

// AblationGranularity compares classification granularities on the same
// journal: class count, degree of replication, and Eq. 17 speedup bound
// — DESIGN.md's A2.
func AblationGranularity(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	n := opts.MaxBackends
	t := &Table{
		ID: "A2", Title: "ablation: classification granularity (TPC-App, " + itoa(n) + " backends)",
		XLabel: "granularity (0 table, 1 column)", YLabel: "classes / replication / bound",
	}
	classes := Series{Name: "classes"}
	repl := Series{Name: "replication"}
	bound := Series{Name: "Eq.17 bound"}
	for i, strat := range []classify.Strategy{classify.TableBased, classify.ColumnBased} {
		st, err := tpcappSetup(strat, false)
		if err != nil {
			return nil, err
		}
		a, err := core.Greedy(st.cls, core.UniformBackends(n))
		if err != nil {
			return nil, err
		}
		x := float64(i)
		classes.X, classes.Y = append(classes.X, x), append(classes.Y, float64(len(st.cls.Classes())))
		repl.X, repl.Y = append(repl.X, x), append(repl.Y, a.DegreeOfReplication())
		b := st.cls.MaxSpeedup()
		if b > float64(n) {
			b = float64(n)
		}
		bound.X, bound.Y = append(bound.X, x), append(bound.Y, b)
	}
	t.Series = []Series{classes, repl, bound}
	return t, nil
}

// AblationScheduler compares read scheduling policies on the TPC-H
// column allocation — DESIGN.md's A3.
func AblationScheduler(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "A3", Title: "ablation: scheduler policy (TPC-H column-based)",
		XLabel: "backends", YLabel: "queries/sec (simulated)",
	}
	for _, pol := range []struct {
		name   string
		policy int
	}{{"least-pending", 0}, {"random", 1}, {"round-robin", 2}} {
		ys, err := collect(opts, opts.MaxBackends, func(i int) (float64, error) {
			a, st, err := allocFor("column", i+1, opts.Seed)
			if err != nil {
				return 0, err
			}
			return measureWithPolicy(a, st, opts, pol.policy)
		})
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Name: pol.name, X: backendRange(opts.MaxBackends), Y: ys})
	}
	return t, nil
}

// AblationMatching compares the Hungarian migration plan against the
// naive identity mapping on elastic scaling transitions — DESIGN.md's
// A4.
func AblationMatching(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	st, err := tpchSetup(classify.ColumnBased, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "A4", Title: "ablation: Hungarian vs naive migration (TPC-H column, scale-out n -> n+1)",
		XLabel: "backends before", YLabel: "moved bytes / full DB",
	}
	hung := Series{Name: "hungarian"}
	naive := Series{Name: "naive"}
	total := st.cls.TotalSize()
	for n := 2; n < opts.MaxBackends; n++ {
		oldA, err := core.Greedy(st.cls, core.UniformBackends(n))
		if err != nil {
			return nil, err
		}
		newA, err := core.Greedy(st.cls, core.UniformBackends(n+1))
		if err != nil {
			return nil, err
		}
		plan, _, err := matching.PlanMigration(oldA, newA)
		if err != nil {
			return nil, err
		}
		x := float64(n)
		hung.X, hung.Y = append(hung.X, x), append(hung.Y, plan.MoveSize/total)
		naive.X, naive.Y = append(naive.X, x), append(naive.Y, matching.NaiveMigrationSize(oldA, newA)/total)
	}
	t.Series = []Series{hung, naive}
	return t, nil
}
