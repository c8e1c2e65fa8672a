package core

// localImprove applies the memetic algorithm's improvement step: the two
// local-search strategies of Section 3.3 (Eqs. 21-26) followed by exact
// read re-balancing. It returns whether the allocation improved.
func localImprove(a *Allocation) bool {
	// One scratch allocation serves every trial move of this improvement
	// run; tryShift/tryEvacuateUpdate overwrite it per probe instead of
	// cloning, which removes the map-allocation churn that dominated the
	// solver's profile.
	sc := a.Clone()
	improved := false
	for pass := 0; pass < 4; pass++ {
		changed := false
		if shiftCommonPairs(a, sc) {
			changed = true
		}
		if reduceHeavyUpdateReplication(a, sc) {
			changed = true
		}
		before := CostOf(a)
		if RebalanceReads(a) == nil {
			if CostOf(a).Less(before) {
				changed = true
			}
		}
		if !changed {
			break
		}
		improved = true
	}
	return improved
}

// shiftCommonPairs implements the first local-search strategy
// (Eqs. 21-22): if two backends share at least two read classes with
// positive assignments (Eq. 21) whose update sets differ (Eq. 22), the
// shares can be consolidated so each class concentrates on one backend,
// potentially freeing replicated update classes. Every candidate shift
// is evaluated against the cost function and kept only on improvement.
// Complexity is O(|C_Q|² × |B|²) over the candidate space, matching the
// paper's O(|Q|² × |B|) per backend pair.
func shiftCommonPairs(a *Allocation, sc *Allocation) bool {
	ly := a.ly
	reads := ly.reads
	improved := false
	for b1 := 0; b1 < a.NumBackends(); b1++ {
		for b2 := 0; b2 < a.NumBackends(); b2++ {
			if b1 == b2 {
				continue
			}
			// Common read classes (Eq. 21 requires at least two).
			var common []*Class
			for _, c := range reads {
				if a.assign[b1][c.pos] > Eps && a.assign[b2][c.pos] > Eps {
					common = append(common, c)
				}
			}
			if len(common) < 2 {
				continue
			}
			for i := 0; i < len(common); i++ {
				for j := i + 1; j < len(common); j++ {
					c1, c2 := common[i], common[j]
					if sameUpdateSets(ly, c1, c2) {
						continue // Eq. 22: update sets must differ
					}
					if tryShift(a, sc, c1, c2, b1, b2) {
						improved = true
					}
				}
			}
		}
	}
	return improved
}

// sameUpdateSets reports whether two classes have identical update sets
// (Eq. 12). The layout's precomputed per-class update lists are sorted
// by construction, so this is a plain element-wise comparison.
func sameUpdateSets(ly *layout, c1, c2 *Class) bool {
	u1 := ly.classUpd[c1.pos]
	u2 := ly.classUpd[c2.pos]
	if len(u1) != len(u2) {
		return false
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			return false
		}
	}
	return true
}

// tryShift concentrates c1 on b1 and c2 on b2 by exchanging equal
// weight, prunes both backends, and keeps the move only if the cost
// improves. The trial runs on the caller-owned scratch allocation sc.
func tryShift(a, sc *Allocation, c1, c2 *Class, b1, b2 int) bool {
	d := a.assign[b2][c1.pos]
	if w := a.assign[b1][c2.pos]; w < d {
		d = w
	}
	if d <= Eps {
		return false
	}
	before := CostOf(a)
	sc.CopyFrom(a)
	sc.addAssignPos(b1, c1.pos, d)
	sc.addAssignPos(b2, c1.pos, -d)
	sc.addAssignPos(b2, c2.pos, d)
	sc.addAssignPos(b1, c2.pos, -d)
	pruneBackend(sc, b1)
	pruneBackend(sc, b2)
	if CostOf(sc).Less(before) && sc.Validate() == nil {
		a.CopyFrom(sc)
		return true
	}
	return false
}

// reduceHeavyUpdateReplication implements the second local-search
// strategy (Eqs. 23-26): when a heavy update class is replicated on two
// backends (Eq. 23) and a lighter one exists (Eq. 24), move the read
// shares tied to the heavy class off one backend (Eq. 25 requires they
// fit) so the heavy replica can be dropped — accepting that the lighter
// class may become replicated instead (Eq. 26 demands a net win, which
// the cost comparison enforces exactly).
func reduceHeavyUpdateReplication(a *Allocation, sc *Allocation) bool {
	improved := false
	for _, u1 := range a.ly.updates {
		// Backends replicating u1.
		var reps []int
		for b := 0; b < a.NumBackends(); b++ {
			if a.assign[b][u1.pos] > 0 {
				reps = append(reps, b)
			}
		}
		if len(reps) < 2 {
			continue
		}
		// Try to evacuate the replica whose tied read weight is
		// smallest.
		for _, b1 := range reps {
			if tryEvacuateUpdate(a, sc, u1, b1, reps) {
				improved = true
				break
			}
		}
	}
	return improved
}

// tryEvacuateUpdate moves every read share on b1 that references data of
// update class u1 to the other backends replicating u1, then prunes b1.
// The move is kept only if the cost improves. The trial runs on the
// caller-owned scratch allocation sc.
func tryEvacuateUpdate(a, sc *Allocation, u1 *Class, b1 int, reps []int) bool {
	reads := a.ly.reads
	var targets []int
	for _, b := range reps {
		if b != b1 {
			targets = append(targets, b)
		}
	}
	if len(targets) == 0 {
		return false
	}
	// Cheap no-op check before paying for the scratch copy: the move only
	// does anything if b1 carries a read share tied to u1's data.
	any := false
	for _, c := range reads {
		if a.assign[b1][c.pos] > Eps && c.Overlaps(u1) {
			any = true
			break
		}
	}
	if !any {
		return false
	}
	before := CostOf(a)
	sc.CopyFrom(a)
	ti := 0
	for _, c := range reads {
		w := sc.assign[b1][c.pos]
		if w <= Eps || !c.Overlaps(u1) {
			continue
		}
		// Round-robin the shares over the remaining replicas that can
		// execute the class locally (install fragments if needed — the
		// cost comparison vetoes bad ideas).
		to := targets[ti%len(targets)]
		ti++
		installClass(sc, to, c)
		sc.addAssignPos(to, c.pos, w)
		sc.setAssignPos(b1, c.pos, 0)
	}
	pruneBackend(sc, b1)
	// Rebalance to give the move its best chance.
	if err := RebalanceReads(sc); err != nil {
		return false
	}
	if CostOf(sc).Less(before) && sc.Validate() == nil {
		a.CopyFrom(sc)
		return true
	}
	return false
}
