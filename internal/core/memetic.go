package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"qcpa/internal/par"
)

// Cost is the lexicographic objective of the allocation problem:
// primarily the scale factor (throughput, Eq. 19), secondarily the total
// allocated data size (replication overhead).
type Cost struct {
	Scale float64
	Size  float64
}

// CostOf evaluates an allocation.
func CostOf(a *Allocation) Cost {
	return Cost{Scale: a.Scale(), Size: a.TotalDataSize()}
}

// Less compares costs lexicographically with tolerance on the scale.
func (c Cost) Less(o Cost) bool {
	if math.Abs(c.Scale-o.Scale) > 1e-9 {
		return c.Scale < o.Scale
	}
	return c.Size < o.Size-1e-9
}

// MemeticOptions configure the evolutionary improvement of Algorithm 2.
type MemeticOptions struct {
	// Population is the population size p (default 12).
	Population int
	// Iterations is the number of evolutionary rounds (default 60).
	Iterations int
	// Seed makes the run deterministic (default 1).
	Seed int64
	// Parallelism is the number of worker goroutines mutating and
	// locally improving individuals (0 = GOMAXPROCS, 1 = the sequential
	// reference path). Every individual draws from its own rand.Rand
	// seeded from (Seed, iteration, index) and selection stays on the
	// coordinator, so the result is bit-identical for every value.
	Parallelism int
}

func (o MemeticOptions) withDefaults() MemeticOptions {
	if o.Population == 0 {
		o.Population = 12
	}
	if o.Iterations == 0 {
		o.Iterations = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// mixSeed derives the RNG seed of one individual from the run seed, the
// iteration, and the individual's index, using splitmix64-style mixing
// so neighbouring (iteration, index) pairs get uncorrelated streams.
func mixSeed(seed int64, it, idx int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(it+1) ^ 0xbf58476d1ce4e5b9*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmix is a rand.Source64 with O(1) seeding for the per-individual
// RNG streams. The stdlib rngSource generates ~600 feedback values on
// every Seed, which dominated the solver profile once each offspring
// attempt drew its own stream; splitmix64 passes BigCrush and costs one
// multiply-xor chain per value.
type splitmix struct{ s uint64 }

func (s *splitmix) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.s = uint64(seed) }

// newStream returns a rand.Rand over a fresh splitmix stream.
func newStream(seed int64) *rand.Rand {
	return rand.New(&splitmix{s: uint64(seed)})
}

// Memetic improves an allocation with the hybrid evolutionary strategy
// of Algorithm 2: starting from the greedy heuristic's solution, each
// iteration mutates the population (no recombination, as in evolutionary
// programming), keeps the best 2/3 of the parents and the best 1/3 of
// the offspring ((λ+µ) selection), and applies the two local-search
// strategies of Eqs. 21-26 plus exact read re-balancing to a random
// third of the survivors. The best allocation found is returned; it is
// never worse than the greedy solution.
func Memetic(cls *Classification, backends []Backend, opts MemeticOptions) (*Allocation, error) {
	init, err := Greedy(cls, backends)
	if err != nil {
		return nil, err
	}
	return MemeticFrom(init, opts)
}

// MemeticFrom runs the memetic algorithm from a given valid initial
// solution.
func MemeticFrom(init *Allocation, opts MemeticOptions) (*Allocation, error) {
	if err := init.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Nothing to mutate: a single backend, or a workload with no read
	// shares to move (update-only classifications are fully determined
	// by Eq. 10). The greedy solution is final.
	if init.NumBackends() < 2 || len(readPlacements(init)) == 0 {
		return init, nil
	}

	type scored struct {
		a *Allocation
		c Cost
	}
	pop := []scored{{init, CostOf(init)}}

	better := func(x, y scored) bool { return x.c.Less(y.c) }
	sortPop := func(p []scored) {
		sort.SliceStable(p, func(i, j int) bool { return better(p[i], p[j]) })
	}

	for it := 0; it < opts.Iterations; it++ {
		// Mutation: p offspring, each from a single random parent,
		// produced in batches on the worker pool. The coordinator draws
		// every parent index before a batch starts and each attempt
		// mutates with its own (Seed, iteration, attempt)-derived RNG,
		// so the offspring sequence is a pure function of the options —
		// the worker count only changes wall-clock time. The attempt
		// budget guards against degenerate populations whose mutations
		// cannot change anything.
		budget := 20 * opts.Population
		offspring := make([]scored, 0, opts.Population)
		for attempt := 0; len(offspring) < opts.Population && attempt < budget; {
			batch := opts.Population - len(offspring)
			if batch > budget-attempt {
				batch = budget - attempt
			}
			parents := make([]*Allocation, batch)
			seeds := make([]int64, batch)
			for i := 0; i < batch; i++ {
				parents[i] = pop[rng.Intn(len(pop))].a
				seeds[i] = mixSeed(opts.Seed, it, attempt+i)
			}
			results := make([]*Allocation, batch)
			par.For(opts.Parallelism, batch, func(i int) {
				crng := newStream(seeds[i])
				child := parents[i].Clone()
				n := 1 + crng.Intn(3)
				changed := false
				for k := 0; k < n; k++ {
					if mutate(child, crng) {
						changed = true
					}
				}
				if changed && child.Validate() == nil {
					results[i] = child
				}
			})
			for _, child := range results {
				if child != nil && len(offspring) < opts.Population {
					offspring = append(offspring, scored{child, CostOf(child)})
				}
			}
			attempt += batch
		}
		// Selection: best 2/3 of the old population, best 1/3 of the
		// offspring.
		sortPop(pop)
		sortPop(offspring)
		keepOld := (2*opts.Population + 2) / 3
		if keepOld > len(pop) {
			keepOld = len(pop)
		}
		keepNew := opts.Population - keepOld
		if keepNew > len(offspring) {
			keepNew = len(offspring)
		}
		next := make([]scored, 0, keepOld+keepNew)
		next = append(next, pop[:keepOld]...)
		next = append(next, offspring[:keepNew]...)
		pop = next

		// Improvement: local search on a random third of the population,
		// also fanned out — each chosen individual is improved on a
		// private clone and swapped in by the coordinator afterwards.
		k := (len(pop) + 2) / 3
		perm := rng.Perm(len(pop))
		chosen := perm[:k]
		improved := make([]*Allocation, len(chosen))
		par.For(opts.Parallelism, len(chosen), func(i int) {
			cand := pop[chosen[i]].a.Clone()
			if localImprove(cand) && cand.Validate() == nil {
				improved[i] = cand
			}
		})
		for i, cand := range improved {
			if cand != nil {
				pop[chosen[i]] = scored{cand, CostOf(cand)}
			}
		}
	}
	sortPop(pop)
	best := pop[0]
	if !best.c.Less(CostOf(init)) && CostOf(init).Less(best.c) {
		return init, nil
	}
	return best.a, nil
}

// mutate applies one random structural mutation, returning whether the
// allocation changed. All mutations preserve validity by construction
// (fragments and update classes move with the read shares; orphaned data
// is pruned).
func mutate(a *Allocation, rng *rand.Rand) bool {
	switch rng.Intn(3) {
	case 0:
		return mutateMoveRead(a, rng, false)
	case 1:
		return mutateMoveRead(a, rng, true)
	default:
		return mutateSwapReads(a, rng)
	}
}

// readPlacements lists (class, backend) pairs with a positive read
// assignment, in deterministic order.
func readPlacements(a *Allocation) [][2]int {
	cls := a.Classification()
	var out [][2]int
	for ci, c := range cls.Classes() {
		if c.Kind != Read {
			continue
		}
		for b := 0; b < a.NumBackends(); b++ {
			if a.assign[b][c.pos] > Eps {
				out = append(out, [2]int{ci, b})
			}
		}
	}
	return out
}

// mutateMoveRead moves all or half of one read share to another backend,
// installing the needed fragments and update classes there.
func mutateMoveRead(a *Allocation, rng *rand.Rand, half bool) bool {
	pl := readPlacements(a)
	if len(pl) == 0 || a.NumBackends() < 2 {
		return false
	}
	pick := pl[rng.Intn(len(pl))]
	cls := a.Classification()
	c := cls.Classes()[pick[0]]
	from := pick[1]
	to := rng.Intn(a.NumBackends() - 1)
	if to >= from {
		to++
	}
	w := a.assign[from][c.pos]
	if half {
		w /= 2
	}
	if w <= Eps {
		return false
	}
	installClass(a, to, c)
	a.addAssignPos(to, c.pos, w)
	a.addAssignPos(from, c.pos, -w)
	pruneBackend(a, from)
	return true
}

// mutateSwapReads exchanges the shares of two read classes between two
// backends.
func mutateSwapReads(a *Allocation, rng *rand.Rand) bool {
	pl := readPlacements(a)
	if len(pl) < 2 {
		return false
	}
	p1 := pl[rng.Intn(len(pl))]
	p2 := pl[rng.Intn(len(pl))]
	if p1 == p2 || p1[1] == p2[1] {
		return false
	}
	cls := a.Classification()
	c1, c2 := cls.Classes()[p1[0]], cls.Classes()[p2[0]]
	w1, w2 := a.assign[p1[1]][c1.pos], a.assign[p2[1]][c2.pos]
	w := math.Min(w1, w2)
	if w <= Eps {
		return false
	}
	installClass(a, p2[1], c1)
	installClass(a, p1[1], c2)
	a.addAssignPos(p2[1], c1.pos, w)
	a.addAssignPos(p1[1], c1.pos, -w)
	a.addAssignPos(p1[1], c2.pos, w)
	a.addAssignPos(p2[1], c2.pos, -w)
	pruneBackend(a, p1[1])
	pruneBackend(a, p2[1])
	return true
}

// updateClosureInto marks, in need (indexed by fragment) and hit
// (indexed by position in ly.updates), the transitive closure of update
// classes overlapping the already-marked fragments, folding their
// fragments into need as it goes. Both scratch slices must be pre-sized
// to the layout.
func updateClosureInto(ly *layout, need []bool, hit []bool) {
	for changed := true; changed; {
		changed = false
		for ui, u := range ly.updates {
			if hit[ui] {
				continue
			}
			overlap := false
			for _, i := range ly.classFrag[u.pos] {
				if need[i] {
					overlap = true
					break
				}
			}
			if overlap {
				hit[ui] = true
				for _, i := range ly.classFrag[u.pos] {
					need[i] = true
				}
				changed = true
			}
		}
	}
}

// installClass places the fragments of c and its transitive update
// closure on backend b and assigns the update classes there (Eq. 10).
// Fragments and assignments are installed in dense index order, so the
// result is independent of any map iteration order.
func installClass(a *Allocation, b int, c *Class) {
	ly := a.ly
	need := make([]bool, len(ly.fragIDs))
	for _, i := range ly.classFrag[c.pos] {
		need[i] = true
	}
	hit := make([]bool, len(ly.updates))
	updateClosureInto(ly, need, hit)
	for i, n := range need {
		if n {
			a.addFragIdx(b, i)
		}
	}
	for ui, u := range ly.updates {
		if hit[ui] {
			a.setAssignPos(b, u.pos, u.Weight)
		}
	}
}

// pruneBackend removes data and update assignments from backend b that
// no read share on b requires any more, keeping Eq. 10/11 intact: an
// update class is only dropped if it keeps at least one replica
// elsewhere, and fragments are only removed when no assigned class
// references them.
func pruneBackend(a *Allocation, b int) {
	ly := a.ly

	// Fragments needed by the read shares on b, with the transitive
	// closure over update classes touching needed data.
	needed := make([]bool, len(ly.fragIDs))
	for _, c := range ly.reads {
		if a.assign[b][c.pos] > Eps {
			for _, i := range ly.classFrag[c.pos] {
				needed[i] = true
			}
		}
	}
	keep := make([]bool, len(ly.updates))
	updateClosureInto(ly, needed, keep)
	// Updates with no read dependency on b: droppable only with another
	// replica elsewhere.
	for ui, u := range ly.updates {
		if keep[ui] || a.assign[b][u.pos] <= 0 {
			continue
		}
		elsewhere := false
		for ob := 0; ob < a.NumBackends(); ob++ {
			if ob != b && a.assign[ob][u.pos] > 0 {
				elsewhere = true
				break
			}
		}
		if elsewhere {
			a.setAssignPos(b, u.pos, 0)
		} else {
			keep[ui] = true
			for _, i := range ly.classFrag[u.pos] {
				needed[i] = true
			}
		}
	}
	// Zero read assignments that fell below tolerance.
	for _, c := range ly.reads {
		if w := a.assign[b][c.pos]; w > 0 && w <= Eps {
			a.setAssignPos(b, c.pos, 0)
		}
	}
	// Drop unneeded fragments (in index order, i.e. sorted ID order).
	for i, stored := range a.frags[b] {
		if stored && !needed[i] {
			a.removeFragIdx(b, i)
		}
	}
}

// ErrNoImprovement is returned by improvement helpers when nothing
// changed (exported for callers that distinguish the case).
var ErrNoImprovement = errors.New("core: no improvement found")
