// Package runtime is the shared scheduling core of the CDBS processing
// model (Section 2): the read-scheduling policies used by both the
// discrete-event simulator (internal/sim) and the live cluster
// controller (internal/cluster). Keeping one implementation guarantees
// that a policy choice evaluated in a simulation sweep behaves
// identically on the real runtime, and gives every future routing
// feature (retries, backpressure, autoscaling triggers) a single place
// to land.
//
// The metrics sub-package (internal/runtime/metrics) holds the
// per-backend runtime counters the controller exports.
package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Policy selects which of n eligible backends receives the next read.
// It is safe for concurrent use: the live cluster calls Pick from many
// request goroutines at once. It is a concrete type rather than an
// interface so that Pick's pending function does not escape — a caller
// passes a closure over a stack-held candidate slice without a heap
// allocation per read.
type Policy struct {
	kind Kind
	next atomic.Uint64 // RoundRobin's cursor
}

// Name returns the canonical flag spelling of the policy.
func (p *Policy) Name() string { return p.kind.String() }

// Pick returns a position in [0, n). pending reports the number of
// in-flight plus queued requests of the backend at position i; rng is
// the caller's randomness source (only consulted by RandomEligible,
// which draws from it exactly once per call so seeded runs are
// reproducible).
func (p *Policy) Pick(n int, pending func(i int) int, rng *rand.Rand) int {
	switch p.kind {
	case RandomEligible:
		if rng == nil {
			return 0
		}
		return rng.Intn(n)
	case RoundRobin:
		return int((p.next.Add(1) - 1) % uint64(n))
	}
	best, bestP := 0, pending(0)
	for i := 1; i < n; i++ {
		if q := pending(i); q < bestP {
			best, bestP = i, q
		}
	}
	return best
}

// Kind enumerates the built-in policies.
type Kind int

const (
	// LeastPending is the paper's least-pending-request-first strategy.
	LeastPending Kind = iota
	// RandomEligible picks a uniformly random eligible backend (an
	// ablation baseline).
	RandomEligible
	// RoundRobin cycles through the eligible backends (ablation).
	RoundRobin
)

// String returns the canonical flag spelling of the kind.
func (k Kind) String() string {
	switch k {
	case RandomEligible:
		return "random"
	case RoundRobin:
		return "round-robin"
	default:
		return "least-pending"
	}
}

// New returns a fresh policy instance of this kind. Stateful policies
// (RoundRobin) get their own state, so each cluster or simulator run
// cycles independently. An out-of-range kind behaves as LeastPending,
// matching the historical simulator default.
func (k Kind) New() *Policy { return &Policy{kind: k} }

// Kinds lists the built-in policy kinds in flag order.
func Kinds() []Kind { return []Kind{LeastPending, RandomEligible, RoundRobin} }

// ParseKind resolves a flag spelling ("least-pending", "random",
// "round-robin", or the short forms "lp", "rnd", "rr") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "least-pending", "lp", "":
		return LeastPending, nil
	case "random", "rnd":
		return RandomEligible, nil
	case "round-robin", "rr":
		return RoundRobin, nil
	}
	return 0, fmt.Errorf("runtime: unknown scheduling policy %q (want least-pending, random, or round-robin)", s)
}

// lockedSource is a rand.Source64 guarded by a mutex, so one *rand.Rand
// can serve concurrent request goroutines.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// NewLockedRand returns a seeded *rand.Rand that is safe for concurrent
// use — the randomness source randomized policies receive from the live
// cluster.
func NewLockedRand(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)})
}
