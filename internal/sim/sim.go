// Package sim is a discrete-event simulator of the CDBS processing model
// of Section 2: a controller dispatches atomic queries to backend
// queues using least-pending-request-first scheduling, reads execute on
// one eligible backend (one that stores all fragments of the query's
// class), and updates execute on every backend storing their data
// (ROWA).
//
// The simulator replaces the paper's 16-node PostgreSQL/MySQL cluster
// for the parameter sweeps of the evaluation. Per-backend service times
// are the request's abstract cost divided by the backend speed,
// multiplied by a cache factor that models the buffer-pool effect the
// paper observes (backends storing less data cache better, which is why
// partial replication achieves super-linear speedup in Figure 4(a)).
package sim

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"

	"qcpa/internal/core"
	"qcpa/internal/runtime"
)

// Request is one unit of simulated work.
type Request struct {
	// Class names the query class; it determines eligibility.
	Class string
	// Write selects ROWA execution on every data-holding backend.
	Write bool
	// Cost is the service demand in seconds on a reference backend with
	// a full replica.
	Cost float64
}

// SchedulerPolicy selects how the controller picks a backend for reads.
// It aliases runtime.Kind: the simulator and the live cluster
// (internal/cluster) share the policy implementations in
// internal/runtime, so a policy evaluated here behaves identically on
// the real runtime.
type SchedulerPolicy = runtime.Kind

const (
	// LeastPending is the paper's least-pending-request-first strategy.
	LeastPending = runtime.LeastPending
	// RandomEligible picks a uniformly random eligible backend (an
	// ablation baseline).
	RandomEligible = runtime.RandomEligible
	// RoundRobin cycles through the eligible backends (ablation).
	RoundRobin = runtime.RoundRobin
)

// Options configure a simulation run.
type Options struct {
	// Alloc is the data placement; eligibility and the cache factor
	// derive from it.
	Alloc *core.Allocation
	// Speeds are relative backend speeds; a speed of 1 processes one
	// cost unit per second. Nil defaults to load(b) × |B|, which makes a
	// homogeneous cluster run at speed 1 per backend.
	Speeds []float64
	// CacheAlpha and CacheBeta shape the cache factor
	//
	//	factor(b) = CacheAlpha + (1-CacheAlpha) × residentFraction(b)^CacheBeta
	//
	// applied as a service-time multiplier (resident fraction 1 ⇒
	// factor 1; smaller resident data ⇒ faster). CacheAlpha = 1 (or 0
	// values) disables the effect.
	CacheAlpha, CacheBeta float64
	// Concurrency is the number of closed-loop clients (default 4 × |B|).
	Concurrency int
	// Policy is the read scheduling policy (default LeastPending).
	Policy SchedulerPolicy
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Downtimes lists backend outage windows: a down backend receives
	// no new work (reads route to live replicas, updates skip it), but
	// work already queued completes — the graceful failure model of
	// cluster.Fail. A request whose every eligible backend is down is
	// rejected and counted in Result.Unavailable. The simulator models
	// the availability and throughput effects of an outage, not the
	// catch-up data motion (that is the live cluster's redo-log path).
	Downtimes []Downtime
	// Migrations lists background live-migration windows: while a
	// window is open, the backend's service times are multiplied by its
	// Slowdown — the foreground cost of the throttled copy stream the
	// live cluster's MigrateLive/ResizeLive impose on a destination.
	// Unlike Downtimes the backend stays fully available (the live
	// engine never takes replicas out of service); it just runs slower.
	Migrations []Migration
}

// Downtime takes backend Backend out of service for the simulated time
// window [From, To).
type Downtime struct {
	Backend  int
	From, To float64
}

// Migration slows backend Backend by factor Slowdown (> 1) during the
// simulated time window [From, To) — the background load of a live
// migration copying tables onto it.
type Migration struct {
	Backend  int
	From, To float64
	Slowdown float64
}

// Result summarizes a run.
type Result struct {
	// Throughput is completed requests per simulated second.
	Throughput float64
	// Makespan is the simulated time at which the last request finished.
	Makespan float64
	// AvgLatency and MaxLatency are per-request response times
	// (dispatch to completion of all replicas for writes).
	AvgLatency, MaxLatency float64
	// BusyTime is the per-backend total busy time; its imbalance is the
	// Figure 4(j) metric.
	BusyTime []float64
	// Completed is the number of logical requests finished.
	Completed int
	// Unavailable counts requests rejected because every eligible
	// backend was inside a Downtime window at dispatch time.
	Unavailable int
}

type event struct {
	time    float64
	backend int
	seq     int
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type job struct {
	req      Request
	reqID    int
	dispatch float64
}

// simulator holds per-run state.
type simulator struct {
	opts     Options
	alloc    *core.Allocation
	cls      *core.Classification
	nb       int
	speeds   []float64
	factor   []float64
	eligible map[string][]int // class -> backends able to execute it
	writers  map[string][]int // update class -> backends holding it (ROWA targets)

	queues  [][]job // waiting jobs per backend (excluding the in-service one)
	current []*job  // in-service job per backend, nil when idle
	events  eventQueue
	seq     int
	now     float64

	pendingWrites map[int]int     // reqID -> replicas outstanding
	dispatched    map[int]float64 // reqID -> dispatch time
	latencies     []float64
	busyTime      []float64
	policy        *runtime.Policy
	rng           *rand.Rand
	completed     int
	unavailable   int
	onComplete    func(reqID int)
}

// downAt reports whether backend b is inside an outage window at time t.
func (s *simulator) downAt(b int, t float64) bool {
	for _, d := range s.opts.Downtimes {
		if d.Backend == b && t >= d.From && t < d.To {
			return true
		}
	}
	return false
}

// liveOf filters a backend set down to those not in an outage window
// at the current simulated time (no allocation when no downtimes are
// configured).
func (s *simulator) liveOf(backends []int) []int {
	if len(s.opts.Downtimes) == 0 {
		return backends
	}
	live := make([]int, 0, len(backends))
	for _, b := range backends {
		if !s.downAt(b, s.now) {
			live = append(live, b)
		}
	}
	return live
}

func newSimulator(opts Options) (*simulator, error) {
	if opts.Alloc == nil {
		return nil, errors.New("sim: nil allocation")
	}
	nb := opts.Alloc.NumBackends()
	s := &simulator{
		opts:          opts,
		alloc:         opts.Alloc,
		cls:           opts.Alloc.Classification(),
		nb:            nb,
		queues:        make([][]job, nb),
		current:       make([]*job, nb),
		busyTime:      make([]float64, nb),
		pendingWrites: make(map[int]int),
		dispatched:    make(map[int]float64),
		eligible:      make(map[string][]int),
		writers:       make(map[string][]int),
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	s.rng = rand.New(rand.NewSource(seed))
	s.policy = opts.Policy.New()

	s.speeds = opts.Speeds
	if s.speeds == nil {
		s.speeds = make([]float64, nb)
		for b := 0; b < nb; b++ {
			s.speeds[b] = s.alloc.Backends()[b].Load * float64(nb)
		}
	}
	if len(s.speeds) != nb {
		return nil, errors.New("sim: speeds length mismatch")
	}

	s.factor = make([]float64, nb)
	total := s.cls.TotalSize()
	for b := 0; b < nb; b++ {
		s.factor[b] = 1
		if opts.CacheAlpha > 0 && opts.CacheAlpha < 1 && total > 0 {
			frac := s.alloc.DataSize(b) / total
			if frac <= 0 {
				frac = 1.0 / total
			}
			beta := opts.CacheBeta
			if beta == 0 {
				beta = 1
			}
			s.factor[b] = opts.CacheAlpha + (1-opts.CacheAlpha)*math.Pow(frac, beta)
		}
	}

	for _, c := range s.cls.Classes() {
		var elig []int
		for b := 0; b < nb; b++ {
			if s.alloc.HasAllFragments(b, c.Fragments()) {
				elig = append(elig, b)
			}
		}
		if len(elig) == 0 {
			return nil, errors.New("sim: class " + c.Name + " has no eligible backend")
		}
		s.eligible[c.Name] = elig
		if c.Kind == core.Update {
			// ROWA: every backend storing any fragment of the class. By
			// allocation validity these backends store all of them.
			var ws []int
			for b := 0; b < nb; b++ {
				holds := false
				for _, f := range c.Fragments() {
					if s.alloc.HasFragment(b, f) {
						holds = true
						break
					}
				}
				if holds {
					ws = append(ws, b)
				}
			}
			s.writers[c.Name] = ws
		}
	}
	return s, nil
}

// pickRead selects a live backend for a read request via the shared
// runtime.Policy, or -1 when every eligible backend is down.
func (s *simulator) pickRead(class string) int {
	elig := s.liveOf(s.eligible[class])
	if len(elig) == 0 {
		return -1
	}
	pos := s.policy.Pick(len(elig), func(i int) int { return s.pendingAt(elig[i]) }, s.rng)
	return elig[pos]
}

// pendingAt is the simulator's pending count: queued jobs plus the one
// in service.
func (s *simulator) pendingAt(b int) int {
	n := len(s.queues[b])
	if s.current[b] != nil {
		n++
	}
	return n
}

// dispatch enqueues a request at the current simulated time. It
// reports false when every eligible backend was down (the request is
// rejected and counted unavailable, nothing enqueued).
func (s *simulator) dispatch(req Request, reqID int) bool {
	if req.Write {
		ws := s.writers[req.Class]
		if len(ws) == 0 {
			ws = s.eligible[req.Class]
		}
		ws = s.liveOf(ws)
		if len(ws) == 0 {
			s.unavailable++
			return false
		}
		s.dispatched[reqID] = s.now
		s.pendingWrites[reqID] = len(ws)
		for _, b := range ws {
			s.enqueue(b, job{req: req, reqID: reqID, dispatch: s.now})
		}
		return true
	}
	b := s.pickRead(req.Class)
	if b < 0 {
		s.unavailable++
		return false
	}
	s.dispatched[reqID] = s.now
	s.pendingWrites[reqID] = 1
	s.enqueue(b, job{req: req, reqID: reqID, dispatch: s.now})
	return true
}

func (s *simulator) enqueue(b int, j job) {
	s.queues[b] = append(s.queues[b], j)
	if s.current[b] == nil {
		s.startNext(b)
	}
}

// migrationSlowdown is the combined service-time multiplier of every
// migration window open on backend b at time t (1 when none are).
func (s *simulator) migrationSlowdown(b int, t float64) float64 {
	m := 1.0
	for _, w := range s.opts.Migrations {
		if w.Backend == b && t >= w.From && t < w.To && w.Slowdown > 1 {
			m *= w.Slowdown
		}
	}
	return m
}

func (s *simulator) startNext(b int) {
	if len(s.queues[b]) == 0 {
		s.current[b] = nil
		return
	}
	j := s.queues[b][0]
	s.queues[b] = s.queues[b][1:]
	s.current[b] = &j
	service := j.req.Cost / s.speeds[b] * s.factor[b] * s.migrationSlowdown(b, s.now)
	s.busyTime[b] += service
	s.seq++
	heap.Push(&s.events, event{time: s.now + service, backend: b, seq: s.seq})
}

// step processes the next completion event. Returns false when idle.
func (s *simulator) step() bool {
	if s.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.events).(event)
	s.now = e.time
	b := e.backend
	j := *s.current[b]
	s.current[b] = nil
	// Start the backend's next job before running completion callbacks:
	// a callback may dispatch new work to this backend, and enqueue
	// would then double-start it.
	s.startNext(b)
	s.pendingWrites[j.reqID]--
	if s.pendingWrites[j.reqID] == 0 {
		delete(s.pendingWrites, j.reqID)
		s.latencies = append(s.latencies, s.now-s.dispatched[j.reqID])
		delete(s.dispatched, j.reqID)
		s.completed++
		if s.onComplete != nil {
			s.onComplete(j.reqID)
		}
	}
	return true
}

// RunClosedLoop simulates n logical requests issued by opts.Concurrency
// closed-loop clients, each drawing its next request from next (called
// with the run's RNG).
func RunClosedLoop(opts Options, next func(rng *rand.Rand) Request, n int) (*Result, error) {
	s, err := newSimulator(opts)
	if err != nil {
		return nil, err
	}
	clients := opts.Concurrency
	if clients <= 0 {
		clients = 4 * s.nb
	}
	if clients > n {
		clients = n
	}
	issued := 0
	// issue draws requests until one is actually delivered (a rejected
	// request returns to the client immediately, so the closed loop
	// moves on to its next request without waiting).
	issue := func() {
		for issued < n {
			id := issued
			issued++
			if s.dispatch(next(s.rng), id) {
				return
			}
		}
	}
	s.onComplete = func(int) { issue() }
	for i := 0; i < clients; i++ {
		issue()
	}
	for s.step() {
	}
	return s.result(), nil
}

// TimedRequest is a request with an arrival time (open-loop mode).
type TimedRequest struct {
	Request
	Arrival float64
}

// RunOpenLoop simulates requests arriving at fixed times (the autoscale
// experiments drive this with the 24-hour trace).
func RunOpenLoop(opts Options, requests []TimedRequest) (*Result, error) {
	s, err := newSimulator(opts)
	if err != nil {
		return nil, err
	}
	i := 0
	for i < len(requests) || s.events.Len() > 0 {
		// Admit every arrival at or before the next completion.
		nextEvent := -1.0
		if s.events.Len() > 0 {
			nextEvent = s.events[0].time
		}
		if i < len(requests) && (nextEvent < 0 || requests[i].Arrival <= nextEvent) {
			s.now = requests[i].Arrival
			s.dispatch(requests[i].Request, i)
			i++
			continue
		}
		if !s.step() {
			break
		}
	}
	return s.result(), nil
}

func (s *simulator) result() *Result {
	r := &Result{
		Makespan:    s.now,
		BusyTime:    s.busyTime,
		Completed:   s.completed,
		Unavailable: s.unavailable,
	}
	if s.now > 0 {
		r.Throughput = float64(s.completed) / s.now
	}
	for _, l := range s.latencies {
		r.AvgLatency += l
		if l > r.MaxLatency {
			r.MaxLatency = l
		}
	}
	if len(s.latencies) > 0 {
		r.AvgLatency /= float64(len(s.latencies))
	}
	return r
}
