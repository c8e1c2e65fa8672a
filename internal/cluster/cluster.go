// Package cluster is a working, concurrent implementation of the CDBS
// prototype of Section 4 (Figure 3): a controller with per-backend
// queues in front of independent embedded database engines
// (internal/sqlmini standing in for the paper's PostgreSQL/MySQL
// instances).
//
// Processing model (Section 2): every query is an atomic unit executed
// entirely by one backend that stores all data fragments of the query's
// class; reads are scheduled least-pending-request-first among the
// eligible backends and execute lock-free against each engine's latest
// published snapshot; updates follow the ROWA protocol — they execute
// on every backend holding their data, and all backends apply
// conflicting updates in the same global order. Concurrent updates are
// batched into group-committed rounds (see group.go): each writer's
// turn under the dispatch lock commits every update pending at that
// moment as one round in a deterministic order, and each backend
// drains its update queue with a single applier — per-backend FIFO
// round order equals the global round order, and every round publishes
// exactly one new read epoch.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/runtime/metrics"
	"qcpa/internal/sqlmini"
	"qcpa/internal/stats"
	"qcpa/internal/workload"
)

// TableOfFragment maps a fragment ID to the table that stores it:
// "t" -> t (table granularity), "t.col" -> t (vertical), "t#3" -> t
// (horizontal). The runtime operates at table granularity — a backend
// assigned any fragment of a table loads the whole table, which is also
// what the paper's prototype does for bulk loading.
func TableOfFragment(f core.FragmentID) string {
	s := string(f)
	if i := strings.IndexAny(s, ".#"); i >= 0 {
		return s[:i]
	}
	return s
}

// Loader populates an engine with the given tables (a workload
// generator's Load function curried with its row counts).
type Loader func(e *sqlmini.Engine, tables []string) error

// readWorkers is the number of concurrent read connections per
// backend, mirroring the prototype's connection pools.
const readWorkers = 2

// Config configures a cluster.
type Config struct {
	// Backends names the backends and their relative performance.
	Backends []core.Backend
	// Policy selects the read-scheduling policy (default LeastPending,
	// the paper's strategy). The implementations are shared with the
	// simulator via internal/runtime.
	Policy runtime.Kind
	// PolicySeed seeds the randomized policies (default 1).
	PolicySeed int64
	// Timeout, when positive, bounds every request: Execute derives a
	// per-request context.WithTimeout from it. A request that exceeds
	// the deadline returns context.DeadlineExceeded (an abandoned ROWA
	// write still completes on the replicas — see executeWrite).
	Timeout time.Duration
	// MaxRetries is the number of additional replicas a failing read
	// may fail over to (default 2). Each retry picks a not-yet-tried
	// live replica via the scheduling policy.
	MaxRetries int
	// Backoff is the base delay of the full-jitter exponential backoff
	// between read retries (retry i waits uniform[0, Backoff·2^i],
	// capped at 32×Backoff). Zero disables waiting, which keeps retries
	// immediate — the pre-fault-tolerance behavior.
	Backoff time.Duration
	// RedoLogCap bounds the per-backend redo log of updates missed
	// while Down (default 4096). Overflow marks the log lost: the
	// backend then recovers by re-copying its tables from a live
	// replica instead of replaying.
	RedoLogCap int
}

// failThreshold is the number of consecutive read failures after which
// a Degraded backend is demoted to Down automatically (reads stop
// routing to it and its updates divert to the redo log).
const failThreshold = 3

// backend is one node: an engine, its table set, its runtime metrics
// (whose pending gauge is also the scheduling input), an ordered
// update applier, and its health state (see health.go for the state
// machine and recovery path).
type backend struct {
	name    string
	engine  *sqlmini.Engine
	metrics *metrics.Backend
	// tables is the backend's routing table set, copy-on-write: the map
	// behind the pointer is immutable, mutators swap in a fresh copy, so
	// the lock-free routing paths (eligible, executeRead's stale check,
	// executeWrite's holder scan) read it without synchronization. It
	// maps each held table to the stamp of the publish that added it, so
	// a table dropped and copied back is told apart from one held
	// throughout. Mutations, and stamp with them, are serialized by their
	// callers — Install and live migrations under Cluster.liveMu.
	tables   atomic.Pointer[map[string]uint64]
	stamp    uint64
	updateCh chan *updateJob
	wg       sync.WaitGroup
	readSem  chan struct{}

	health runtime.Health
	// direct marks a CatchingUp backend whose redo log has drained:
	// new updates enqueue directly again while checksum verification
	// finishes. Flipped only under the cluster's dispatch lock.
	direct atomic.Bool
	// missed is the redo log: the updates this backend did not receive
	// while it was not accepting writes. It and downSince are guarded by
	// Cluster.dispatchMu.
	missed    roundLog
	downSince time.Time
	// capture maps tables this backend is receiving through a live
	// migration to their delta logs (guarded by Cluster.dispatchMu).
	// A captured table is disjoint from the held set: the backend holds
	// it only after the migration's cutover barrier.
	capture map[string]*roundLog
}

// tableSet returns the backend's current table set. The returned map
// must not be mutated — see the tables field.
func (b *backend) tableSet() map[string]uint64 { return *b.tables.Load() }

// holds reports whether the backend currently holds a table.
func (b *backend) holds(t string) bool {
	_, ok := b.tableSet()[t]
	return ok
}

// holdsAll reports whether the backend holds every listed table.
func (b *backend) holdsAll(ts []string) bool {
	set := b.tableSet()
	for _, t := range ts {
		if _, ok := set[t]; !ok {
			return false
		}
	}
	return true
}

// heldThroughout reports whether the listed tables are all in the later
// table set under the stamps they had in the earlier one: the backend
// held each of them the whole time in between.
func heldThroughout(before, after map[string]uint64, ts []string) bool {
	for _, t := range ts {
		if s, ok := before[t]; !ok || after[t] != s {
			return false
		}
	}
	return true
}

// holdsAny reports whether the backend holds any listed table.
func (b *backend) holdsAny(ts []string) bool {
	set := b.tableSet()
	for _, t := range ts {
		if _, ok := set[t]; ok {
			return true
		}
	}
	return false
}

// setTables replaces the table set wholesale (Install).
func (b *backend) setTables(tables map[string]bool) {
	ts := make(map[string]uint64, len(tables))
	for t := range tables {
		b.stamp++
		ts[t] = b.stamp
	}
	b.tables.Store(&ts)
}

// addTable publishes one more held table (a live-migration cutover,
// under dispatchMu).
func (b *backend) addTable(t string) {
	old := b.tableSet()
	ts := make(map[string]uint64, len(old)+1)
	for k, s := range old {
		ts[k] = s
	}
	b.stamp++
	ts[t] = b.stamp
	b.tables.Store(&ts)
}

// removeTable unpublishes a held table (a live-migration drop, under
// dispatchMu).
func (b *backend) removeTable(t string) {
	old := b.tableSet()
	ts := make(map[string]uint64, len(old))
	for k, s := range old {
		if k != t {
			ts[k] = s
		}
	}
	b.tables.Store(&ts)
}

// acceptsWrites reports whether ROWA updates enqueue directly onto the
// backend (as opposed to its redo log). Called under dispatchMu so the
// decision is serialized with recovery's drain-and-flip.
//
//qcpa:locks dispatchMu
func (b *backend) acceptsWrites() bool {
	switch b.health.State() {
	case runtime.Up, runtime.Degraded:
		return true
	case runtime.CatchingUp:
		return b.direct.Load()
	}
	return false
}

// enqueue hands a job to the backend's applier.
func (b *backend) enqueue(job *updateJob) {
	b.metrics.IncPending()
	//qcpa:nocancel a round whose order is fixed under dispatchMu must reach every target: abandoning the send would diverge the replicas (the queue holds 1024 jobs)
	b.updateCh <- job
}

// updateJob is one queue entry for a backend's applier. Committed
// group rounds carry their ordered statements in round; recovery and
// live migration enqueue control jobs (checksum barriers, clones,
// restores, drops) through the same queue so they observe a
// well-defined position in the global round order.
type updateJob struct {
	round *roundJob  // one group-committed round (or a replayed one)
	done  chan error // nil for a live round: its writers wait on their entries

	// Control-job fields (at most one set; round is nil then).
	checksum []string          // compute checksums of these tables
	sums     map[string]uint64 // checksum result, valid after done
	clone    *cloneWait        // cut a table at this queue position
	restore  []*updateJob      // await these clone jobs and install their cuts
	drop     []string          // drop these tables at this queue position
}

// Cluster is the controller plus its backends.
type Cluster struct {
	cfg Config
	// nodes is the published backend slice, swapped atomically so the
	// lock-free request paths iterate a consistent pool while elastic
	// live resizes grow or shrink it. Swaps are serialized under liveMu
	// (and additionally ordered with the update fan-out by holding
	// dispatchMu when a swap must not race an enqueue).
	nodes atomic.Pointer[[]*backend]

	policy  *runtime.Policy
	rng     *rand.Rand // concurrency-safe (runtime.NewLockedRand)
	metrics *metrics.Registry

	// liveMu serializes the allocation-changing operations — Install,
	// MigrateLive, ResizeLive: at most one reallocation runs at a time.
	// Lock order: liveMu > dispatchMu > journalMu.
	liveMu sync.Mutex

	// routes is the installed routing, published under liveMu and read
	// lock-free by every request (nil before the first Install).
	routes atomic.Pointer[routing]

	dispatchMu sync.Mutex // global update (round) order
	// roundTick numbers committed rounds; redo/delta appends carry it
	// so logged statements regroup into the exact rounds the live
	// replicas applied. Guarded by dispatchMu.
	roundTick uint64

	// Group-commit state (see group.go): entries pend on groupPending
	// under groupMu until a writer's turn under dispatchMu takes them
	// into a round. groupMu is taken inside dispatchMu.
	groupMu      sync.Mutex
	groupPending []*groupEntry

	journalMu sync.Mutex
	journal   map[string]*journalLine

	migMu sync.Mutex // guards mig (live-migration progress)
	mig   MigrationStatus

	stopped atomic.Bool
}

// all returns the published backend slice. The slice is immutable;
// resizes publish a new one.
func (c *Cluster) all() []*backend { return *c.nodes.Load() }

// setNodes publishes a new backend slice (serialized under liveMu; held
// together with dispatchMu when the swap must be ordered with the
// update fan-out).
func (c *Cluster) setNodes(bs []*backend) { c.nodes.Store(&bs) }

// journalCap bounds the query journal's lines. A line is a statement
// shape, so TPC-App's 10 templates and TPC-H's 19 never reach it; it is
// there because client SQL can make any number of shapes (a LIMIT count
// is not a literal, and IN-list lengths and aliases vary).
const journalCap = 8192

// journalLine is one shape's executions: how many, their summed time,
// and the least text seen (its literals are the line's).
type journalLine struct {
	sql   string
	count int
	total time.Duration
}

// New creates a cluster with empty backends.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RedoLogCap <= 0 {
		cfg.RedoLogCap = 4096
	}
	c := &Cluster{
		cfg:     cfg,
		policy:  cfg.Policy.New(),
		rng:     runtime.NewLockedRand(cfg.PolicySeed),
		metrics: metrics.NewRegistry(),
		journal: make(map[string]*journalLine),
	}
	bs := make([]*backend, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		bs = append(bs, c.newBackend(b.Name))
	}
	c.setNodes(bs)
	return c, nil
}

// newBackend creates one node with its applier running (shared by New
// and the elastic scale-out path).
func (c *Cluster) newBackend(name string) *backend {
	be := &backend{
		name:     name,
		engine:   sqlmini.New(),
		metrics:  metrics.NewBackend(),
		updateCh: make(chan *updateJob, 1024),
		readSem:  make(chan struct{}, readWorkers),
	}
	be.setTables(make(map[string]bool))
	be.wg.Add(1)
	go be.applyUpdates()
	return be
}

// applyUpdates drains the backend's update queue in FIFO order — the
// single applier guarantees that this backend applies rounds in
// exactly the order the controller enqueued them. Besides committed
// rounds it serves the control jobs: checksum barriers, clones,
// restores and drops, which thereby observe an exact position in the
// global round order (every round is either wholly before or wholly
// after them on all replicas).
func (b *backend) applyUpdates() {
	defer b.wg.Done()
	for job := range b.updateCh {
		switch {
		case job.round != nil:
			b.applyRound(job)
		case job.checksum != nil:
			sums, err := b.engine.Checksums(job.checksum)
			job.sums = sums
			b.metrics.DecPending()
			job.done <- err
		case job.restore != nil:
			err := b.applyRestore(job.restore)
			b.metrics.DecPending()
			job.done <- err
		case job.clone != nil:
			cut, err := b.engine.CutTable(job.clone.table)
			job.clone.cut = cut
			b.metrics.DecPending()
			job.done <- err
		case job.drop != nil:
			err := b.applyDrop(job.drop)
			b.metrics.DecPending()
			job.done <- err
		}
	}
}

// applyRound applies one committed round through the engine's
// ApplyRound — all statements in order under one engine hold, then ONE
// published read epoch — and reports each statement's outcome to the
// writer waiting on its entry. Completion is signaled strictly after
// the publish, so an acknowledged write is readable on this replica.
// A statement error does not stop the round (replicas must stay in
// lockstep; the waiting writer quarantines diverged replicas).
func (b *backend) applyRound(job *updateJob) {
	rj := job.round
	stmts := make([]sqlmini.Statement, len(rj.stmts))
	for i, rs := range rj.stmts {
		stmts[i] = rs.stmt
	}
	results := b.engine.ApplyRound(stmts)
	// Before any writer is released: an acknowledged write must not
	// still count as pending on its replicas.
	b.metrics.DecPending()
	var firstErr error
	for i, rs := range rj.stmts {
		r := results[i]
		b.metrics.ObserveWrite(r.Duration, r.Err != nil)
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		if rs.entry != nil {
			rs.entry.complete(b, r.Err, r.Affected)
		}
	}
	if job.done != nil {
		job.done <- firstErr
	}
}

// applyRestore installs the tables cut by source backends' clone jobs —
// the live copy's transport: it waits for every cut, drops the local
// copies, and rebuilds each table from its cut (index definitions
// included). Updates enqueued behind the restore then apply to the
// fresh data, so the backend ends bit-identical to its sources.
func (b *backend) applyRestore(clones []*updateJob) error {
	for _, j := range clones {
		if err := <-j.done; err != nil {
			return fmt.Errorf("cluster: resync source: %w", err)
		}
	}
	if err := b.applyDrop(cloneTables(clones)); err != nil {
		return err
	}
	for _, j := range clones {
		table, cut := j.clone.table, j.clone.cut
		if err := b.engine.CreateTable(table, cut.Columns()); err != nil {
			return err
		}
		if err := b.engine.BulkInsert(table, cut.Rows(0, cut.NumRows())); err != nil {
			return err
		}
	}
	return nil
}

// cloneTables lists the tables the clone jobs cut, in job order.
func cloneTables(clones []*updateJob) []string {
	tables := make([]string, len(clones))
	for i, j := range clones {
		tables[i] = j.clone.table
	}
	return tables
}

// applyDrop removes tables at this queue position: serialized with the
// updates the backend received while it still held them, so a drop from
// a live migration never races an in-flight apply.
func (b *backend) applyDrop(tables []string) error {
	for _, t := range tables {
		if b.engine.Table(t) == nil {
			continue
		}
		if _, err := b.engine.Exec("DROP TABLE " + t); err != nil {
			return err
		}
	}
	return nil
}

// errClosed fails a request made, or a round turn taken, after Close.
var errClosed = errors.New("cluster: closed")

// Close shuts the backends down. It passes through dispatchMu before
// closing the appliers' queues: a turn in progress finishes its sends
// first, and a turn that starts later sees stopped and fails its
// entries with errClosed.
func (c *Cluster) Close() {
	if c.stopped.Swap(true) {
		return
	}
	c.dispatchMu.Lock()
	c.dispatchMu.Unlock()
	for _, b := range c.all() {
		close(b.updateCh)
		b.wg.Wait()
	}
}

// Install wipes every backend and bulk-loads the tables its fragments
// require under the given allocation, then publishes the allocation's
// routing. The loader receives the table list each backend needs.
// Install is a call made before traffic starts: requests running during
// the wipe see empty or half-loaded backends. Reallocating a serving
// cluster is MigrateLive's job.
func (c *Cluster) Install(alloc *core.Allocation, load Loader) error {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	backends := c.all()
	if alloc.NumBackends() != len(backends) {
		return fmt.Errorf("cluster: allocation has %d backends, cluster has %d", alloc.NumBackends(), len(backends))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(backends))
	for i, b := range backends {
		tables := fragmentTables(alloc.Fragments(i))
		wg.Add(1)
		go func(b *backend, list []string, tables map[string]bool, i int) {
			defer wg.Done()
			b.engine = sqlmini.New() // wipe
			b.setTables(tables)
			if len(list) > 0 {
				if err := load(b.engine, list); err != nil {
					errs[i] = fmt.Errorf("cluster: install backend %s: %w", b.name, err)
				}
			}
		}(b, sortedTables(tables), tables, i)
	}
	wg.Wait()
	// Report the first failing backend (by backend order) with its
	// identity, rather than an anonymous loader error.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// A freshly installed allocation starts with every backend healthy:
	// whatever was Down or mid-recovery has just been wiped and reloaded.
	c.dispatchMu.Lock()
	for _, b := range backends {
		b.health.Set(runtime.Up)
		b.health.ResetFailures()
		b.direct.Store(false)
		b.missed.reset()
		b.downSince = time.Time{}
		b.capture = nil
	}
	c.dispatchMu.Unlock()
	c.routes.Store(newRouting(alloc))
	return nil
}

// routing is an installed allocation with the tables each of its
// classes needs. It is immutable once published: installing an
// allocation publishes a new one.
type routing struct {
	alloc   *core.Allocation
	classes map[string][]string // class -> required tables, sorted
}

func newRouting(alloc *core.Allocation) *routing {
	r := &routing{alloc: alloc, classes: make(map[string][]string)}
	for _, cl := range alloc.Classification().Classes() {
		r.classes[cl.Name] = sortedTables(fragmentTables(cl.Fragments()))
	}
	return r
}

// fragmentTables folds fragments into the set of tables storing them.
func fragmentTables(frags []core.FragmentID) map[string]bool {
	tables := make(map[string]bool, len(frags))
	for _, f := range frags {
		tables[TableOfFragment(f)] = true
	}
	return tables
}

// route maps a request to the tables its backend must hold: its class's
// tables when the installed routing knows the class, otherwise the
// tables the statement names (a statement that names none, i.e. DDL,
// needs a class).
func (c *Cluster) route(class string, stmt sqlmini.Statement, sql string) ([]string, error) {
	if r := c.routes.Load(); r != nil {
		if tables, ok := r.classes[class]; ok {
			return tables, nil
		}
	}
	if len(stmt.Tables) == 0 {
		return nil, fmt.Errorf("cluster: cannot route %q: it names no table and has no known class", sql)
	}
	return stmt.Tables, nil
}

// eligible appends to dst the backends holding every listed table.
func (c *Cluster) eligible(dst []*backend, tables []string) []*backend {
	for _, b := range c.all() {
		if b.holdsAll(tables) {
			dst = append(dst, b)
		}
	}
	return dst
}

// Result reports one executed request.
type Result struct {
	Backend  string
	Duration time.Duration
	Rows     int
	Scanned  int64
	// Columns and Data carry the result set of a read (nil for
	// writes).
	Columns []string
	Data    []sqlmini.Row
	// Affected is the number of rows written (writes only, from one
	// replica — all replicas agree).
	Affected int
}

// Execute routes and executes one request synchronously with the
// cluster's default timeout. Reads run on the backend chosen by the
// configured scheduling policy (least-pending by default); writes run
// on every backend holding their data, in global order, and return
// when all replicas applied them.
func (c *Cluster) Execute(req workload.Request) (*Result, error) {
	return c.ExecuteContext(context.Background(), req)
}

// ExecuteContext is Execute under a caller-supplied context: the
// request is abandoned when ctx is canceled or times out. Config.
// Timeout, when set, is layered on top as a per-request deadline.
func (c *Cluster) ExecuteContext(ctx context.Context, req workload.Request) (*Result, error) {
	if c.stopped.Load() {
		return nil, errClosed
	}
	if c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}
	stmt, err := sqlmini.Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	tables, err := c.route(req.Class, stmt, req.SQL)
	if err != nil {
		return nil, err
	}
	return c.executeRouted(ctx, stmt, req, tables)
}

// executeRouted runs an already-parsed, already-routed request and
// records it in the query journal on its shape's line (ad hoc and
// prepared executions of one template share it).
func (c *Cluster) executeRouted(ctx context.Context, stmt sqlmini.Statement, req workload.Request, tables []string) (*Result, error) {
	start := time.Now()
	var res *Result
	var err error
	if req.Write {
		res, err = c.executeWrite(ctx, stmt, req.Class, tables)
	} else {
		res, err = c.executeRead(ctx, stmt, req.Class, tables)
	}
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	c.record(stmt, req.SQL, res.Duration)
	return res, nil
}

// pickRead applies the configured scheduling policy to the eligible
// backends, using the metrics pending gauges as the pending counts.
func (c *Cluster) pickRead(elig []*backend) *backend {
	pos := c.policy.Pick(len(elig), func(i int) int { return int(elig[i].metrics.Pending()) }, c.rng)
	return elig[pos]
}

// readCandidates filters the eligible backends down to live replicas
// not yet tried by this request, preferring Up over Degraded ones. When
// nothing was tried yet and every eligible backend is Up — a first
// attempt on a healthy cluster — it returns elig itself and allocates
// nothing.
func readCandidates(elig, tried []*backend) []*backend {
	allUp := len(tried) == 0
	for _, b := range elig {
		if b.health.State() != runtime.Up {
			allUp = false
			break
		}
	}
	if allUp {
		return elig
	}
	var up, degraded []*backend
	for _, b := range elig {
		if slices.Contains(tried, b) {
			continue
		}
		switch b.health.State() {
		case runtime.Up:
			up = append(up, b)
		case runtime.Degraded:
			degraded = append(degraded, b)
		}
	}
	if len(up) > 0 {
		return up
	}
	return degraded
}

// errStaleRoute is a read attempt discarded because its backend stopped
// holding one of its tables while it ran.
var errStaleRoute = errors.New("cluster: the backend's tables changed during the read")

// executeRead schedules a read onto a live replica and fails over on
// error: up to Config.MaxRetries additional replicas are tried (never
// the same one twice per request), with full-jitter exponential
// backoff between attempts. A read whose every eligible replica is
// Down — or has already failed this request — returns a typed
// *runtime.UnavailableError naming the query class.
func (c *Cluster) executeRead(ctx context.Context, stmt sqlmini.Statement, class string, tables []string) (*Result, error) {
	// The first attempt's candidates stay on the stack; only a failover
	// (which recomputes eligibility) allocates.
	var buf [8]*backend
	elig := c.eligible(buf[:0], tables)
	if len(elig) == 0 {
		return nil, fmt.Errorf("cluster: no backend holds tables %v", tables)
	}
	backoff := runtime.Backoff{Base: c.cfg.Backoff}
	// tried stays nil until a replica fails this request.
	var tried []*backend
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			// A live-migration cutover may have published new holders
			// between attempts; recompute eligibility so failover can
			// land on them.
			if e2 := c.eligible(nil, tables); len(e2) > 0 {
				elig = e2
			}
		}
		cand := readCandidates(elig, tried)
		if len(cand) == 0 {
			break
		}
		if attempt > 0 {
			c.metrics.ObserveRetry()
			if d := backoff.Delay(attempt-1, c.rng); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return nil, ctx.Err()
				}
			}
		}
		best := c.pickRead(cand)
		held := best.tableSet() // the table set this attempt is routed by
		best.metrics.IncPending()
		select {
		case best.readSem <- struct{}{}:
		case <-ctx.Done():
			best.metrics.DecPending()
			return nil, ctx.Err()
		}
		start := time.Now()
		r, err := best.engine.ExecStmtContext(ctx, stmt)
		<-best.readSem
		best.metrics.ObserveRead(time.Since(start), err != nil)
		best.metrics.DecPending()
		if err != nil && ctx.Err() != nil {
			// The caller's deadline expired; the backend is not to blame.
			return nil, ctx.Err()
		}
		if !heldThroughout(held, best.tableSet(), tables) {
			// Stale route: a live migration unrouted one of the tables
			// between routing and the end of the read. It unroutes a table
			// before dropping it and before a later copy recreates it, so
			// the read may have found the table missing or a copy in
			// flight. Not the backend's fault and not a statement error —
			// fail over without a health penalty.
			tried = append(tried, best)
			lastErr = errStaleRoute
			continue
		}
		if err == nil {
			best.health.NoteSuccess()
			return &Result{Backend: best.name, Rows: len(r.Rows), Scanned: r.Scanned, Columns: r.Columns, Data: r.Rows}, nil
		}
		if !sqlmini.IsEngineFailure(err) {
			// A statement error fails identically on every replica —
			// surface it without burning retries or blaming the backend.
			return nil, err
		}
		lastErr = err
		tried = append(tried, best)
		best.metrics.ObserveFailover()
		if _, wentDown := best.health.NoteFailure(failThreshold); wentDown {
			c.noteAutoDown(best)
		}
	}
	if lastErr != nil && len(readCandidates(elig, tried)) > 0 {
		// Retries exhausted but live replicas remain: a genuine query
		// error (it would fail anywhere), not unavailability.
		return nil, lastErr
	}
	c.metrics.ObserveUnavailable()
	return nil, &runtime.UnavailableError{Class: class, Tables: tables, Last: lastErr}
}

func (c *Cluster) executeWrite(ctx context.Context, stmt sqlmini.Statement, class string, tables []string) (*Result, error) {
	// Route by the actually-written table when the statement names one
	// (a class can span more tables than any single statement; during a
	// live migration a backend may transiently hold only part of a
	// class's tables, and fanning the update to a non-holder would
	// error there and quarantine it).
	routeTables := tables
	if wt := stmt.WriteTable(); wt != "" {
		routeTables = []string{wt}
	}
	// Queue the update and take a turn at committing (group.go): the
	// update rides a round — this turn's or an earlier one's — that
	// fixes the deterministic global order, routes it under one
	// dispatchMu hold shared with the rest of its round, and fans round
	// jobs out to every live holder (with redo and delta capture for
	// the absent ones). The entry's done channel closes once every
	// target replica applied — and published — its round, so an
	// acknowledged write is immediately readable.
	e := &groupEntry{
		stmt:        stmt,
		class:       class,
		tables:      tables,
		routeTables: routeTables,
		submitted:   time.Now(),
		affected:    -1,
		done:        make(chan struct{}),
	}
	c.groupMu.Lock()
	c.groupPending = append(c.groupPending, e)
	c.groupMu.Unlock()
	c.takeTurn()
	select {
	case <-e.done:
	case <-ctx.Done():
		// The update is (or will be) committed into a round in global
		// order; the replicas finish applying it (staying consistent),
		// the caller just stops waiting.
		return nil, ctx.Err()
	}
	if e.routeErr != nil {
		return nil, e.routeErr
	}
	if e.errCount == e.targets {
		// Every live replica rejected the update identically (a
		// statement error): the replicas still agree, surface it.
		return nil, e.firstErr
	}
	if e.errCount > 0 {
		// Partial failure: the erroring replicas missed an update the
		// others applied — they have diverged. Quarantine them (Down
		// with a lost redo log) so recovery re-copies their tables.
		// Quarantine runs here, on the waiting writer — never on an
		// applier goroutine, which must not block on dispatchMu.
		for _, bad := range e.failed {
			c.quarantine(bad)
		}
	}
	return &Result{Backend: fmt.Sprintf("%d replicas", e.targets), Affected: e.affected}, nil
}

// record adds one execution of stmt, sent as sql, to the query history
// (Figure 3's journal) on the line of its shape (Shape.Key), which keeps
// the least text seen: the journal has one line per template, whatever
// the arrival order. A statement that names no table (DDL) has nothing
// to classify and is not journaled. Admitting a new shape at journalCap
// first evicts the least-frequent eighth of the lines.
func (c *Cluster) record(stmt sqlmini.Statement, sql string, d time.Duration) {
	if len(stmt.Tables) == 0 {
		return
	}
	key := stmt.Key()
	c.journalMu.Lock()
	line, ok := c.journal[key]
	if !ok {
		if len(c.journal) >= journalCap {
			c.evictJournalLocked()
		}
		line = &journalLine{sql: sql}
		c.journal[key] = line
	} else if sql < line.sql {
		line.sql = sql
	}
	line.count++
	line.total += d
	c.journalMu.Unlock()
}

// evictJournalLocked drops the least-frequent eighth of the journal (at
// least one line). Equally cold lines go in sorted key order, not map
// order, so the survivors are reproducible run to run (the journal feeds
// the classification, which feeds Result).
//
//qcpa:locks journalMu
func (c *Cluster) evictJournalLocked() {
	for _, key := range stats.ColdestEighth(c.journal, func(line *journalLine) int64 { return int64(line.count) }) {
		delete(c.journal, key)
	}
}

// History returns the recorded journal as classification input: one
// entry per statement shape, its least text with the shape's occurrence
// count and average execution time in milliseconds (Eq. 4's weight
// source), sorted by text.
func (c *Cluster) History() []classify.Entry {
	c.journalMu.Lock()
	defer c.journalMu.Unlock()
	entries := make([]classify.Entry, 0, len(c.journal))
	for _, line := range c.journal {
		avg := float64(line.total.Microseconds()) / float64(line.count) / 1000
		if avg <= 0 {
			avg = 0.001
		}
		entries = append(entries, classify.Entry{SQL: line.sql, Count: line.count, Cost: avg})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].SQL < entries[j].SQL })
	return entries
}

// ResetHistory clears the journal (after a reallocation).
func (c *Cluster) ResetHistory() {
	c.journalMu.Lock()
	c.journal = make(map[string]*journalLine)
	c.journalMu.Unlock()
}

// Metrics snapshots the runtime layer's per-backend counters, pending
// gauges, latency histograms, and the ROWA fan-out series (the
// {"cmd":"metrics"} payload of internal/server).
func (c *Cluster) Metrics() *metrics.Snapshot {
	snap := &metrics.Snapshot{
		Policy:      c.policy.Name(),
		Fanout:      c.metrics.Fanout(),
		Reliability: c.metrics.Reliability(),
	}
	snap.Migration = c.metrics.Migration()
	snap.GroupCommit = c.metrics.GroupCommit()
	for _, b := range c.all() {
		bs := b.metrics.Snapshot(b.name)
		bs.State = b.health.State().String()
		bs.Epoch = b.engine.Epoch()
		ps := b.engine.PlannerStats()
		bs.Planner = metrics.PlannerSnapshot{
			PlanHits:          ps.Hits,
			PlanMisses:        ps.Misses,
			PlanInvalidations: ps.Invalidations,
			PlanEvictions:     ps.Evictions,
			PlanEntries:       ps.Entries,
			JoinPlans:         ps.JoinPlans,
			JoinReordered:     ps.Reordered,
		}
		snap.Planner.Add(bs.Planner)
		snap.Backends = append(snap.Backends, bs)
	}
	return snap
}

// NumBackends returns the number of backends.
func (c *Cluster) NumBackends() int { return len(c.all()) }

// Backend returns the engine of backend i (tests and examples inspect
// replica state through it).
func (c *Cluster) Backend(i int) *sqlmini.Engine { return c.all()[i].engine }

// Tables returns the tables held by backend i, sorted.
func (c *Cluster) Tables(i int) []string { return sortedTables(c.all()[i].tableSet()) }

// Stats summarizes a Run.
type Stats struct {
	Completed int
	Errors    int
	// Error breakdown: Timeouts are requests whose context expired,
	// Unavailable are requests that found no live replica
	// (runtime.ErrUnavailable), BackendErrors is everything else
	// (statement errors, injected faults that exhausted retries).
	// Timeouts + Unavailable + BackendErrors == Errors.
	Timeouts      int
	Unavailable   int
	BackendErrors int
	// FirstError is the message of the first error observed ("" when
	// the run was clean) — enough to diagnose a failing run without
	// logging every repetition.
	FirstError string
	Elapsed    time.Duration
	Throughput float64 // requests per second
	AvgLatency time.Duration
	PerBackend map[string]int // reads executed per backend
}

// Run drives the cluster with a closed loop of `concurrency` clients
// drawing n requests from next. It mirrors the prototype's driver
// component.
func (c *Cluster) Run(next func() workload.Request, n, concurrency int) (*Stats, error) {
	if concurrency <= 0 {
		concurrency = 2 * len(c.all())
	}
	var (
		mu       sync.Mutex
		totalLat time.Duration
		perB     = make(map[string]int)
		st       Stats
		done     int
	)
	var idx atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1)
				if int(i) > n {
					return
				}
				req := func() workload.Request {
					mu.Lock()
					defer mu.Unlock()
					return next()
				}()
				res, err := c.Execute(req)
				mu.Lock()
				if err != nil {
					st.Errors++
					switch {
					case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
						st.Timeouts++
					case errors.Is(err, runtime.ErrUnavailable):
						st.Unavailable++
					default:
						st.BackendErrors++
					}
					if st.FirstError == "" {
						st.FirstError = err.Error()
					}
				} else {
					done++
					totalLat += res.Duration
					perB[res.Backend]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	st.Completed = done
	st.PerBackend = perB
	if done > 0 {
		st.AvgLatency = totalLat / time.Duration(done)
		st.Throughput = float64(done) / st.Elapsed.Seconds()
	}
	return &st, nil
}
