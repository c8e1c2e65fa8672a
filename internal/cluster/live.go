package cluster

import (
	"errors"
	"fmt"
	"time"

	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/sqlmini"
)

// This file is the reallocation engine (DESIGN.md §10), the only way
// besides Install to change the installed allocation. The new
// allocation's backends are matched onto the physical ones with the
// Hungarian method (Section 3.4; padded with virtual backends when the
// count changes, Section 5), missing tables are copied from a backend
// that already stores them (the paper's ETL data transport) in
// throttled batches while the cluster keeps serving, only tables no
// backend holds come from the loader, and tables nobody needs any more
// are dropped. Foreground updates block only for a per-table cutover
// barrier — a single dispatchMu hold that catches the delta log drained
// and publishes the new replica. An idle cluster is the same protocol
// with an empty delta log.
//
// Per-table protocol:
//
//  1. Clone barrier (one dispatchMu hold): a clone control job is
//     enqueued on a live source's applier — the deep copy is cut at an
//     exact position P in the global update order — and a delta capture
//     is registered for the destination. Every update ordered after P
//     lands in the capture; every update before P is in the clone.
//  2. Throttled restore: the clone's rows are bulk-inserted into the
//     destination engine in BatchRows chunks with BatchPause between
//     them, without any cluster lock (the engine takes its own locks,
//     and no queued update can touch a table the destination does not
//     hold yet).
//  3. Catch-up and cutover: captured deltas replay through the
//     destination's applier queue until a drain is caught with
//     dispatchMu held; that final hold publishes the table (reads and
//     ROWA updates route to the new replica from that instant) and
//     unregisters the capture. Its duration is the cutover pause.
//  4. Verification: paired checksum barrier jobs compare the fresh
//     replica against a live holder under one dispatchMu hold —
//     comparable even under write load. A mismatch rolls the replica
//     back out (unroute + drop) and fails the migration.
//
// Abort semantics: any failure — source or destination going down,
// delta-log overflow beyond MaxAttempts, checksum mismatch — leaves
// the cluster exactly as before the failing table's copy: the capture
// is unregistered, the partial copy is dropped, and the routing still
// names only the old holders. Tables that completed earlier remain as
// consistent extra replicas (they receive every update through ROWA)
// and are harmless: the old allocation's routing is still installed.
// Backends a failed scale-out created are retired again.

// LiveOptions tunes the live migration engine.
type LiveOptions struct {
	// BatchRows bounds the rows restored per batch on the destination
	// (default 1024).
	BatchRows int
	// BatchPause pauses between batches (default 0: copy at full
	// speed) — the throttle that trades migration speed for foreground
	// capacity.
	BatchPause time.Duration
	// MaxAttempts bounds per-table copy restarts after a delta-log
	// overflow (default 3).
	MaxAttempts int

	// onBatch, when set, runs after every restored batch (and once for
	// an empty table). Test hook: tests inject concurrent updates or
	// faults at a deterministic point of the copy.
	onBatch func(dest, table string)
}

func (o LiveOptions) withDefaults() LiveOptions {
	if o.BatchRows <= 0 {
		o.BatchRows = 1024
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// cloneWait carries a consistent cut of a table from a source backend's
// applier (which takes it at an exact global-order position) to the
// migration goroutine, which materialises it a batch at a time, or to a
// recovering backend's restore job, which installs it whole.
type cloneWait struct {
	table string
	cut   *sqlmini.TableCut
}

// MigrationStatus is a point-in-time view of the live migration in
// progress (the {"cmd":"migration"} payload). Active false with
// nonzero totals describes the last finished run.
type MigrationStatus struct {
	Active bool `json:"active"`
	// Phase is copy, catchup, cutover, or drop while Active.
	Phase string `json:"phase,omitempty"`
	// Backend/Table name the copy in flight.
	Backend string `json:"backend,omitempty"`
	Table   string `json:"table,omitempty"`
	// TablesDone/TablesTotal track planned table moves.
	TablesDone  int `json:"tables_done"`
	TablesTotal int `json:"tables_total"`
	// CopiedRows and LoadedRows count restored rows, including batches
	// of attempts that were later retried (approximate progress, unlike
	// the exact MigrationReport totals).
	CopiedRows int64 `json:"copied_rows"`
	LoadedRows int64 `json:"loaded_rows"`
	// DeltaReplayed counts captured updates replayed so far.
	DeltaReplayed int `json:"delta_replayed"`
	// CutoverPauseUS is the longest cutover barrier hold so far.
	CutoverPauseUS int64 `json:"cutover_pause_us"`
	// Err is the failure of the last finished run ("" when it
	// succeeded or none ran).
	Err string `json:"err,omitempty"`
}

// Migration returns the current live-migration progress.
func (c *Cluster) Migration() MigrationStatus {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	return c.mig
}

func (c *Cluster) beginStatus(totalTables int) {
	c.migMu.Lock()
	c.mig = MigrationStatus{Active: true, TablesTotal: totalTables}
	c.migMu.Unlock()
	c.metrics.ObserveMigrationStart()
}

func (c *Cluster) endStatus(err error) {
	c.migMu.Lock()
	c.mig.Active = false
	c.mig.Phase, c.mig.Backend, c.mig.Table = "", "", ""
	if err != nil {
		c.mig.Err = err.Error()
	}
	c.migMu.Unlock()
	if err != nil {
		c.metrics.ObserveMigrationAbort()
	}
}

func (c *Cluster) setStatusPhase(phase, backend, table string) {
	c.migMu.Lock()
	c.mig.Phase, c.mig.Backend, c.mig.Table = phase, backend, table
	c.migMu.Unlock()
}

func (c *Cluster) statusTableDone() {
	c.migMu.Lock()
	c.mig.TablesDone++
	c.migMu.Unlock()
}

func (c *Cluster) statusAddRows(copied, loaded int64) {
	c.migMu.Lock()
	c.mig.CopiedRows += copied
	c.mig.LoadedRows += loaded
	c.migMu.Unlock()
}

func (c *Cluster) statusAddDelta(n int) {
	c.migMu.Lock()
	c.mig.DeltaReplayed += n
	c.migMu.Unlock()
}

// observeCutover records one cutover barrier hold in the status, the
// metrics histogram, and the report's max.
func (c *Cluster) observeCutover(d time.Duration, rep *MigrationReport) {
	c.metrics.ObserveCutoverPause(d)
	if d > rep.CutoverPause {
		rep.CutoverPause = d
	}
	c.migMu.Lock()
	if us := d.Microseconds(); us > c.mig.CutoverPauseUS {
		c.mig.CutoverPauseUS = us
	}
	c.migMu.Unlock()
}

// tableMove is one planned (destination, table) copy.
type tableMove struct {
	dest  *backend
	table string
}

// plannedMoves lists the copies the new allocation needs, in
// deterministic (backend, table) order.
func plannedMoves(backends []*backend, want []map[string]bool) []tableMove {
	var moves []tableMove
	for u, tables := range want {
		for _, t := range sortedTables(tables) {
			if !backends[u].holds(t) {
				moves = append(moves, tableMove{dest: backends[u], table: t})
			}
		}
	}
	return moves
}

// MigrateLive installs a new allocation of the current backend count
// while the cluster keeps serving: reads keep scheduling, ROWA updates
// keep applying, and the only foreground stall is the per-table cutover
// barrier (reported as MigrationReport.CutoverPause). See the file
// comment for the protocol and abort semantics.
func (c *Cluster) MigrateLive(newAlloc *core.Allocation, load Loader, opts LiveOptions) (*MigrationReport, error) {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	if newAlloc.NumBackends() != len(c.all()) {
		return nil, fmt.Errorf("cluster: allocation has %d backends, cluster has %d",
			newAlloc.NumBackends(), len(c.all()))
	}
	return c.reallocateLocked(newAlloc, load, opts.withDefaults())
}

// ResizeLive is MigrateLive for an allocation of any backend count —
// the elastic scaling of Section 5 on the real runtime. Scale-out
// publishes fresh empty backends (nothing routes to them until their
// copies cut over); scale-in copies uniquely-held tables off the
// decommission targets — the physical backends the matching pairs with
// virtual ones — before unpublishing them.
func (c *Cluster) ResizeLive(newAlloc *core.Allocation, load Loader, opts LiveOptions) (*MigrationReport, error) {
	c.liveMu.Lock()
	defer c.liveMu.Unlock()
	return c.reallocateLocked(newAlloc, load, opts.withDefaults())
}

// reallocateLocked runs the copy/catch-up/cutover protocol against the
// installed allocation. Called with liveMu held (the one-reallocation-
// at-a-time lock, under which the routing is published); takes
// dispatchMu only for the short barriers.
//
//qcpa:locks liveMu
func (c *Cluster) reallocateLocked(newAlloc *core.Allocation, load Loader, opts LiveOptions) (rep *MigrationReport, err error) {
	old := c.routes.Load()
	if old == nil {
		return nil, fmt.Errorf("cluster: no installed allocation; use Install first")
	}
	plan, _, err := matching.PlanMigration(old.alloc, newAlloc)
	if err != nil {
		return nil, err
	}
	rep = &MigrationReport{Mapping: plan.Mapping}

	// Scale-out: publish the grown pool. The new backends hold no
	// tables, so no read or update routes to them yet; publishing under
	// dispatchMu orders the swap with the update fan-out.
	before := c.all()
	backends := before
	nNew := newAlloc.NumBackends()
	if nNew > len(before) {
		backends = append(make([]*backend, 0, nNew), before...)
		for i := len(before); i < nNew; i++ {
			backends = append(backends, c.newBackend(newAlloc.Backends()[i].Name))
		}
		c.republish(backends, nil)
	}
	// keep holds the physical backends some logical backend maps to; a
	// published backend outside it is a decommission target (scale-in).
	keep := make(map[*backend]bool, nNew)
	for _, u := range plan.Mapping {
		keep[backends[u]] = true
	}
	want := wantTables(newAlloc, plan.Mapping, len(backends))
	moves := plannedMoves(backends, want)
	c.beginStatus(len(moves))
	defer func() { c.endStatus(err) }()
	for _, mv := range moves {
		if err = c.copyTableLive(mv.dest, mv.table, load, opts, rep); err != nil {
			// The old routing is still installed and names no backend
			// this call created: retire them, so the cluster is exactly
			// as before.
			if added := backends[len(before):]; len(added) > 0 {
				c.republish(before, added)
			}
			return nil, err
		}
	}
	// Routing swap: the new classes route correctly from here on —
	// every destination published its tables at its cutover barrier.
	c.routes.Store(newRouting(newAlloc))
	// Drop now-unneeded tables (unroute under dispatchMu, physical drop
	// serialized through the applier queue).
	if err = c.dropUnwantedLive(backends, want, keep, rep); err != nil {
		return nil, err
	}
	if nNew == len(before) {
		return rep, nil
	}
	// The pool changed size: compact the survivors into mapping order —
	// logical backend v of the new allocation becomes physical backend
	// v — and retire the decommission targets. Names are preserved on
	// survivors: renaming would race concurrent result reporting.
	ordered := make([]*backend, nNew)
	rep.Mapping = make([]int, nNew)
	for v, u := range plan.Mapping {
		ordered[v] = backends[u]
		rep.Mapping[v] = v
	}
	var retired []*backend
	for _, b := range backends {
		if !keep[b] {
			retired = append(retired, b)
		}
	}
	c.republish(ordered, retired)
	return rep, nil
}

// republish swaps the published pool under dispatchMu — afterwards no
// read can be scheduled onto a backend left out of it and no update can
// enqueue there (all enqueues happen under dispatchMu) — and then shuts
// the retired backends' appliers down.
func (c *Cluster) republish(pool, retired []*backend) {
	c.dispatchMu.Lock()
	c.setNodes(pool)
	c.dispatchMu.Unlock()
	for _, b := range retired {
		close(b.updateCh)
		b.wg.Wait()
	}
}

// copyTableLive ships one table onto dest while the cluster keeps
// serving, retrying from a fresh clone when concurrent updates
// overflow the delta log.
func (c *Cluster) copyTableLive(dest *backend, table string, load Loader, opts LiveOptions, rep *MigrationReport) error {
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		err := c.tryCopyTableLive(dest, table, load, opts, rep)
		if err == nil {
			c.statusTableDone()
			return nil
		}
		if !errors.Is(err, errDeltaOverflow) {
			return fmt.Errorf("cluster: live copy of %s onto %s: %w", table, dest.name, err)
		}
	}
	return fmt.Errorf("cluster: live copy of %s onto %s: %w %d times (updates outran catch-up; raise RedoLogCap or throttle less)",
		table, dest.name, errDeltaOverflow, opts.MaxAttempts)
}

// tryCopyTableLive is one attempt of the per-table protocol.
func (c *Cluster) tryCopyTableLive(dest *backend, table string, load Loader, opts LiveOptions, rep *MigrationReport) error {
	c.setStatusPhase("copy", dest.name, table)

	// Phase 1: clone barrier. One dispatchMu hold cuts the source clone
	// at a global-order position and registers the delta capture — no
	// update can fall between the two.
	c.dispatchMu.Lock()
	if !dest.health.State().ReadEligible() {
		c.dispatchMu.Unlock()
		return fmt.Errorf("destination is %s", dest.health.State())
	}
	src := c.liveHolderLocked(table, dest)
	if src == nil {
		if down := c.anyHolderLocked(table, dest); down != nil {
			// The only replicas are Down: copying from the loader would
			// silently lose the updates sitting in their redo logs.
			c.dispatchMu.Unlock()
			return fmt.Errorf("no live holder of table %q (replica %s is %s)", table, down.name, down.health.State())
		}
		c.dispatchMu.Unlock()
		return c.loadTableLive(dest, table, load, opts, rep)
	}
	clone := &updateJob{clone: &cloneWait{table: table}, done: make(chan error, 1)}
	src.enqueue(clone)
	if dest.capture == nil {
		dest.capture = make(map[string]*roundLog)
	}
	dl := &roundLog{}
	dest.capture[table] = dl
	c.dispatchMu.Unlock()

	// Any exit below must unregister the capture and scrap the partial
	// copy, leaving the cluster exactly as before this attempt.
	abort := func() {
		c.dispatchMu.Lock()
		delete(dest.capture, table)
		c.dispatchMu.Unlock()
		c.dropPartial(dest, table)
	}

	// Phase 2: throttled restore, lock-free. The destination's applier
	// cannot touch this table (the destination does not hold it), and
	// the engine serializes against concurrent reads itself.
	if err := <-clone.done; err != nil {
		abort()
		return err
	}
	cw := clone.clone
	// A previous aborted attempt (or a stale pre-migration era) may
	// have left a copy behind; restart from the fresh clone.
	c.dropPartial(dest, table)
	if err := dest.engine.CreateTable(table, cw.cut.Columns()); err != nil {
		abort()
		return err
	}
	total := cw.cut.NumRows()
	if total == 0 && opts.onBatch != nil {
		opts.onBatch(dest.name, table)
	}
	for off := 0; off < total; off += opts.BatchRows {
		end := off + opts.BatchRows
		if end > total {
			end = total
		}
		if err := dest.engine.BulkInsert(table, cw.cut.Rows(off, end)); err != nil {
			abort()
			return err
		}
		c.statusAddRows(int64(end-off), 0)
		if opts.onBatch != nil {
			opts.onBatch(dest.name, table)
		}
		if !dest.health.State().ReadEligible() {
			abort()
			return fmt.Errorf("destination went %s mid-copy", dest.health.State())
		}
		if end < total && opts.BatchPause > 0 {
			time.Sleep(opts.BatchPause)
		}
	}

	// Phase 3: catch-up, then cutover. Captured deltas replay through
	// the destination's applier until a drain is caught with dispatchMu
	// held — that hold is the cutover barrier: it publishes the table and
	// unregisters the capture, so the next update routes to the new
	// replica directly with no gap and no overlap. A lost capture
	// (errDeltaOverflow) restarts the attempt from a fresh clone.
	c.setStatusPhase("catchup", dest.name, table)
	replayed := 0
	pause, err := c.drainOnto(dest, dl,
		func(n int) error {
			replayed += n
			c.statusAddDelta(n)
			if !dest.health.State().ReadEligible() {
				return fmt.Errorf("destination went %s during catch-up", dest.health.State())
			}
			return nil
		},
		func() {
			dest.addTable(table)
			delete(dest.capture, table)
		})
	if err != nil {
		abort()
		return err
	}

	// Phase 4: verify with the rejoin barrier jobs. The replica already
	// serves; a mismatch rolls it back out before surfacing the error.
	// With no live peer left the check is vacuous.
	c.setStatusPhase("cutover", dest.name, table)
	if _, _, err := c.verifyAgainstPeers(dest, []string{table}); err != nil {
		c.dispatchMu.Lock()
		dest.removeTable(table)
		c.dispatchMu.Unlock()
		c.dropPartial(dest, table)
		return err
	}
	c.observeCutover(pause, rep)
	rep.noteCopied(int64(total))
	rep.DeltaReplayed += replayed
	c.metrics.ObserveMigrationTable(int64(total), false)
	c.metrics.ObserveMigrationDelta(replayed)
	return nil
}

// loadTableLive fetches a table nobody holds through the loader. No
// live state can be lost and no delta capture is needed: updates route
// only to holders, and there are none until the cutover publishes this
// one.
func (c *Cluster) loadTableLive(dest *backend, table string, load Loader, opts LiveOptions, rep *MigrationReport) error {
	if load == nil {
		return fmt.Errorf("table %q unavailable and no loader given", table)
	}
	c.dropPartial(dest, table)
	if err := load(dest.engine, []string{table}); err != nil {
		return err
	}
	var rows int64
	if t := dest.engine.Table(table); t != nil {
		rows = int64(t.NumRows())
	}
	if opts.onBatch != nil {
		opts.onBatch(dest.name, table)
	}
	c.dispatchMu.Lock()
	holdStart := time.Now()
	dest.addTable(table)
	c.dispatchMu.Unlock()
	c.observeCutover(time.Since(holdStart), rep)
	rep.noteLoaded(rows)
	c.statusAddRows(0, rows)
	c.metrics.ObserveMigrationTable(rows, true)
	return nil
}

// dropPartial scraps a partial (or rolled-back) copy on the
// destination engine. Safe outside any cluster lock: the destination
// does not hold the table, so neither reads nor queued updates can
// reference it.
func (c *Cluster) dropPartial(dest *backend, table string) {
	if dest.engine.Table(table) != nil {
		dest.engine.Exec("DROP TABLE " + table) //nolint:errcheck — best-effort scrap
	}
}

// anyHolderLocked returns any backend other than exclude whose routing
// set names the table, live or not.
//
//qcpa:locks dispatchMu
func (c *Cluster) anyHolderLocked(table string, exclude *backend) *backend {
	for _, o := range c.all() {
		if o != exclude && o.holds(table) {
			return o
		}
	}
	return nil
}

// dropUnwantedLive removes tables the new allocation no longer places
// on a backend: the table is unrouted under dispatchMu (reads stop
// scheduling onto it, updates stop fanning out to it) and the physical
// DROP rides the applier queue, landing after every update the backend
// received while it still held the table. Backends outside keep are
// about to be retired wholesale (scale-in): no point dropping table by
// table.
func (c *Cluster) dropUnwantedLive(backends []*backend, want []map[string]bool, keep map[*backend]bool, rep *MigrationReport) error {
	for u, b := range backends {
		if !keep[b] {
			continue
		}
		var drop []string
		for _, t := range sortedTables(b.tableSet()) {
			if !want[u][t] {
				drop = append(drop, t)
			}
		}
		if len(drop) == 0 {
			continue
		}
		c.setStatusPhase("drop", b.name, drop[0])
		c.dispatchMu.Lock()
		for _, t := range drop {
			b.removeTable(t)
		}
		job := &updateJob{drop: drop, done: make(chan error, 1)}
		b.enqueue(job)
		c.dispatchMu.Unlock()
		if err := <-job.done; err != nil {
			return err
		}
		rep.DroppedTables += len(drop)
	}
	return nil
}
