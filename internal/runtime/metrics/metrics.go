// Package metrics is the runtime layer's observability sub-layer:
// per-backend request counters, pending-request gauges, and latency
// histograms, plus controller-level series (ROWA fan-out width). The
// cluster controller feeds it on every request and exports snapshots
// through the server's {"cmd":"metrics"} wire command.
//
// All write paths are lock-free (atomic counters and stats.ExpHistogram
// buckets), so recording on the hot request path costs a handful of
// atomic adds. Snapshots are read concurrently with updates and are
// only approximately consistent across counters — fine for monitoring.
package metrics

import (
	"sync/atomic"
	"time"

	"qcpa/internal/stats"
)

// Backend aggregates the runtime counters of one backend. The pending
// gauge doubles as the scheduling input of the least-pending policy:
// the controller reads it through runtime.Policy's pending function.
type Backend struct {
	reads     atomic.Int64
	writes    atomic.Int64
	errors    atomic.Int64
	pending   atomic.Int64
	failovers atomic.Int64
	readLat   stats.ExpHistogram // microseconds
	writeLat  stats.ExpHistogram // microseconds
}

// NewBackend returns a zeroed per-backend metrics block.
func NewBackend() *Backend { return &Backend{} }

// IncPending notes a request queued or in flight on this backend.
func (b *Backend) IncPending() { b.pending.Add(1) }

// DecPending notes a request leaving the backend.
func (b *Backend) DecPending() { b.pending.Add(-1) }

// Pending returns the current pending-request gauge.
func (b *Backend) Pending() int64 { return b.pending.Load() }

// ObserveRead records one completed read and its service latency.
func (b *Backend) ObserveRead(d time.Duration, failed bool) {
	b.reads.Add(1)
	if failed {
		b.errors.Add(1)
	}
	b.readLat.Observe(d.Microseconds())
}

// ObserveWrite records one applied update (one replica) and its apply
// latency.
func (b *Backend) ObserveWrite(d time.Duration, failed bool) {
	b.writes.Add(1)
	if failed {
		b.errors.Add(1)
	}
	b.writeLat.Observe(d.Microseconds())
}

// ObserveFailover records a read that failed (or found this backend
// Down) and was routed away to another replica.
func (b *Backend) ObserveFailover() { b.failovers.Add(1) }

// Snapshot captures the backend's counters under the given display
// name (backend names can change across elastic resizes, so the caller
// supplies the current one). The health State is likewise owned by the
// caller — the cluster fills it in after taking the snapshot.
func (b *Backend) Snapshot(name string) BackendSnapshot {
	return BackendSnapshot{
		Name:         name,
		Reads:        b.reads.Load(),
		Writes:       b.writes.Load(),
		Errors:       b.errors.Load(),
		Pending:      b.pending.Load(),
		Failovers:    b.failovers.Load(),
		ReadLatency:  latencySnapshot(&b.readLat),
		WriteLatency: latencySnapshot(&b.writeLat),
	}
}

// Admission holds the server edge's overload-protection series: live
// and rejected connections, admitted/shed/drained request counts, the
// admission queue-depth gauge, and the queue-wait histogram. Like the
// backend counters, every write path is a handful of atomics so the
// wire hot path stays cheap.
type Admission struct {
	conns         atomic.Int64       // live connections (gauge)
	connsTotal    atomic.Int64       // connections ever accepted
	connsRejected atomic.Int64       // connections refused at the MaxConns cap
	admitted      atomic.Int64       // requests that won an execution slot
	shed          atomic.Int64       // requests rejected with the typed overload error
	drained       atomic.Int64       // requests rejected with the typed draining error
	tooLarge      atomic.Int64       // oversized request frames answered and resynced
	expired       atomic.Int64       // requests whose deadline passed while queued
	queued        atomic.Int64       // admission queue depth (gauge)
	queueWait     stats.ExpHistogram // microseconds from enqueue to slot grant

	// Wire-protocol series (the frame protocol and the prepared-
	// statement handles of DESIGN.md §12): frames/flushes expose the
	// writer's batch ratio; handles is the open prepared-statement gauge.
	framesIn      atomic.Int64 // request frames decoded
	framesOut     atomic.Int64 // response frames written
	flushes       atomic.Int64 // writer flushes (framesOut/flushes = batch ratio)
	badFrames     atomic.Int64 // undecodable or unknown-type frames answered bad_request
	prepares      atomic.Int64 // prepare commands served
	preparedExecs atomic.Int64 // exec commands served through a handle
	handles       atomic.Int64 // open prepared-statement handles (gauge)
}

// NewAdmission returns a zeroed admission metrics block.
func NewAdmission() *Admission { return &Admission{} }

// ConnOpened notes an accepted connection.
func (a *Admission) ConnOpened() { a.conns.Add(1); a.connsTotal.Add(1) }

// ConnClosed notes a connection leaving.
func (a *Admission) ConnClosed() { a.conns.Add(-1) }

// ConnRejected notes a connection refused at the connection cap.
func (a *Admission) ConnRejected() { a.connsRejected.Add(1) }

// QueueEnter notes a request joining the admission wait queue and
// returns the new depth (the shed decision input).
func (a *Admission) QueueEnter() int64 { return a.queued.Add(1) }

// QueueLeave notes a request leaving the wait queue (admitted,
// rejected, or expired).
func (a *Admission) QueueLeave() { a.queued.Add(-1) }

// Queued returns the current admission queue depth.
func (a *Admission) Queued() int64 { return a.queued.Load() }

// ObserveAdmitted records a request winning an execution slot after
// waiting d in the queue (zero for the uncontended fast path).
func (a *Admission) ObserveAdmitted(d time.Duration) {
	a.admitted.Add(1)
	a.queueWait.Observe(d.Microseconds())
}

// ObserveShed records a request rejected with the typed overload error.
func (a *Admission) ObserveShed() { a.shed.Add(1) }

// ObserveDrained records a request rejected because the server is
// draining.
func (a *Admission) ObserveDrained() { a.drained.Add(1) }

// ObserveTooLarge records an oversized request frame that was answered
// with the typed too-large error and resynced past.
func (a *Admission) ObserveTooLarge() { a.tooLarge.Add(1) }

// ObserveDeadlineExpired records a request whose deadline passed before
// it won an execution slot.
func (a *Admission) ObserveDeadlineExpired() { a.expired.Add(1) }

// Shed returns the shed counter (tests and the overload bench read it).
func (a *Admission) Shed() int64 { return a.shed.Load() }

// ObserveFrameIn records one decoded request frame.
func (a *Admission) ObserveFrameIn() { a.framesIn.Add(1) }

// ObserveFrameOut records one written response frame.
func (a *Admission) ObserveFrameOut() { a.framesOut.Add(1) }

// ObserveFlush records one writer flush (possibly covering many
// coalesced frames).
func (a *Admission) ObserveFlush() { a.flushes.Add(1) }

// ObserveBadFrame records a frame that failed to decode (or carried an
// unknown type byte) and was answered with a typed bad_request.
func (a *Admission) ObserveBadFrame() { a.badFrames.Add(1) }

// ObservePrepare records a served prepare command and the new handle.
func (a *Admission) ObservePrepare() { a.prepares.Add(1); a.handles.Add(1) }

// ObserveStmtClosed records a prepared handle being released (an
// explicit close or its connection going away).
func (a *Admission) ObserveStmtClosed(n int64) { a.handles.Add(-n) }

// ObservePreparedExec records an exec command served through a handle.
func (a *Admission) ObservePreparedExec() { a.preparedExecs.Add(1) }

// Snapshot captures the admission series.
func (a *Admission) Snapshot() AdmissionSnapshot {
	return AdmissionSnapshot{
		Conns:           a.conns.Load(),
		ConnsTotal:      a.connsTotal.Load(),
		ConnsRejected:   a.connsRejected.Load(),
		Admitted:        a.admitted.Load(),
		Shed:            a.shed.Load(),
		Drained:         a.drained.Load(),
		TooLarge:        a.tooLarge.Load(),
		DeadlineExpired: a.expired.Load(),
		Queued:          a.queued.Load(),
		QueueWait:       latencySnapshot(&a.queueWait),
		Wire: WireSnapshot{
			FramesIn:      a.framesIn.Load(),
			FramesOut:     a.framesOut.Load(),
			Flushes:       a.flushes.Load(),
			BadFrames:     a.badFrames.Load(),
			Prepares:      a.prepares.Load(),
			PreparedExecs: a.preparedExecs.Load(),
			Handles:       a.handles.Load(),
		},
	}
}

// Registry holds the controller-level metrics that are not tied to one
// backend: the ROWA fan-out width histogram and the fault-tolerance
// series (read retries, unavailable requests, redo-log appends, and
// recovery catch-up times).
type Registry struct {
	fanout      stats.ExpHistogram
	retries     atomic.Int64
	unavailable atomic.Int64
	redoAppends atomic.Int64
	catchup     stats.ExpHistogram // milliseconds

	// Group-commit series: per-round batch sizes and per-update commit
	// wait (submit to round dispatch).
	groupBatch stats.ExpHistogram // updates per round
	groupWait  stats.ExpHistogram // microseconds

	// Live-migration series.
	migRuns       atomic.Int64
	migAborts     atomic.Int64
	migTables     atomic.Int64
	migCopiedRows atomic.Int64
	migLoadedRows atomic.Int64
	migDelta      atomic.Int64
	cutover       stats.ExpHistogram // microseconds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// ObserveFanout records the replica count one ROWA update fanned out to.
func (r *Registry) ObserveFanout(width int) { r.fanout.Observe(int64(width)) }

// ObserveRetry records one read retry (an attempt after the first).
func (r *Registry) ObserveRetry() { r.retries.Add(1) }

// ObserveUnavailable records a request that found no live replica.
func (r *Registry) ObserveUnavailable() { r.unavailable.Add(1) }

// ObserveRedoAppend records one update diverted to a Down backend's
// redo log.
func (r *Registry) ObserveRedoAppend() { r.redoAppends.Add(1) }

// ObserveCatchUp records one completed recovery and its catch-up time.
func (r *Registry) ObserveCatchUp(d time.Duration) { r.catchup.Observe(d.Milliseconds()) }

// ObserveGroupRound records one committed group round and the number of
// updates it admitted.
func (r *Registry) ObserveGroupRound(size int) { r.groupBatch.Observe(int64(size)) }

// ObserveGroupWait records one update's wait from submission to its
// round's dispatch — the latency cost of batching.
func (r *Registry) ObserveGroupWait(d time.Duration) { r.groupWait.Observe(d.Microseconds()) }

// GroupCommit captures the group-commit series.
func (r *Registry) GroupCommit() GroupCommitSnapshot {
	return GroupCommitSnapshot{
		Rounds:     r.groupBatch.Count(),
		Updates:    r.groupWait.Count(),
		MeanBatch:  r.groupBatch.Mean(),
		MaxBatch:   r.groupBatch.Max(),
		MeanWaitUS: r.groupWait.Mean(),
		MaxWaitUS:  r.groupWait.Max(),
	}
}

// ObserveMigrationStart records a live migration beginning.
func (r *Registry) ObserveMigrationStart() { r.migRuns.Add(1) }

// ObserveMigrationAbort records a live migration that failed (cleanly —
// the cluster kept its old routing).
func (r *Registry) ObserveMigrationAbort() { r.migAborts.Add(1) }

// ObserveMigrationTable records one table cut over by a live migration
// and the rows it moved; loaded marks a loader fetch rather than a
// replica-to-replica copy.
func (r *Registry) ObserveMigrationTable(rows int64, loaded bool) {
	r.migTables.Add(1)
	if loaded {
		r.migLoadedRows.Add(rows)
	} else {
		r.migCopiedRows.Add(rows)
	}
}

// ObserveMigrationDelta records captured concurrent updates replayed
// into an in-flight table.
func (r *Registry) ObserveMigrationDelta(n int) { r.migDelta.Add(int64(n)) }

// ObserveCutoverPause records one cutover barrier hold — the only
// moment a live migration blocks foreground updates.
func (r *Registry) ObserveCutoverPause(d time.Duration) { r.cutover.Observe(d.Microseconds()) }

// Migration captures the live-migration series.
func (r *Registry) Migration() MigrationSnapshot {
	return MigrationSnapshot{
		Runs:          r.migRuns.Load(),
		Aborts:        r.migAborts.Load(),
		Tables:        r.migTables.Load(),
		CopiedRows:    r.migCopiedRows.Load(),
		LoadedRows:    r.migLoadedRows.Load(),
		DeltaReplayed: r.migDelta.Load(),
		Cutovers:      r.cutover.Count(),
		MeanCutoverUS: r.cutover.Mean(),
		MaxCutoverUS:  r.cutover.Max(),
	}
}

// Fanout captures the fan-out series.
func (r *Registry) Fanout() FanoutSnapshot {
	return FanoutSnapshot{
		Writes:    r.fanout.Count(),
		MeanWidth: r.fanout.Mean(),
		MaxWidth:  r.fanout.Max(),
	}
}

// Reliability captures the fault-tolerance series.
func (r *Registry) Reliability() ReliabilitySnapshot {
	return ReliabilitySnapshot{
		Retries:       r.retries.Load(),
		Unavailable:   r.unavailable.Load(),
		RedoAppends:   r.redoAppends.Load(),
		Catchups:      r.catchup.Count(),
		MeanCatchupMS: r.catchup.Mean(),
		MaxCatchupMS:  r.catchup.Max(),
	}
}

// LatencySnapshot is the wire form of a latency histogram, in
// microseconds. Percentiles are upper-bound estimates from
// power-of-two buckets (exact within 2x).
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P95US  int64   `json:"p95_us"`
	P99US  int64   `json:"p99_us"`
	MaxUS  int64   `json:"max_us"`
}

func latencySnapshot(h *stats.ExpHistogram) LatencySnapshot {
	return LatencySnapshot{
		Count:  h.Count(),
		MeanUS: h.Mean(),
		P50US:  h.Quantile(0.50),
		P95US:  h.Quantile(0.95),
		P99US:  h.Quantile(0.99),
		MaxUS:  h.Max(),
	}
}

// BackendSnapshot is the wire form of one backend's counters.
type BackendSnapshot struct {
	Name      string `json:"name"`
	State     string `json:"state,omitempty"`
	Reads     int64  `json:"reads"`
	Writes    int64  `json:"writes"`
	Errors    int64  `json:"errors"`
	Pending   int64  `json:"pending"`
	Failovers int64  `json:"failovers,omitempty"`
	// Epoch is the backend engine's published read epoch — one per
	// committed round (or standalone write). Replicas that applied the
	// same rounds report comparable advancement.
	Epoch        int64           `json:"epoch"`
	ReadLatency  LatencySnapshot `json:"read_latency"`
	WriteLatency LatencySnapshot `json:"write_latency"`
	// Planner reports the backend engine's query-planner counters.
	Planner PlannerSnapshot `json:"planner"`
}

// PlannerSnapshot is the wire form of a sqlmini engine's query-planner
// counters: plan-cache traffic, invalidation/eviction churn, resident
// plans, and join-ordering outcomes (how many multi-table plans were
// built and how many ended up reordered away from the SQL text's join
// order). On the top-level Snapshot it is the sum over all backends.
type PlannerSnapshot struct {
	PlanHits          int64 `json:"plan_hits"`
	PlanMisses        int64 `json:"plan_misses"`
	PlanInvalidations int64 `json:"plan_invalidations"`
	PlanEvictions     int64 `json:"plan_evictions"`
	PlanEntries       int64 `json:"plan_entries"`
	JoinPlans         int64 `json:"join_plans"`
	JoinReordered     int64 `json:"join_reordered"`
	// PreparedReroutes always reads 0: prepared executions route like
	// any other request and keep no route to re-resolve. The field stays
	// only because the benchmark harness still reads it; the harness's
	// next change drops both.
	PreparedReroutes int64 `json:"prepared_reroutes,omitempty"`
}

// Add accumulates another backend's planner counters (the cluster-wide
// rollup).
func (p *PlannerSnapshot) Add(o PlannerSnapshot) {
	p.PlanHits += o.PlanHits
	p.PlanMisses += o.PlanMisses
	p.PlanInvalidations += o.PlanInvalidations
	p.PlanEvictions += o.PlanEvictions
	p.PlanEntries += o.PlanEntries
	p.JoinPlans += o.JoinPlans
	p.JoinReordered += o.JoinReordered
}

// FanoutSnapshot summarizes ROWA fan-out widths.
type FanoutSnapshot struct {
	Writes    int64   `json:"writes"`
	MeanWidth float64 `json:"mean_width"`
	MaxWidth  int64   `json:"max_width"`
}

// ReliabilitySnapshot summarizes the fault-tolerance series: read
// retries, requests that found no live replica, updates diverted to
// redo logs, and recovery catch-up times.
type ReliabilitySnapshot struct {
	Retries       int64   `json:"retries"`
	Unavailable   int64   `json:"unavailable"`
	RedoAppends   int64   `json:"redo_appends"`
	Catchups      int64   `json:"catchups"`
	MeanCatchupMS float64 `json:"mean_catchup_ms"`
	MaxCatchupMS  int64   `json:"max_catchup_ms"`
}

// MigrationSnapshot summarizes the live-migration series: runs and
// clean aborts, tables and rows moved, delta entries replayed into
// in-flight tables, and the cutover pause histogram.
type MigrationSnapshot struct {
	Runs          int64   `json:"runs"`
	Aborts        int64   `json:"aborts"`
	Tables        int64   `json:"tables"`
	CopiedRows    int64   `json:"copied_rows"`
	LoadedRows    int64   `json:"loaded_rows"`
	DeltaReplayed int64   `json:"delta_replayed"`
	Cutovers      int64   `json:"cutovers"`
	MeanCutoverUS float64 `json:"mean_cutover_us"`
	MaxCutoverUS  int64   `json:"max_cutover_us"`
}

// GroupCommitSnapshot summarizes the group-commit series: committed
// rounds, updates that rode them, batch sizes, and per-update commit
// wait.
type GroupCommitSnapshot struct {
	Rounds     int64   `json:"rounds"`
	Updates    int64   `json:"updates"`
	MeanBatch  float64 `json:"mean_batch"`
	MaxBatch   int64   `json:"max_batch"`
	MeanWaitUS float64 `json:"mean_wait_us"`
	MaxWaitUS  int64   `json:"max_wait_us"`
}

// AdmissionSnapshot summarizes the server edge's overload-protection
// series: connection counts, admitted/shed/drained requests, oversized
// frames, queued-past-deadline expiries, the queue-depth gauge, and the
// queue-wait histogram.
type AdmissionSnapshot struct {
	Conns           int64           `json:"conns"`
	ConnsTotal      int64           `json:"conns_total"`
	ConnsRejected   int64           `json:"conns_rejected"`
	Admitted        int64           `json:"admitted"`
	Shed            int64           `json:"shed"`
	Drained         int64           `json:"drained"`
	TooLarge        int64           `json:"too_large"`
	DeadlineExpired int64           `json:"deadline_expired"`
	Queued          int64           `json:"queued"`
	QueueWait       LatencySnapshot `json:"queue_wait"`
	Wire            WireSnapshot    `json:"wire"`
}

// WireSnapshot summarizes the wire-protocol series: frame and flush
// counts (their ratio is the response batch factor), rejected frames,
// and the prepared-statement handle traffic.
type WireSnapshot struct {
	FramesIn      int64 `json:"frames_in"`
	FramesOut     int64 `json:"frames_out"`
	Flushes       int64 `json:"flushes"`
	BadFrames     int64 `json:"bad_frames"`
	Prepares      int64 `json:"prepares"`
	PreparedExecs int64 `json:"prepared_execs"`
	Handles       int64 `json:"handles"`
}

// Snapshot is the full metrics export: one entry per backend plus the
// controller-level fan-out, reliability, group-commit, and migration
// series. Admission is filled in by the serving tier (the cluster has
// no edge of its own) and omitted when the snapshot comes straight
// from a cluster.
type Snapshot struct {
	Policy      string              `json:"policy,omitempty"`
	Backends    []BackendSnapshot   `json:"backends"`
	Fanout      FanoutSnapshot      `json:"rowa_fanout"`
	Reliability ReliabilitySnapshot `json:"reliability"`
	GroupCommit GroupCommitSnapshot `json:"group_commit"`
	Migration   MigrationSnapshot   `json:"migration"`
	Admission   *AdmissionSnapshot  `json:"admission,omitempty"`
	// Planner sums the per-backend planner counters.
	Planner PlannerSnapshot `json:"planner"`
}
