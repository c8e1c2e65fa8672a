package cluster

import (
	"fmt"
	"sort"
	"time"

	"qcpa/internal/runtime"
)

// This file is the cluster's fault-tolerance layer: the administrative
// Fail/Recover transitions of the per-backend health state machine
// (runtime.Health), the redo-log replay and table-resync catch-up
// paths, cross-replica checksum verification, and the k-safety-aware
// availability report.
//
// Correctness of catch-up hinges on one invariant: every enqueue that
// changes replica state — plain ROWA updates, redo appends, and the
// control jobs below (checksum barriers, clones, restores) —
// happens under Cluster.dispatchMu, and every backend drains its queue
// with a single FIFO applier. Control jobs enqueued on several backends
// under ONE dispatchMu hold therefore observe the same global-update
// prefix on all of them: checksums cut this way are comparable even
// while writes keep flowing.

// findBackend resolves a backend by name.
func (c *Cluster) findBackend(name string) (*backend, error) {
	for _, b := range c.all() {
		if b.name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown backend %q", name)
}

// Fail administratively takes a backend out of service: reads stop
// routing to it and its ROWA updates divert to the redo log. The
// engine itself stays alive — updates already in its queue finish
// applying — modeling a controller-to-backend partition rather than a
// process crash (crash the engine too with sqlmini.Fault.Crash).
// Failing a Down backend is a no-op; failing one mid-recovery is
// rejected.
func (c *Cluster) Fail(name string) error {
	b, err := c.findBackend(name)
	if err != nil {
		return err
	}
	c.dispatchMu.Lock()
	defer c.dispatchMu.Unlock()
	switch b.health.State() {
	case runtime.Down:
		return nil
	case runtime.CatchingUp:
		return fmt.Errorf("cluster: backend %s is catching up; wait for recovery to finish", name)
	}
	b.health.Set(runtime.Down)
	b.direct.Store(false)
	b.downSince = time.Now()
	return nil
}

// noteAutoDown stamps the down time of a backend the read path demoted
// (NoteFailure crossed the threshold); the state itself already
// changed atomically inside runtime.Health.
func (c *Cluster) noteAutoDown(b *backend) {
	c.dispatchMu.Lock()
	if b.downSince.IsZero() {
		b.downSince = time.Now()
	}
	c.dispatchMu.Unlock()
}

// quarantine takes a diverged backend Down with its redo log marked
// lost: it missed (or half-applied) an update the other replicas
// agreed on, so replay cannot repair it — the next Recover re-copies
// its tables from a live replica instead.
func (c *Cluster) quarantine(b *backend) {
	b.health.Set(runtime.Down)
	b.direct.Store(false)
	c.dispatchMu.Lock()
	b.missed.markLost()
	if b.downSince.IsZero() {
		b.downSince = time.Now()
	}
	c.dispatchMu.Unlock()
}

// CatchUpReport describes one completed recovery.
type CatchUpReport struct {
	// Backend is the recovered backend's name.
	Backend string `json:"backend"`
	// Replayed counts redo-log updates re-applied.
	Replayed int `json:"replayed"`
	// Resynced lists tables re-copied wholesale from a live replica
	// (redo log lost or overflowed).
	Resynced []string `json:"resynced,omitempty"`
	// Verified lists tables whose checksums matched a live replica.
	Verified []string `json:"verified,omitempty"`
	// Skipped lists tables with no live replica to verify against.
	Skipped []string `json:"skipped,omitempty"`
	// Duration is the wall-clock catch-up time.
	Duration time.Duration `json:"duration_ns"`
}

// Recover brings a Down backend back: it replays the redo log (or
// re-copies its tables from a live replica when the log was lost),
// verifies cross-replica table checksums, and only then rejoins the
// backend to the read-eligible set. Synchronous — returns when the
// backend is Up again or the recovery failed (the backend is then Down
// again with its log marked lost, so the next Recover re-copies).
//
// The engine must be answering again before Recover is called: a
// backend crashed via sqlmini.Fault needs Revive first, or replay and
// verification fail against the still-dead engine.
func (c *Cluster) Recover(name string) (*CatchUpReport, error) {
	b, err := c.findBackend(name)
	if err != nil {
		return nil, err
	}
	if !b.health.CompareAndSwap(runtime.Down, runtime.CatchingUp) {
		return nil, fmt.Errorf("cluster: backend %s is %s, not down", name, b.health.State())
	}
	start := time.Now()
	rep := &CatchUpReport{Backend: name}
	// Replay the redo log; the hold that catches it drained flips the
	// backend to direct mode, so new updates enqueue directly while
	// verification finishes. A lost log means replay cannot repair the
	// replica: re-copy its tables instead.
	if _, err := c.drainOnto(b, &b.missed,
		func(n int) error { rep.Replayed += n; return nil },
		func() { b.direct.Store(true) },
	); err != nil {
		if err := c.resync(b, rep); err != nil {
			c.quarantine(b)
			return nil, fmt.Errorf("cluster: resync of backend %s: %w", name, err)
		}
	}
	verified, skipped, err := c.verifyAgainstPeers(b, sortedTables(b.tableSet()))
	if err != nil {
		c.quarantine(b)
		return nil, fmt.Errorf("cluster: backend %s failed verification: %w", name, err)
	}
	rep.Verified = verified
	rep.Skipped = append(rep.Skipped, skipped...)
	b.health.ResetFailures()
	c.dispatchMu.Lock()
	b.health.Set(runtime.Up)
	b.direct.Store(false)
	b.downSince = time.Time{}
	c.dispatchMu.Unlock()
	rep.Duration = time.Since(start)
	c.metrics.ObserveCatchUp(rep.Duration)
	return rep, nil
}

// resync re-copies the backend's tables from live replicas with the
// live copy's transport: a clone job per table on its source and a
// restore job on the recovering backend, all enqueued under one
// dispatch-lock hold, so the restored state plus the updates queued
// behind it equals the sources' state. Tables with no live holder are
// skipped (reported, not fatal — they are unavailable for everyone
// anyway).
func (c *Cluster) resync(b *backend, rep *CatchUpReport) error {
	c.dispatchMu.Lock()
	bySource, skipped := c.livePeersLocked(b, sortedTables(b.tableSet()))
	var clones []*updateJob
	for src, tables := range bySource {
		for _, t := range tables {
			j := &updateJob{clone: &cloneWait{table: t}, done: make(chan error, 1)}
			clones = append(clones, j)
			src.enqueue(j)
		}
	}
	restore := &updateJob{restore: clones, done: make(chan error, 1)}
	b.enqueue(restore)
	// From this enqueue on the backend is caught up "as of" this point
	// in the global order: later updates queue behind the restore.
	b.missed.reset()
	b.direct.Store(true)
	c.dispatchMu.Unlock()
	if err := <-restore.done; err != nil {
		return err
	}
	rep.Resynced = append(rep.Resynced, cloneTables(clones)...)
	sort.Strings(rep.Resynced)
	rep.Skipped = append(rep.Skipped, skipped...)
	return nil
}

// verifyAgainstPeers compares b's copy of each listed table (sorted)
// with a live holder's. The checksum barrier jobs — one on b, one per
// peer — are enqueued under a single dispatchMu hold, so each pair
// observes the same global-update prefix and must agree bit-for-bit
// when the replica converged, even while writes keep flowing. Tables
// with no live peer are returned as skipped: the check is vacuous for
// them (b carries the best surviving state).
func (c *Cluster) verifyAgainstPeers(b *backend, tables []string) (verified, skipped []string, err error) {
	c.dispatchMu.Lock()
	byPeer, skipped := c.livePeersLocked(b, tables)
	for _, ts := range byPeer {
		verified = append(verified, ts...)
	}
	sort.Strings(verified)
	if len(verified) == 0 {
		c.dispatchMu.Unlock()
		return nil, skipped, nil
	}
	own := &updateJob{checksum: verified, done: make(chan error, 1)}
	b.enqueue(own)
	peerJobs := make([]*updateJob, 0, len(byPeer))
	for peer, ts := range byPeer {
		j := &updateJob{checksum: ts, done: make(chan error, 1)}
		peerJobs = append(peerJobs, j)
		peer.enqueue(j)
	}
	c.dispatchMu.Unlock()
	err = <-own.done
	want := make(map[string]uint64, len(verified))
	for _, j := range peerJobs {
		if jerr := <-j.done; jerr != nil && err == nil {
			err = jerr
		}
		for t, sum := range j.sums {
			want[t] = sum
		}
	}
	if err != nil {
		return nil, skipped, err
	}
	for _, t := range verified {
		if own.sums[t] != want[t] {
			return nil, skipped, fmt.Errorf("table %s checksum mismatch (%x, live replica has %x)", t, own.sums[t], want[t])
		}
	}
	return verified, skipped, nil
}

// livePeersLocked groups the listed tables (sorted) by the live replica
// other than b that a copy or a comparison of b's tables should use;
// tables without one are returned as skipped.
//
//qcpa:locks dispatchMu
func (c *Cluster) livePeersLocked(b *backend, tables []string) (byPeer map[*backend][]string, skipped []string) {
	byPeer = make(map[*backend][]string)
	for _, t := range tables {
		if peer := c.liveHolderLocked(t, b); peer != nil {
			byPeer[peer] = append(byPeer[peer], t)
		} else {
			skipped = append(skipped, t)
		}
	}
	return byPeer, skipped
}

// liveHolderLocked returns a live replica of the table other than
// exclude, preferring Up over Degraded, or nil when none exists.
// Called with dispatchMu held so health states cannot flip under the
// grouping decisions of resync/verifyAgainstPeers (Fail and Recover's
// final transition also hold dispatchMu).
//
//qcpa:locks dispatchMu
func (c *Cluster) liveHolderLocked(table string, exclude *backend) *backend {
	var degraded *backend
	for _, o := range c.all() {
		if o == exclude || !o.holds(table) {
			continue
		}
		switch o.health.State() {
		case runtime.Up:
			return o
		case runtime.Degraded:
			if degraded == nil {
				degraded = o
			}
		}
	}
	return degraded
}

// BackendHealth is one backend's row in the health report.
type BackendHealth struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// RedoLen is the number of missed updates waiting in the redo log.
	RedoLen int `json:"redo_len"`
	// RedoLost marks an overflowed (or divergence-invalidated) log:
	// recovery will re-copy tables instead of replaying.
	RedoLost bool `json:"redo_lost,omitempty"`
	// DownForMS is how long the backend has been Down, 0 otherwise.
	DownForMS int64 `json:"down_for_ms,omitempty"`
}

// ClassHealth reports one query class's replica availability.
type ClassHealth struct {
	Class string `json:"class"`
	// Replicas is the number of backends holding all the class's
	// tables; Live counts those currently read-eligible.
	Replicas int `json:"replicas"`
	Live     int `json:"live"`
	// Unavailable marks a class with zero live replicas: its reads
	// fail with ErrUnavailable right now.
	Unavailable bool `json:"unavailable,omitempty"`
}

// HealthReport is the {"cmd":"health"} payload: per-backend states and
// redo-log depths, per-class availability, and the k-safety AtRisk map —
// for each backend that is some class's LAST live replica, the classes
// that become unavailable if it dies.
type HealthReport struct {
	Backends []BackendHealth     `json:"backends"`
	Classes  []ClassHealth       `json:"classes,omitempty"`
	AtRisk   map[string][]string `json:"at_risk,omitempty"`
}

// Health builds the availability report.
func (c *Cluster) Health() *HealthReport {
	rep := &HealthReport{}
	now := time.Now()
	c.dispatchMu.Lock()
	for _, b := range c.all() {
		bh := BackendHealth{
			Name:     b.name,
			State:    b.health.State().String(),
			RedoLen:  b.missed.n,
			RedoLost: b.missed.lost,
		}
		if !b.downSince.IsZero() {
			bh.DownForMS = now.Sub(b.downSince).Milliseconds()
		}
		rep.Backends = append(rep.Backends, bh)
	}
	c.dispatchMu.Unlock()
	var classes []string
	routes := c.routes.Load()
	if routes != nil {
		for cl := range routes.classes {
			classes = append(classes, cl)
		}
	}
	sort.Strings(classes)
	for _, cl := range classes {
		elig := c.eligible(nil, routes.classes[cl])
		live := 0
		var last *backend
		for _, b := range elig {
			if b.health.State().ReadEligible() {
				live++
				last = b
			}
		}
		rep.Classes = append(rep.Classes, ClassHealth{
			Class:       cl,
			Replicas:    len(elig),
			Live:        live,
			Unavailable: live == 0,
		})
		if live == 1 {
			if rep.AtRisk == nil {
				rep.AtRisk = make(map[string][]string)
			}
			// classes iterates sorted, so each AtRisk list is sorted.
			rep.AtRisk[last.name] = append(rep.AtRisk[last.name], cl)
		}
	}
	return rep
}
