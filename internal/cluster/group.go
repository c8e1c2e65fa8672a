package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
)

// This file is the group-commit half of the write path (DESIGN.md §11).
// Concurrent updates no longer take one dispatchMu hold each: they
// enqueue onto a shared pending list, and a single dispatcher goroutine
// admits a bounded batch per round. One dispatchMu hold per ROUND fixes
// the deterministic total order (statements sort by SQL text, ties by
// arrival sequence), routes every update, appends redo/delta capture at
// round granularity, and fans one round job per target backend out
// through the bounded worker pool. Each backend's applier applies the
// round's statements in order and publishes exactly ONE new read epoch
// at the end (sqlmini.ApplyRound), so lock-free snapshot readers
// observe round boundaries — never a half-committed group.
//
// Ordering invariant: the round sequence is total (one dispatcher, one
// dispatchMu hold per round) and the within-round order is a pure
// function of the admitted statements (sorted tie-breaking), so every
// replica — live, redo-replayed, or delta-replayed — applies the same
// statements in the same order regardless of worker counts or arrival
// interleaving.

// GroupCommitConfig tunes the group-committed ROWA rounds.
type GroupCommitConfig struct {
	// MaxBatch bounds the updates admitted into one round (default 64).
	MaxBatch int
	// MaxWait is how long the dispatcher lingers for more arrivals
	// before committing a non-full round. The default 0 commits
	// immediately: batches still form naturally from whatever
	// accumulates while the previous round is in flight, without adding
	// idle latency.
	MaxWait time.Duration
}

func (g GroupCommitConfig) withDefaults() GroupCommitConfig {
	if g.MaxBatch <= 0 {
		g.MaxBatch = 64
	}
	return g
}

// groupEntry is one update waiting for (or riding) a round: the parsed
// statement plus its routing inputs, and the completion state the
// appliers fill in as each replica finishes.
type groupEntry struct {
	stmt        sqlmini.Statement
	sql         string
	class       string
	tables      []string // class tables (error reporting)
	routeTables []string // actually-written tables (routing)
	seq         uint64   // arrival order, the in-round tie-breaker
	submitted   time.Time

	mu        sync.Mutex
	remaining int
	targets   int
	affected  int
	errCount  int
	failed    []*backend
	firstErr  error
	routeErr  error // routing-time rejection (no holder / unavailable)
	done      chan struct{}
}

// begin arms the entry for its round: n replicas must report back.
// Called under dispatchMu, before any applier can see the round.
func (e *groupEntry) begin(n int) {
	e.mu.Lock()
	e.remaining = n
	e.targets = n
	e.mu.Unlock()
}

// fail rejects the entry at routing time (it joins no round).
func (e *groupEntry) fail(err error) {
	e.routeErr = err
	close(e.done)
}

// complete records one replica's outcome. The last replica releases the
// waiting writer — strictly after that replica published its round's
// epoch, so a client that sees its write acknowledged reads it on every
// target.
func (e *groupEntry) complete(b *backend, err error, affected int) {
	e.mu.Lock()
	if err != nil {
		e.errCount++
		e.failed = append(e.failed, b)
		if e.firstErr == nil {
			e.firstErr = fmt.Errorf("cluster: backend %s: %w", b.name, err)
		}
	} else if e.affected < 0 {
		e.affected = affected
	}
	e.remaining--
	last := e.remaining == 0
	e.mu.Unlock()
	if last {
		close(e.done)
	}
}

// roundStmt is one ordered statement of a round job; entry is nil for
// redo/delta replay rounds (no writer waits on them).
type roundStmt struct {
	stmt  sqlmini.Statement
	entry *groupEntry
}

// roundJob is one backend's share of a committed round: the ordered
// statements routed to it. Applied atomically with respect to readers
// (one published epoch per round).
type roundJob struct {
	stmts []roundStmt
}

// replayRound is the redo-log / delta-capture form of a round: the
// statements — each the same (shape, params) value its round applied,
// which shares nothing a later execution could change — grouped by the
// round tick they were part of, so replay re-applies them with the same
// boundaries (and the same one-epoch-per-round visibility) as the live
// replicas saw.
type replayRound struct {
	tick  uint64
	stmts []sqlmini.Statement
}

// job converts a logged round into an applier round job.
func (rr *replayRound) job() *updateJob {
	stmts := make([]roundStmt, len(rr.stmts))
	for i, st := range rr.stmts {
		stmts[i] = roundStmt{stmt: st}
	}
	return &updateJob{round: &roundJob{stmts: stmts}, done: make(chan error, 1)}
}

// enqueueGroup hands an entry to the dispatcher.
func (c *Cluster) enqueueGroup(e *groupEntry) error {
	c.groupMu.Lock()
	if c.groupClosed {
		c.groupMu.Unlock()
		return errors.New("cluster: closed")
	}
	c.groupPending = append(c.groupPending, e)
	n := len(c.groupPending)
	if n == 1 {
		c.groupCond.Signal()
	}
	c.groupMu.Unlock()
	if n >= c.cfg.GroupCommit.MaxBatch {
		select {
		case c.groupFull <- struct{}{}:
		default:
		}
	}
	return nil
}

// groupLoop is the dispatcher: it sleeps while nothing is pending,
// optionally lingers MaxWait to let a batch build, then commits rounds
// until the pending list drains. Runs for the cluster's lifetime;
// closeGroup stops it after the last pending entry dispatched.
func (c *Cluster) groupLoop() {
	defer c.groupWG.Done()
	maxBatch := c.cfg.GroupCommit.MaxBatch
	for {
		c.groupMu.Lock()
		for len(c.groupPending) == 0 && !c.groupClosed {
			c.groupCond.Wait()
		}
		if len(c.groupPending) == 0 {
			c.groupMu.Unlock()
			return
		}
		if w := c.cfg.GroupCommit.MaxWait; w > 0 && len(c.groupPending) < maxBatch && !c.groupClosed {
			c.groupMu.Unlock()
			// Drain a stale early-full token, then linger.
			select {
			case <-c.groupFull:
			default:
			}
			timer := time.NewTimer(w)
			select {
			case <-timer.C:
			case <-c.groupFull:
				timer.Stop()
			}
			c.groupMu.Lock()
		}
		batch := c.groupPending
		if len(batch) > maxBatch {
			batch = batch[:maxBatch:maxBatch]
			c.groupPending = append([]*groupEntry(nil), c.groupPending[maxBatch:]...)
		} else {
			c.groupPending = nil
		}
		c.groupMu.Unlock()
		c.dispatchRound(batch)
	}
}

// closeGroup stops the dispatcher after it drained every pending entry.
// Must run before the backend appliers shut down: in-flight rounds
// still need their queues.
func (c *Cluster) closeGroup() {
	c.groupMu.Lock()
	c.groupClosed = true
	c.groupCond.Broadcast()
	c.groupMu.Unlock()
	c.groupWG.Wait()
}

// dispatchRound commits one round: a single dispatchMu hold fixes the
// deterministic statement order, routes every entry, logs redo/delta
// rounds for absent replicas, and enqueues one round job per target
// backend.
func (c *Cluster) dispatchRound(batch []*groupEntry) {
	// Deterministic total order within the round: sort by SQL text,
	// break ties by arrival sequence. The order is a pure function of
	// the admitted set (plus the already-total arrival sequence), so
	// replicas agree on it regardless of scheduling.
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].sql != batch[j].sql {
			return batch[i].sql < batch[j].sql
		}
		return batch[i].seq < batch[j].seq
	})
	c.dispatchMu.Lock()
	c.roundTick++
	tick := c.roundTick
	backends := c.all()
	rounds := make([]*roundJob, len(backends))
	admitted := 0
	now := time.Now()
	for _, e := range batch {
		targets := c.routeEntryLocked(backends, e, tick)
		if targets == nil {
			continue
		}
		e.begin(len(targets))
		for _, i := range targets {
			if rounds[i] == nil {
				rounds[i] = &roundJob{}
			}
			rounds[i].stmts = append(rounds[i].stmts, roundStmt{stmt: e.stmt, entry: e})
		}
		admitted++
		c.metrics.ObserveFanout(len(targets))
		c.metrics.ObserveGroupWait(now.Sub(e.submitted))
	}
	if admitted > 0 {
		c.metrics.ObserveGroupRound(admitted)
	}
	for i, r := range rounds {
		if r != nil {
			backends[i].enqueue(&updateJob{round: r, done: make(chan error, 1)})
		}
	}
	c.dispatchMu.Unlock()
}

// routeEntryLocked routes one entry within a round: it scans the
// holders of the written tables, rejects unroutable entries (failing
// them immediately), logs the statement into the redo round of every
// non-writable holder and the delta round of every in-flight migration
// capture, and returns the indices of the live targets (nil when the
// entry joins no round). Health decisions are made exactly once per
// entry, so an entry's completion count always matches its round
// memberships.
//
//qcpa:locks dispatchMu
func (c *Cluster) routeEntryLocked(backends []*backend, e *groupEntry, tick uint64) []int {
	var holders, targets []int
	for i, b := range backends {
		if b.holdsAny(e.routeTables) {
			holders = append(holders, i)
		}
	}
	if len(holders) == 0 {
		e.fail(fmt.Errorf("cluster: no backend holds tables %v for update", e.routeTables))
		return nil
	}
	var redo []int
	for _, i := range holders {
		if backends[i].acceptsWrites() {
			targets = append(targets, i)
		} else {
			redo = append(redo, i)
		}
	}
	if len(targets) == 0 {
		// No live replica may apply the update: reject it rather than
		// logging it nowhere-but-redo (the redo invariant is that every
		// logged update was applied on at least one live replica).
		c.metrics.ObserveUnavailable()
		e.fail(&runtime.UnavailableError{Class: e.class, Tables: e.tables})
		return nil
	}
	// Both logs take the update under the round tick it commits with, so
	// replay re-applies the exact round boundaries the live replicas saw.
	limit := c.cfg.RedoLogCap
	for _, i := range redo {
		if backends[i].missed.append(tick, e.stmt, limit) {
			c.metrics.ObserveRedoAppend()
		}
	}
	// Live-migration delta capture: a backend mid-copy of one of the
	// written tables records the update for catch-up replay. Captured
	// tables are disjoint from held tables (the destination holds the
	// table only after cutover), so no update is both applied directly
	// and captured.
	for _, b := range backends {
		if len(b.capture) == 0 {
			continue
		}
		for _, t := range e.routeTables {
			if dl, ok := b.capture[t]; ok && !b.holds(t) {
				dl.append(tick, e.stmt, limit)
				break
			}
		}
	}
	return targets
}
