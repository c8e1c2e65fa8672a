package cluster

import (
	"errors"
	"time"

	"qcpa/internal/sqlmini"
)

// roundLog is the replay log of updates a replica could not apply when
// they committed: the redo log of a backend that is Down, and the delta
// capture of a table in flight to a live-migration destination. The
// statements are grouped by the round tick they committed with, so
// replay re-applies the same round boundaries (and the same
// one-epoch-per-round visibility) the live replicas saw. Guarded by
// Cluster.dispatchMu: appends interleave with the global update order,
// so the log order IS the global order.
type roundLog struct {
	rounds []*replayRound
	// n counts the statements across all logged rounds — the unit of
	// Config.RedoLogCap.
	n int
	// lost marks a log that overflowed (or that a divergence
	// invalidated): replay cannot repair the replica any more, it must
	// be rebuilt from a fresh copy of a live one.
	lost bool
}

// append logs a statement under its round tick and reports whether it
// was kept. A log already holding limit statements is freed and marked
// lost instead: replaying an unbounded backlog is worse than copying.
//
//qcpa:locks dispatchMu
func (l *roundLog) append(tick uint64, stmt sqlmini.Statement, limit int) bool {
	if l.lost {
		return false
	}
	if l.n >= limit {
		l.markLost()
		return false
	}
	if n := len(l.rounds); n == 0 || l.rounds[n-1].tick != tick {
		l.rounds = append(l.rounds, &replayRound{tick: tick})
	}
	last := l.rounds[len(l.rounds)-1]
	last.stmts = append(last.stmts, stmt)
	l.n++
	return true
}

// take hands the logged rounds and their statement count to the caller
// and leaves the log empty; updates committing from here on start a
// fresh backlog.
//
//qcpa:locks dispatchMu
func (l *roundLog) take() ([]*replayRound, int) {
	rounds, n := l.rounds, l.n
	l.rounds, l.n = nil, 0
	return rounds, n
}

// reset empties the log and clears lost: the replica is (about to be)
// level with the global order again.
//
//qcpa:locks dispatchMu
func (l *roundLog) reset() { *l = roundLog{} }

// markLost frees the log and marks it lost.
//
//qcpa:locks dispatchMu
func (l *roundLog) markLost() { *l = roundLog{lost: true} }

// errDeltaOverflow ends a drain whose log was lost: updates outran the
// cap faster than replay could drain them. Recovery answers it with a
// resync; it surfaces only from a live copy, which retries from a fresh
// clone and gives up after LiveOptions.MaxAttempts.
var errDeltaOverflow = errors.New("cluster: live-migration delta log overflowed")

// drainOnto replays log through b's applier (FIFO: replay order is the
// global order) until it catches the log empty with dispatchMu held.
// onEmpty runs under that final hold and makes the switch from logged
// to direct delivery — recovery flips the backend to direct mode, a
// live-migration cutover publishes the table and unregisters its
// capture — so no gap and no overlap exists between the last replayed
// and the first direct update. Updates keep committing during replay
// and append to the emptied log; each pass replays what accumulated,
// then reports its statement count to replayed (outside the lock),
// whose error ends the drain. drainOnto returns how long the final hold
// lasted; on errDeltaOverflow (the log was lost) or replayed's error,
// onEmpty has not run.
func (c *Cluster) drainOnto(b *backend, log *roundLog, replayed func(n int) error, onEmpty func()) (time.Duration, error) {
	for {
		c.dispatchMu.Lock()
		holdStart := time.Now()
		if log.lost {
			c.dispatchMu.Unlock()
			return 0, errDeltaOverflow
		}
		batch, n := log.take()
		if len(batch) == 0 {
			onEmpty()
			c.dispatchMu.Unlock()
			return time.Since(holdStart), nil
		}
		c.dispatchMu.Unlock()
		// Replay round by round: each logged round applies through one
		// ApplyRound, preserving the epoch boundaries the live replicas
		// published when they committed it.
		jobs := make([]*updateJob, len(batch))
		for i, rr := range batch {
			jobs[i] = rr.job()
			b.enqueue(jobs[i])
		}
		for _, job := range jobs {
			// Individual replay errors are not fatal: checksum
			// verification is the arbiter of whether the replica
			// converged.
			<-job.done
		}
		if err := replayed(n); err != nil {
			return 0, err
		}
	}
}
