package server

import (
	"context"
	"time"

	"qcpa/internal/runtime/metrics"
)

// Limits bounds the server's edge. The zero value of any field selects
// its default; a negative MaxConns, MaxInflight, ConnInflight, or
// QueueDepth means unlimited (the pre-admission-control behavior).
type Limits struct {
	// MaxConns caps accepted connections (default 1024). A connection
	// beyond the cap receives one typed overload response and is closed.
	MaxConns int
	// MaxInflight caps requests executing concurrently across all
	// connections — the global admission semaphore (default 256).
	MaxInflight int
	// ConnInflight caps requests in flight per connection (default 32).
	// A pipelined connection at the cap stops being read — TCP
	// backpressure, not an error.
	ConnInflight int
	// QueueDepth caps requests waiting for an execution slot beyond
	// MaxInflight (default 2x MaxInflight). Requests past the queue are
	// shed with a typed overload error carrying a retry-after hint.
	QueueDepth int
	// DrainTimeout bounds how long Close waits for inflight requests
	// before canceling them (default 5s).
	DrainTimeout time.Duration
	// RetryAfter is the base of the overload retry hint; the hint grows
	// with queue pressure up to roughly 2x (default 50ms).
	RetryAfter time.Duration
	// MaxFrameBytes caps one request frame (default 1 MiB). An
	// oversized frame gets a typed too-large error and the connection
	// resyncs exactly past its declared length instead of dropping.
	MaxFrameBytes int
	// MaxStmts caps the prepared-statement handles one connection may
	// hold open (default 512); past the cap, prepare fails until a
	// handle is closed. Negative means unlimited.
	MaxStmts int
}

// withDefaults fills zero fields. Negative caps become "unlimited"
// sentinels large enough to never bind.
func (l Limits) withDefaults() Limits {
	l.MaxConns = defaultCap(l.MaxConns, 1024)
	l.MaxInflight = defaultCap(l.MaxInflight, 256)
	l.ConnInflight = defaultCap(l.ConnInflight, 32)
	switch {
	case l.QueueDepth == 0 && l.MaxInflight == unlimited:
		// 2x an unlimited sentinel would overflow negative, turning
		// "no limit" into "shed everything that queues".
		l.QueueDepth = unlimited
	case l.QueueDepth == 0:
		l.QueueDepth = 2 * l.MaxInflight
	case l.QueueDepth < 0:
		l.QueueDepth = unlimited
	}
	if l.DrainTimeout <= 0 {
		l.DrainTimeout = 5 * time.Second
	}
	if l.RetryAfter <= 0 {
		l.RetryAfter = 50 * time.Millisecond
	}
	if l.MaxFrameBytes <= 0 {
		l.MaxFrameBytes = 1 << 20
	}
	l.MaxStmts = defaultCap(l.MaxStmts, 512)
	return l
}

// unlimited stands in for a negative (disabled) cap. It only sizes
// comparisons, never allocations.
const unlimited = int(^uint(0) >> 1)

func defaultCap(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return unlimited
	}
	return v
}

// admission is the global gate in front of request execution: a
// semaphore of MaxInflight slots with a bounded wait queue. Beyond the
// queue, requests are shed with a typed overload error whose retry
// hint scales with queue depth.
type admission struct {
	sem       chan struct{}
	queueCap  int64
	retryBase time.Duration
	mx        *metrics.Admission
}

func newAdmission(l Limits, mx *metrics.Admission) *admission {
	semCap := l.MaxInflight
	if semCap == unlimited {
		// A semaphore needs a real buffer; 1<<20 concurrent executing
		// requests is past any plausible deployment of this server.
		semCap = 1 << 20
	}
	return &admission{
		sem:       make(chan struct{}, semCap),
		queueCap:  int64(l.QueueDepth),
		retryBase: l.RetryAfter,
		mx:        mx,
	}
}

// acquire wins one execution slot or returns a typed rejection:
// *OverloadError when the wait queue is full, *DrainingError when the
// server started draining while queued, or ctx.Err() when the request's
// deadline expired first. The caller must release() after a nil return.
func (a *admission) acquire(ctx context.Context, drain <-chan struct{}) error {
	select {
	case a.sem <- struct{}{}:
		a.mx.ObserveAdmitted(0)
		return nil
	default:
	}
	depth := a.mx.QueueEnter()
	if depth > a.queueCap {
		a.mx.QueueLeave()
		a.mx.ObserveShed()
		return &OverloadError{RetryAfterMS: a.retryAfterMS(depth)}
	}
	start := time.Now()
	select {
	case a.sem <- struct{}{}:
		a.mx.QueueLeave()
		a.mx.ObserveAdmitted(time.Since(start))
		return nil
	case <-drain:
		a.mx.QueueLeave()
		a.mx.ObserveDrained()
		return &DrainingError{}
	case <-ctx.Done():
		a.mx.QueueLeave()
		a.mx.ObserveDeadlineExpired()
		return ctx.Err()
	}
}

// release returns an execution slot.
func (a *admission) release() { <-a.sem }

// retryAfterMS computes the overload hint: the configured base, scaled
// up to ~2x as the queue overfills, so clients back off harder the
// deeper the overload. Always at least 1ms so the typed error is
// distinguishable from "no hint".
func (a *admission) retryAfterMS(depth int64) int64 {
	base := a.retryBase.Milliseconds()
	if base < 1 {
		base = 1
	}
	if a.queueCap > 0 && a.queueCap != int64(unlimited) {
		over := depth - a.queueCap
		if over > a.queueCap {
			over = a.queueCap
		}
		if over > 0 {
			base += base * over / a.queueCap
		}
	}
	return base
}
