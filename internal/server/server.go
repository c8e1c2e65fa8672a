// Package server exposes a cluster controller over TCP, completing the
// paper's three-tier architecture (Figure 1): clients connect to the
// controller, which schedules their queries onto the backends. The wire
// protocol is length-prefixed binary frames (wire.go): a connection
// opens with the preamble "QCP\x02", the server answers a hello frame,
// and from then on every Request and Response is one frame. A
// connection that opens with anything else is closed unanswered.
//
// Every request carries a client-chosen id that the server echoes, so a
// connection pipelines freely: each request runs on one of the
// connection's serving goroutines (an idle one is reused, with the stack
// it already grew), which writes the response itself, so responses
// complete OUT OF ORDER; the last writer queued flushes for all.
//
// The edge is overload-robust (see admission.go): accepted connections
// are capped, each connection's inflight requests are bounded (a full
// pipeline stops being read — TCP backpressure), and a global admission
// semaphore with a bounded wait queue fronts execution. Beyond the
// queue, requests are shed with code "overload" and a retry-after hint.
// A request's DeadlineMS bounds it end to end — queue wait included —
// as a context deadline propagated into Cluster.ExecuteContext; expiry
// yields code "deadline". Close drains gracefully: the listener closes,
// new requests get code "draining", inflight requests finish within
// Limits.DrainTimeout (then they are canceled), and every enqueued
// response is flushed before its connection closes.
//
// Besides SQL (and the prepared-statement commands "prepare", "exec"
// and "close"), Request.Cmd names an administrative command, answered
// in a JSON-bodied frame: "history" (the recorded query journal, the
// input to reallocation), "stats" (per-backend table sets), "metrics"
// (the runtime layer's per-backend counters and histograms, the ROWA
// fan-out, and the edge's admission and wire series), "health"
// (per-backend states, redo-log depths, per-class live replicas and the
// k-safety at-risk map), "fail" / "recover" with Backend (take a backend
// out of service, bring it back with a catch-up report), "migrate" /
// "resize" with Backends (replan and install live, at the current or a
// new backend count), and "migration" (progress of the run in flight,
// pollable on the same connection while a migrate or resize executes).
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/runtime"
	"qcpa/internal/runtime/metrics"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

// Request is one client message: the payload of a request frame.
type Request struct {
	// ID is echoed in the response so pipelined requests can complete
	// out of order. Client sets it on every request.
	ID uint64
	// Cmd is "" for SQL, "prepare" / "exec" / "close" for prepared
	// statements, or an administrative command (see the package doc).
	Cmd string
	// SQL is the statement of a plain request or of "prepare".
	SQL string
	// Class is the query-class hint routing the statement.
	Class string
	// Write routes the statement as an update (ROWA to every replica).
	Write bool
	// DeadlineMS bounds the request end to end (admission queue wait
	// included), measured from arrival: the server derives a context
	// deadline from it and propagates it into execution. Expiry yields
	// code "deadline". 0 means no deadline, and so does a budget too
	// large for a time.Duration.
	DeadlineMS int64
	// Backend names the target of the administrative "fail" and
	// "recover" commands.
	Backend string
	// Backends is the target backend count of the "resize" command.
	Backends int
	// Handle targets a prepared statement: "exec" runs it, "close"
	// releases it. Handles are connection-scoped — they come from a
	// "prepare" on the same connection.
	Handle uint64
	// Args bind the prepared statement's literal positions in textual
	// order (all or none), typed on the wire as null, int64, float64 or
	// string.
	Args []interface{}
}

// Config carries the server's reallocation hooks and edge limits. The
// zero value serves queries and health commands but rejects
// "migrate"/"resize" (no planner to compute allocations with).
type Config struct {
	// Planner computes a fresh allocation for n backends, typically by
	// reclassifying the cluster's recorded history. Required for the
	// "migrate" and "resize" commands.
	Planner func(n int) (*core.Allocation, error)
	// Loader fetches tables no live replica holds during migrations.
	Loader cluster.Loader
	// Live tunes the live-migration engine (batch size, throttle).
	Live cluster.LiveOptions
	// Limits bounds the edge (connections, inflight, queue, drain).
	Limits Limits
}

// HistoryEntry mirrors the journal lines returned by cmd "history".
type HistoryEntry struct {
	SQL   string  `json:"sql"`
	Count int     `json:"count"`
	Cost  float64 `json:"cost"`
}

// Response is one server message.
type Response struct {
	// ID echoes the request's id (omitted when the request had none).
	ID    uint64 `json:"id,omitempty"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code classifies a failure mechanically — see the Code* constants
	// in errors.go. Empty for plain statement/command errors.
	Code string `json:"code,omitempty"`
	// RetryAfterMS is the backoff hint of a CodeOverload (and
	// CodeUnavailable) rejection.
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Backend      string          `json:"backend,omitempty"`
	Columns      []string        `json:"columns,omitempty"`
	Rows         [][]interface{} `json:"rows,omitempty"`
	Affected     int             `json:"affected,omitempty"`
	DurationUS   int64           `json:"duration_us,omitempty"`
	// Handle is the server-side id minted by cmd "prepare"; subsequent
	// "exec" requests on the same connection reference it.
	Handle  uint64            `json:"handle,omitempty"`
	History []HistoryEntry    `json:"history,omitempty"`
	Tables  [][]string        `json:"tables,omitempty"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Health is the availability report of cmd "health": per-backend
	// states and redo-log depths, per-class live replica counts, and
	// the k-safety at-risk map.
	Health *cluster.HealthReport `json:"health,omitempty"`
	// CatchUp reports a completed cmd "recover".
	CatchUp *cluster.CatchUpReport `json:"catch_up,omitempty"`
	// Report summarizes a completed cmd "migrate" or "resize".
	Report *cluster.MigrationReport `json:"report,omitempty"`
	// Migration is the progress snapshot of cmd "migration".
	Migration *cluster.MigrationStatus `json:"migration,omitempty"`
}

// Server serves a cluster over a listener.
type Server struct {
	cluster *cluster.Cluster
	cfg     Config
	limits  Limits
	ln      net.Listener
	baseCtx context.Context
	cancel  context.CancelFunc
	adm     *admission
	mx      *metrics.Admission

	// draining rejects new requests once Close begins; drainCh wakes
	// admission waiters and blocked per-connection slot acquires.
	draining atomic.Bool
	drainCh  chan struct{}
	// inflight counts requests between read and response-enqueue — the
	// drain barrier Close waits on.
	inflight sync.WaitGroup

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*connState // nil until the handler has read the preamble
}

// Serve starts accepting connections on ln; it returns immediately.
// Close stops the accept loop, drains in-flight requests, and waits
// for their connections.
func Serve(ln net.Listener, c *cluster.Cluster) *Server {
	return ServeConfig(ln, c, Config{})
}

// ServeConfig is Serve with reallocation hooks and edge limits
// configured.
func ServeConfig(ln net.Listener, c *cluster.Cluster, cfg Config) *Server {
	baseCtx, cancel := context.WithCancel(context.Background())
	mx := metrics.NewAdmission()
	limits := cfg.Limits.withDefaults()
	s := &Server{
		cluster: c,
		cfg:     cfg,
		limits:  limits,
		ln:      ln,
		baseCtx: baseCtx,
		cancel:  cancel,
		adm:     newAdmission(limits, mx),
		mx:      mx,
		drainCh: make(chan struct{}),
		conns:   make(map[net.Conn]*connState),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Admission snapshots the edge's overload-protection counters.
func (s *Server) Admission() metrics.AdmissionSnapshot { return s.mx.Snapshot() }

// Close drains the server (the cluster itself is not closed): it stops
// accepting, rejects new requests with the typed draining error, waits
// up to Limits.DrainTimeout for inflight requests, cancels whatever is
// still running, and tears the connections down once every response is
// written and flushed. A request admitted before Close always gets a
// response (canceled stragglers get code "draining").
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	s.mu.Unlock()
	close(s.drainCh)
	err := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.limits.DrainTimeout)
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		// Drain window exhausted: cancel the stragglers. They complete
		// promptly with a typed draining response, which still flushes
		// before the connection closes.
	}
	s.cancel()

	// Stop the readers. Each handler then joins its serving goroutines
	// (every response is already written and flushed) before the
	// connection closes — no admitted request goes unanswered.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection. full reports a rejection at the
// MaxConns cap; !ok && !full means the server is closing.
func (s *Server) track(conn net.Conn) (ok, full bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	if len(s.conns) >= s.limits.MaxConns {
		return false, true
	}
	s.conns[conn] = nil
	return true, false
}

// admitInflight registers one request with the drain barrier. It is
// ordered against Close under mu: either the request is counted before
// Close's inflight.Wait starts, or Close has begun and the request is
// refused — never an Add racing a Wait on a zero counter.
func (s *Server) admitInflight() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.mx.ConnClosed()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ok, full := s.track(conn)
		if !ok {
			if full {
				s.mx.ConnRejected()
				s.wg.Add(1)
				go s.rejectConn(conn)
			} else {
				conn.Close()
			}
			continue
		}
		s.mx.ConnOpened()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// rejectConn answers a connection beyond the MaxConns cap with the
// hello frame and one typed overload response, then closes it — a shed
// connection is told when to come back, never silently dropped. The
// preamble is awaited for at most a second; without it the connection
// is closed unanswered, like any other that does not open with it.
func (s *Server) rejectConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	var pre [4]byte
	if _, err := io.ReadFull(bufio.NewReader(conn), pre[:]); err != nil || pre != wirePreamble {
		return
	}
	// No admin payload, so the binary encoding cannot fail; write
	// errors need no handling, the connection closes either way.
	typ, payload, _ := encodeResponseFrame(nil, &Response{
		Code:         CodeOverload,
		RetryAfterMS: s.adm.retryAfterMS(0),
		Error:        "server: connection limit reached",
	})
	w := bufio.NewWriter(conn)
	writeFrame(w, frameHello, []byte{wireVersion})
	writeFrame(w, typ, payload)
	w.Flush()
}

// writeTimeout bounds one response write so a stalled client cannot
// pin execution slots forever.
const writeTimeout = 10 * time.Second

// connState is the per-connection plumbing shared by the reader and
// the serving goroutines.
type connState struct {
	conn net.Conn
	mx   *metrics.Admission
	// work hands a gated request to an idle serving goroutine; the
	// reader closes it when it stops, and the idle goroutines exit.
	work chan Request
	// workers counts the serving goroutines (reader-owned); reqs joins
	// them before the connection closes.
	workers int
	reqs    sync.WaitGroup
	// connSem bounds this connection's inflight requests (TCP
	// backpressure: a full pipeline stops being read), and so the
	// number of serving goroutines.
	connSem chan struct{}
	// stmts is the connection's prepared-statement handle table.
	stmts stmtTable

	// queued counts writers waiting for or holding wmu; the one that
	// brings it back to zero flushes.
	queued  atomic.Int32
	wmu     sync.Mutex // guards w, scratch (encoding buffer) and dead
	w       *bufio.Writer
	scratch []byte
	// dead is set when a write failed (or writeTimeout expired — a client
	// that stopped reading); later responses are discarded.
	dead bool
}

// stmtTable maps connection-scoped handles to prepared statements.
type stmtTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]*cluster.Prepared
}

// put registers a prepared statement and mints its handle; cap bounds
// the table (0 or negative: unlimited).
func (t *stmtTable) put(p *cluster.Prepared, cap int) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[uint64]*cluster.Prepared)
	}
	if cap > 0 && cap != unlimited && len(t.m) >= cap {
		return 0, fmt.Errorf("server: prepared-statement limit (%d) reached on this connection; close unused handles", cap)
	}
	t.next++
	t.m[t.next] = p
	return t.next, nil
}

func (t *stmtTable) get(h uint64) (*cluster.Prepared, bool) {
	t.mu.Lock()
	p, ok := t.m[h]
	t.mu.Unlock()
	return p, ok
}

func (t *stmtTable) del(h uint64) bool {
	t.mu.Lock()
	_, ok := t.m[h]
	delete(t.m, h)
	t.mu.Unlock()
	return ok
}

// drop empties the table (connection teardown), returning how many
// handles were open.
func (t *stmtTable) drop() int {
	t.mu.Lock()
	n := len(t.m)
	t.m = nil
	t.mu.Unlock()
	return n
}

// send writes one response unless the connection already died. The
// writer that finds no other queued behind it flushes, so responses
// completed together coalesce into one flush (the batch factor is
// frames_out/flushes in the wire metrics).
func (cs *connState) send(r *Response) {
	cs.queued.Add(1)
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	last := cs.queued.Add(-1) == 0
	if cs.dead {
		return
	}
	cs.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	typ, payload, err := encodeResponseFrame(cs.scratch[:0], r)
	if err != nil {
		// An admin payload that failed to marshal: degrade to a plain
		// error so the request still gets an answer.
		typ, payload, _ = encodeResponseFrame(cs.scratch[:0], &Response{
			ID: r.ID, Error: "internal error: " + err.Error(),
		})
	}
	cs.scratch = payload[:0]
	if err := writeFrame(cs.w, typ, payload); err != nil {
		cs.fail()
		return
	}
	cs.mx.ObserveFrameOut()
	if last {
		if err := cs.w.Flush(); err != nil {
			cs.fail()
			return
		}
		cs.mx.ObserveFlush()
	}
}

// fail marks the connection dead after a write error and closes it,
// which unblocks the reader too. Called with wmu held.
func (cs *connState) fail() {
	cs.dead = true
	cs.conn.Close()
}

// handle is the per-connection reader. The connection must open with
// the preamble or it is closed unanswered; then it answers the hello
// frame, and every request frame is gated (draining, per-connection
// inflight, drain barrier) and handed to a serving goroutine, so
// pipelined requests complete out of order. Once the reader stops, the
// serving goroutines finish, write their responses and exit before the
// connection closes.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != wirePreamble {
		conn.Close()
		return
	}
	cs := &connState{
		conn:    conn,
		mx:      s.mx,
		work:    make(chan Request),
		connSem: make(chan struct{}, min(s.limits.ConnInflight, 1<<16)),
		w:       bufio.NewWriter(conn),
	}
	s.mu.Lock()
	s.conns[conn] = cs
	s.mu.Unlock()
	// The hello frame confirms the version before any response; flushed
	// immediately so the client can start sending.
	if writeFrame(cs.w, frameHello, []byte{wireVersion}) == nil && cs.w.Flush() == nil {
		s.readFrames(cs, br)
	}
	close(cs.work)
	cs.reqs.Wait()
	conn.Close()
	if n := cs.stmts.drop(); n > 0 {
		s.mx.ObserveStmtClosed(int64(n))
	}
}

// readFrames is the connection's read loop. The length prefix makes
// oversized-frame resync exact (discard the payload, answer too_large,
// keep the connection); an undecodable or unknown-type frame is
// answered bad_request and the connection lives on. Only a garbage
// length or a truncated stream closes it.
func (s *Server) readFrames(cs *connState, br *bufio.Reader) {
	var rbuf []byte // frame scratch, reused — decodeRequest copies out
	for {
		typ, payload, tooBig, err := readFrameBuf(br, s.limits.MaxFrameBytes, &rbuf)
		if tooBig {
			s.mx.ObserveTooLarge()
			cs.send(&Response{
				Code:  CodeTooLarge,
				Error: fmt.Sprintf("server: frame exceeds %d bytes", s.limits.MaxFrameBytes),
			})
			if err != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		switch typ {
		case frameRequest:
			s.mx.ObserveFrameIn()
			req, derr := decodeRequest(payload)
			if derr != nil {
				s.mx.ObserveBadFrame()
				cs.send(&Response{Code: CodeBadRequest, Error: "bad request: " + derr.Error()})
				continue
			}
			s.gate(cs, req)
		default:
			s.mx.ObserveBadFrame()
			cs.send(&Response{Code: CodeBadRequest, Error: fmt.Sprintf("bad request: unknown frame type %#x", typ)})
		}
	}
}

// gate runs the pre-execution gates — draining, the per-connection
// inflight bound (TCP backpressure, not an error), and the drain
// barrier — then hands the request to an idle serving goroutine, or
// spawns one when none is idle. A connection never has more serving
// goroutines than inflight slots: at that count, one that is not
// serving is on its way back to idle, and the hand-off waits for it.
func (s *Server) gate(cs *connState, req Request) {
	if s.draining.Load() {
		s.mx.ObserveDrained()
		cs.send(&Response{ID: req.ID, Code: CodeDraining, Error: (&DrainingError{}).Error()})
		return
	}
	// Per-connection inflight bound: a full pipeline blocks the
	// reader (TCP backpressure) rather than shedding.
	select {
	case cs.connSem <- struct{}{}:
	case <-s.drainCh:
		s.mx.ObserveDrained()
		cs.send(&Response{ID: req.ID, Code: CodeDraining, Error: (&DrainingError{}).Error()})
		return
	}
	if !s.admitInflight() {
		// Close began between the draining check and here.
		<-cs.connSem
		s.mx.ObserveDrained()
		cs.send(&Response{ID: req.ID, Code: CodeDraining, Error: (&DrainingError{}).Error()})
		return
	}
	select {
	case cs.work <- req:
		return
	default:
	}
	if cs.workers == cap(cs.connSem) {
		cs.work <- req
		return
	}
	cs.workers++
	cs.reqs.Add(1)
	s.wg.Add(1)
	go s.worker(cs, req)
}

// worker is one serving goroutine of a connection: it serves req, then
// each request handed to it while idle, until the reader closes work.
// Reusing it keeps the stack that execution grew, instead of growing a
// fresh one per request.
func (s *Server) worker(cs *connState, req Request) {
	defer s.wg.Done()
	defer cs.reqs.Done()
	for ok := true; ok; req, ok = <-cs.work {
		s.serve(cs, req)
	}
}

// serve runs one request: deadline derivation, global admission, then
// execution. The response is written before the inflight barrier is
// released, so a graceful drain never leaves an admitted request
// unanswered.
func (s *Server) serve(cs *connState, req Request) {
	ctx, cancel := s.requestContext(&req)
	var resp Response
	if err := s.adm.acquire(ctx, s.drainCh); err != nil {
		resp = s.rejectResponse(err)
	} else {
		resp = s.safeExecute(ctx, cs, req)
		s.adm.release()
	}
	cancel()
	resp.ID = req.ID
	cs.send(&resp)
	<-cs.connSem
	s.inflight.Done()
}

// requestContext derives the request's execution context from the
// server's base context plus the client's DeadlineMS budget, measured
// from arrival so admission queue wait counts against it. Without a
// budget the request runs under the base context itself — force-drain
// cancels it there — and derives nothing. A budget beyond what a
// time.Duration holds (≈292 years) is no deadline: multiplied out it
// would wrap around to an arbitrary, possibly sub-millisecond one.
func (s *Server) requestContext(req *Request) (context.Context, context.CancelFunc) {
	if ms := req.DeadlineMS; ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
		return context.WithTimeout(s.baseCtx, time.Duration(ms)*time.Millisecond)
	}
	return s.baseCtx, func() {}
}

// rejectResponse maps an admission failure to its typed wire form.
func (s *Server) rejectResponse(err error) Response {
	var ov *OverloadError
	if errors.As(err, &ov) {
		return Response{Code: CodeOverload, RetryAfterMS: ov.RetryAfterMS, Error: ov.Error()}
	}
	var dr *DrainingError
	if errors.As(err, &dr) {
		return Response{Code: CodeDraining, Error: dr.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Response{Code: CodeDeadline, Error: "server: deadline expired while queued for admission"}
	}
	// Base context canceled: the server is force-draining.
	return Response{Code: CodeDraining, Error: (&DrainingError{}).Error()}
}

// errorResponse maps an execution failure to its wire form, typing the
// mechanically-actionable classes.
func (s *Server) errorResponse(err error) Response {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Response{Code: CodeDeadline, Error: "server: deadline exceeded: " + err.Error()}
	case errors.Is(err, context.Canceled):
		// Only the base context can cancel (clients cannot): drain.
		return Response{Code: CodeDraining, Error: (&DrainingError{}).Error()}
	case errors.Is(err, runtime.ErrUnavailable):
		return Response{Code: CodeUnavailable, RetryAfterMS: s.adm.retryAfterMS(0), Error: err.Error()}
	}
	return Response{Error: err.Error()}
}

// safeExecute shields the connection from a panicking request: the
// client gets an error response and the connection (and server) lives
// on, instead of one poisoned request killing its goroutine.
func (s *Server) safeExecute(ctx context.Context, cs *connState, req Request) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = Response{Error: fmt.Sprintf("internal error: %v", r)}
		}
	}()
	return s.execute(ctx, cs, req)
}

// resultResponse converts a cluster result into its wire form.
func resultResponse(res *cluster.Result) Response {
	out := Response{
		OK:         true,
		Backend:    res.Backend,
		Columns:    res.Columns,
		Affected:   res.Affected,
		DurationUS: res.Duration.Microseconds(),
	}
	for _, row := range res.Data {
		jr := make([]interface{}, len(row))
		for i, v := range row {
			jr[i] = jsonValue(v)
		}
		out.Rows = append(out.Rows, jr)
	}
	return out
}

func (s *Server) execute(ctx context.Context, cs *connState, req Request) Response {
	switch req.Cmd {
	case "":
		res, err := s.cluster.ExecuteContext(ctx, workload.Request{SQL: req.SQL, Class: req.Class, Write: req.Write})
		if err != nil {
			return s.errorResponse(err)
		}
		return resultResponse(res)
	case "prepare":
		if req.SQL == "" {
			return Response{Code: CodeBadRequest, Error: "bad request: prepare needs sql"}
		}
		p, err := s.cluster.Prepare(req.SQL, req.Class, req.Write)
		if err != nil {
			return s.errorResponse(err)
		}
		h, err := cs.stmts.put(p, s.limits.MaxStmts)
		if err != nil {
			return Response{Error: err.Error()}
		}
		s.mx.ObservePrepare()
		return Response{OK: true, Handle: h}
	case "exec":
		p, ok := cs.stmts.get(req.Handle)
		if !ok {
			return Response{Code: CodeBadHandle, Error: fmt.Sprintf("server: unknown prepared handle %d (prepare again)", req.Handle)}
		}
		args := make([]sqlmini.Value, len(req.Args))
		for i, a := range req.Args {
			v, err := toValue(a)
			if err != nil {
				return Response{Code: CodeBadRequest, Error: "bad request: " + err.Error()}
			}
			args[i] = v
		}
		res, err := s.cluster.ExecPrepared(ctx, p, args)
		if err != nil {
			return s.errorResponse(err)
		}
		s.mx.ObservePreparedExec()
		out := resultResponse(res)
		out.Handle = req.Handle
		return out
	case "close":
		if !cs.stmts.del(req.Handle) {
			return Response{Code: CodeBadHandle, Error: fmt.Sprintf("server: unknown prepared handle %d", req.Handle)}
		}
		s.mx.ObserveStmtClosed(1)
		return Response{OK: true, Handle: req.Handle}
	case "history":
		var hist []HistoryEntry
		for _, e := range s.cluster.History() {
			hist = append(hist, HistoryEntry{SQL: e.SQL, Count: e.Count, Cost: e.Cost})
		}
		return Response{OK: true, History: hist}
	case "stats":
		var tables [][]string
		for i := 0; i < s.cluster.NumBackends(); i++ {
			tables = append(tables, s.cluster.Tables(i))
		}
		return Response{OK: true, Tables: tables}
	case "metrics":
		snap := s.cluster.Metrics()
		adm := s.mx.Snapshot()
		snap.Admission = &adm
		return Response{OK: true, Metrics: snap}
	case "health":
		return Response{OK: true, Health: s.cluster.Health()}
	case "fail":
		if err := s.cluster.Fail(req.Backend); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Backend: req.Backend}
	case "recover":
		rep, err := s.cluster.Recover(req.Backend)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Backend: req.Backend, CatchUp: rep}
	case "migrate":
		rep, err := s.reallocate(s.cluster.NumBackends())
		if err != nil {
			return s.errorResponse(err)
		}
		return Response{OK: true, Report: rep}
	case "resize":
		if req.Backends <= 0 {
			return Response{Error: "resize needs a positive \"backends\" count"}
		}
		rep, err := s.reallocate(req.Backends)
		if err != nil {
			return s.errorResponse(err)
		}
		return Response{OK: true, Report: rep}
	case "migration":
		st := s.cluster.Migration()
		return Response{OK: true, Migration: &st}
	}
	return Response{Error: fmt.Sprintf("unknown cmd %q", req.Cmd)}
}

// reallocate plans a fresh allocation for n backends and installs it
// with the live engine. It runs synchronously in the requesting
// request's goroutine; other requests — including "migration" polls on
// the same pipelined connection — keep executing throughout.
func (s *Server) reallocate(n int) (*cluster.MigrationReport, error) {
	if s.cfg.Planner == nil {
		return nil, errors.New("server: no planner configured for online reallocation")
	}
	alloc, err := s.cfg.Planner(n)
	if err != nil {
		return nil, fmt.Errorf("server: planning allocation: %w", err)
	}
	return s.cluster.ResizeLive(alloc, s.cfg.Loader, s.cfg.Live)
}

// jsonValue converts an engine value into a JSON-friendly Go value.
func jsonValue(v sqlmini.Value) interface{} {
	switch v.K {
	case sqlmini.KindInt:
		return v.I
	case sqlmini.KindFloat:
		return v.F
	case sqlmini.KindText:
		return v.S
	default:
		return nil
	}
}
