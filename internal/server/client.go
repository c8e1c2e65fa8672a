package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
)

// ClientOptions tunes the client's overload reaction. The zero value
// selects sensible defaults; negative MaxRetries disables retries and
// negative BreakerThreshold disables the circuit breaker.
type ClientOptions struct {
	// Protocol names the wire protocol version. The controller speaks
	// only version 2, so 0 and 2 are accepted and any other value is an
	// error.
	Protocol int
	// MaxRetries bounds the resends of one Do call after typed
	// retryable rejections (overload, unavailable). Default 3; -1
	// disables retries.
	MaxRetries int
	// Backoff shapes the jitter added on top of the server's
	// retry_after_ms hint; its Max caps the total per-attempt delay.
	// Default {Base: 10ms, Max: 2s}.
	Backoff runtime.Backoff
	// RetryBudget caps banked retries across the whole client: every
	// retry spends one token, every success refunds a tenth. A client
	// out of budget stops retrying (meltdown protection — retries must
	// stay a small fraction of successful traffic). Default 10.
	RetryBudget float64
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker. Default 8; -1 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// allowing one half-open probe. Default 1s.
	BreakerCooldown time.Duration
	// Seed seeds the retry jitter stream (default 1).
	Seed int64
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.Backoff.Base == 0 {
		o.Backoff.Base = 10 * time.Millisecond
	}
	if o.Backoff.Max == 0 {
		o.Backoff.Max = 2 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 10
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// checkProtocol rejects a Protocol the controller does not speak.
func (o ClientOptions) checkProtocol() error {
	if o.Protocol != 0 && o.Protocol != wireVersion {
		return fmt.Errorf("server: wire protocol %d is not supported (the controller speaks only %d)", o.Protocol, wireVersion)
	}
	return nil
}

// Client is a pipelined client for the controller protocol, safe for
// concurrent use: every request carries an id, writes are serialized,
// and responses are demultiplexed by id — N goroutines calling Do share
// one connection with their requests in flight simultaneously. There is
// no reader goroutine: one waiting caller at a time holds the reader
// baton and reads frames, delivering each to its caller, until its own
// response arrives; a lone caller so reads its own answer.
//
// The client is overload-aware: typed overload/unavailable rejections
// are retried with the server's retry_after_ms hint plus capped
// full-jitter backoff, retries are bounded by a per-client budget, and
// a circuit breaker stops sending entirely (ErrCircuitOpen) after a
// streak of failures until a cooldown passes.
type Client struct {
	opts ClientOptions
	conn net.Conn
	rng  *rand.Rand // concurrency-safe (runtime.NewLockedRand)

	wmu  sync.Mutex // serializes request writes and owns wbuf
	wbuf []byte     // frame scratch, reused across sends

	// reading is the one-slot reader baton; its holder owns br and rbuf.
	reading chan struct{}
	br      *bufio.Reader
	rbuf    []byte // frame scratch, reused — decodeResponse copies out

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan *Response
	readErr error
	closed  bool

	breaker breaker
	budget  retryBudget
}

// Dial connects to a controller with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, ClientOptions{}) }

// DialOptions connects to a controller with explicit overload-reaction
// options. An unsupported Protocol is an error before anything is
// dialed, and so is a peer that does not answer the preamble with the
// hello frame.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	if err := opts.checkProtocol(); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn, opts)
	if c.readErr != nil {
		return nil, c.readErr
	}
	return c, nil
}

// NewClient wraps an established connection (tests and in-process
// benchmarks dial their own): it sends the preamble and reads the hello
// frame before it returns. With an unsupported Protocol nothing is sent
// and every call fails with that error; a failed handshake closes the
// connection, and every call fails with the handshake's error.
func NewClient(conn net.Conn, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	c := &Client{
		opts:    opts,
		conn:    conn,
		rng:     runtime.NewLockedRand(opts.Seed),
		reading: make(chan struct{}, 1),
		br:      bufio.NewReader(conn),
		waiters: make(map[uint64]chan *Response),
	}
	c.breaker.threshold = opts.BreakerThreshold
	c.breaker.cooldown = opts.BreakerCooldown
	c.budget.max = opts.RetryBudget
	c.budget.tokens = opts.RetryBudget
	if c.readErr = opts.checkProtocol(); c.readErr != nil {
		return c
	}
	if c.readErr = c.handshake(); c.readErr != nil {
		conn.Close()
	}
	return c
}

// Close closes the connection; in-flight Do calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// readOne reads one response frame and delivers it to its caller. Only
// the holder of the reader baton calls it.
func (c *Client) readOne() error {
	typ, payload, _, err := readFrameBuf(c.br, absMaxFrame, &c.rbuf)
	if err != nil {
		return err
	}
	var resp *Response
	switch typ {
	case frameResponse:
		resp, err = decodeResponse(payload)
	case frameRespJSON:
		resp = &Response{}
		err = json.Unmarshal(payload, resp)
	default:
		err = fmt.Errorf("unknown frame type %#x", typ)
	}
	if err != nil {
		return fmt.Errorf("server: undecodable response: %w", err)
	}
	c.deliver(resp)
	return nil
}

// handshake opens the connection with the preamble and reads the
// server's hello frame in answer.
func (c *Client) handshake() error {
	if _, err := c.conn.Write(wirePreamble[:]); err != nil {
		return fmt.Errorf("server: handshake failed: %w", err)
	}
	typ, payload, _, err := readFrame(c.br, absMaxFrame)
	if err != nil {
		return fmt.Errorf("server: handshake failed: %w", err)
	}
	if typ != frameHello || len(payload) < 1 {
		return fmt.Errorf("server: handshake: unexpected frame type %#x", typ)
	}
	if payload[0] < wireVersion {
		return fmt.Errorf("server: handshake: unsupported version %d", payload[0])
	}
	return nil
}

// deliver routes one response to its waiter. A response without an id
// (an error generated before the request decoded, or a connection-cap
// rejection) is matched to the sole waiter when exactly one is
// outstanding.
//
//qcpa:nocancel the send never blocks: each waiter channel has one slot and receives at most one response
func (c *Client) deliver(resp *Response) {
	c.mu.Lock()
	ch, ok := c.waiters[resp.ID]
	if ok {
		delete(c.waiters, resp.ID)
	} else if resp.ID == 0 && len(c.waiters) == 1 {
		for id, w := range c.waiters {
			ch, ok = w, true
			delete(c.waiters, id)
		}
	}
	c.mu.Unlock()
	if ok {
		ch <- resp
	}
}

// failAll terminates every outstanding waiter with the read error; the
// calls that follow fail with it too.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		if c.closed {
			err = errors.New("server: client closed")
		}
		c.readErr = err
	}
	waiters := c.waiters
	c.waiters = make(map[uint64]chan *Response)
	c.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// roundTrip sends one request and waits for its response. Transport
// errors (dial lost, server gone) surface as plain errors.
//
//qcpa:nocancel the wire client is deadline-driven: conn deadlines bound the write, and a failed read closes every waiter channel (see await)
func (c *Client) roundTrip(req Request) (*Response, error) {
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("server: client closed")
	}
	c.nextID++
	req.ID = c.nextID
	ch := make(chan *Response, 1)
	c.waiters[req.ID] = ch
	c.mu.Unlock()

	// One buffer, one write: [u32 len][type][payload]. The buffer is
	// owned by wmu and reused, so steady-state sends allocate nothing.
	c.wmu.Lock()
	data := append(c.wbuf[:0], 0, 0, 0, 0, frameRequest)
	data, err := encodeRequest(data, &req)
	if err == nil {
		binary.BigEndian.PutUint32(data[:4], uint32(len(data)-4))
		_, err = c.conn.Write(data)
	}
	c.wbuf = data
	c.wmu.Unlock()
	if err != nil {
		c.dropWaiter(req.ID)
		return nil, err
	}
	if resp, ok := c.await(ch); ok && resp != nil {
		return resp, nil
	}
	c.mu.Lock()
	err = c.readErr
	c.mu.Unlock()
	if err == nil {
		err = errors.New("server: connection closed")
	}
	return nil, err
}

// await receives from ch; ok is false when a read error closed it.
// While no one else is reading, the caller takes the reader baton and
// reads frames — delivering each to its caller — until its own response
// arrives; then it passes the baton on to the next waiter. A read error
// fails every waiter, ch included.
//
//qcpa:nocancel the wire client is deadline-driven: a closed or failed connection ends the read, and failAll closes every waiter channel
func (c *Client) await(ch chan *Response) (resp *Response, ok bool) {
	select {
	case resp, ok = <-ch:
		return resp, ok
	case c.reading <- struct{}{}:
	}
	for {
		select {
		case resp, ok = <-ch:
			<-c.reading // pass the baton on
			return resp, ok
		default:
		}
		if err := c.readOne(); err != nil {
			c.failAll(err)
		}
	}
}

func (c *Client) dropWaiter(id uint64) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

// retryable reports whether a coded rejection is worth resending to
// the same server: overload clears as the queue drains, unavailable
// clears as backends recover. Draining never clears here.
func retryable(code string) bool { return code == CodeOverload || code == CodeUnavailable }

// Do sends one request and returns its response, retrying typed
// overload/unavailable rejections with the server's retry-after hint
// plus jitter (bounded by MaxRetries and the retry budget). Like the
// pre-overload client, an application-level failure (statement error,
// unknown command) returns the response with a nil error — callers
// inspect resp.OK — but shed/drained requests return the response AND
// the typed error, since they never executed.
func (c *Client) Do(req Request) (*Response, error) {
	return c.DoContext(context.Background(), req)
}

// DoContext is Do bounded by ctx: the context's deadline is propagated
// to the server as deadline_ms (when the request does not already set
// one) and retry sleeps abort on cancellation.
func (c *Client) DoContext(ctx context.Context, req Request) (*Response, error) {
	if dl, ok := ctx.Deadline(); ok && req.DeadlineMS == 0 {
		remaining := time.Until(dl)
		if remaining <= 0 {
			// Already expired: reject locally instead of serializing a
			// truncated 0 — which the server would read as "no deadline"
			// and run unbounded.
			return nil, context.DeadlineExceeded
		}
		ms := remaining.Milliseconds()
		if ms < 1 {
			// Sub-millisecond budgets round UP: 0 means "no deadline" on
			// the wire.
			ms = 1
		}
		req.DeadlineMS = ms
	}
	for attempt := 0; ; attempt++ {
		if !c.breaker.allow() {
			return nil, ErrCircuitOpen
		}
		resp, err := c.roundTrip(req)
		if err != nil {
			c.breaker.record(false)
			return nil, err
		}
		if !resp.OK && resp.Code != "" && resp.Code != CodeBadRequest {
			// A coded rejection counts against the breaker even when
			// not retried here: a server shedding or draining is not
			// healthy for this client.
			c.breaker.record(false)
			if !retryable(resp.Code) || attempt >= c.opts.MaxRetries || !c.budget.take() {
				return resp, ResponseError(resp)
			}
			d := c.retryDelay(attempt, resp.RetryAfterMS)
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return resp, ctx.Err()
			}
			continue
		}
		c.breaker.record(true)
		c.budget.refund()
		return resp, nil
	}
}

// retryDelay combines the server's retry-after hint with full-jitter
// backoff, capped at Backoff.Max.
func (c *Client) retryDelay(attempt int, hintMS int64) time.Duration {
	d := time.Duration(hintMS) * time.Millisecond
	d += c.opts.Backoff.Delay(attempt, c.rng)
	if max := c.opts.Backoff.Max; max > 0 && d > max {
		d = max
	}
	return d
}

// Query executes a read.
func (c *Client) Query(sql, class string) (*Response, error) {
	return c.call(context.Background(), Request{SQL: sql, Class: class})
}

// Exec executes a write (routed via ROWA to all replicas).
func (c *Client) Exec(sql, class string) (*Response, error) {
	return c.call(context.Background(), Request{SQL: sql, Class: class, Write: true})
}

// call is DoContext for the typed helpers: a response that is not OK is
// also an error.
func (c *Client) call(ctx context.Context, req Request) (*Response, error) {
	resp, err := c.DoContext(ctx, req)
	if err != nil {
		return resp, err
	}
	return resp, ResponseError(resp)
}

// Stmt is a server-side prepared statement: the statement was parsed
// and routed once at Prepare, and each Exec ships only the handle plus
// fresh argument values — no SQL text, no parse, and a plan-cache hit
// on the backend. Handles are scoped to the client's connection. Safe
// for concurrent Exec calls.
type Stmt struct {
	c      *Client
	handle uint64
	sql    string
	nargs  int
}

// Handle returns the server-side id (tests and metrics correlation).
func (st *Stmt) Handle() uint64 { return st.handle }

// NumArgs returns how many literal positions Exec binds — all or none.
func (st *Stmt) NumArgs() int { return st.nargs }

// Prepare registers a statement server-side and returns its handle.
// The SQL's literals become argument positions bound by Exec in
// textual order; class and write route it exactly like Query/Exec.
func (c *Client) Prepare(sql, class string, write bool) (*Stmt, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "prepare", SQL: sql, Class: class, Write: write})
	if err != nil {
		return nil, err
	}
	nargs := 0
	if stmt, err := sqlmini.Parse(sql); err == nil {
		nargs = stmt.NumLiterals
	}
	return &Stmt{c: c, handle: resp.Handle, sql: sql, nargs: nargs}, nil
}

// Exec executes the prepared statement with args bound to its literal
// positions (pass none to run the template verbatim). Arguments may be
// nil, integers, floats, or strings; they travel as typed binary values.
func (st *Stmt) Exec(args ...interface{}) (*Response, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec bounded by ctx.
func (st *Stmt) ExecContext(ctx context.Context, args ...interface{}) (*Response, error) {
	wire := make([]interface{}, len(args))
	for i, a := range args {
		v, err := wireArg(a)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w", i, err)
		}
		wire[i] = v
	}
	return st.c.call(ctx, Request{Cmd: "exec", Handle: st.handle, Args: wire})
}

// Close releases the server-side handle.
func (st *Stmt) Close() error {
	_, err := st.c.call(context.Background(), Request{Cmd: "close", Handle: st.handle})
	return err
}

// wireArg normalizes a caller-supplied argument to the wire's value
// domain (nil, int64, float64, string).
func wireArg(a interface{}) (interface{}, error) {
	switch x := a.(type) {
	case nil, int64, float64, string:
		return x, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float32:
		return float64(x), nil
	case sqlmini.Value:
		switch x.K {
		case sqlmini.KindNull:
			return nil, nil
		case sqlmini.KindInt:
			return x.I, nil
		case sqlmini.KindFloat:
			return x.F, nil
		default:
			return x.S, nil
		}
	default:
		return nil, fmt.Errorf("unsupported argument type %T", a)
	}
}

// Health fetches the controller's availability report.
func (c *Client) Health() (*cluster.HealthReport, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "health"})
	if err != nil {
		return nil, err
	}
	return resp.Health, nil
}

// Fail administratively takes a backend out of service.
func (c *Client) Fail(backend string) error {
	_, err := c.call(context.Background(), Request{Cmd: "fail", Backend: backend})
	return err
}

// Recover brings a failed backend back and returns its catch-up
// report.
func (c *Client) Recover(backend string) (*cluster.CatchUpReport, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "recover", Backend: backend})
	if err != nil {
		return nil, err
	}
	return resp.CatchUp, nil
}

// Migrate asks the controller to replan from its recorded history and
// install the new allocation live. Blocks until the migration
// finishes; poll MigrationStatus concurrently (same client is fine —
// the connection pipelines) for progress.
func (c *Client) Migrate() (*cluster.MigrationReport, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "migrate"})
	if err != nil {
		return nil, err
	}
	return resp.Report, nil
}

// Resize asks the controller to replan at a new backend count and
// scale live.
func (c *Client) Resize(backends int) (*cluster.MigrationReport, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "resize", Backends: backends})
	if err != nil {
		return nil, err
	}
	return resp.Report, nil
}

// MigrationStatus fetches the progress of the migration in flight (or
// the outcome of the last finished one).
func (c *Client) MigrationStatus() (*cluster.MigrationStatus, error) {
	resp, err := c.call(context.Background(), Request{Cmd: "migration"})
	if err != nil {
		return nil, err
	}
	return resp.Migration, nil
}

// breaker is a consecutive-failure circuit breaker: closed passes
// everything, open rejects until cooldown, half-open admits exactly one
// probe whose outcome closes or re-opens the circuit.
type breaker struct {
	threshold int // <= -1 disables
	cooldown  time.Duration

	mu       sync.Mutex
	state    int // 0 closed, 1 open, 2 half-open (probe in flight)
	failures int
	openedAt time.Time
}

// allow reports whether a request may be sent now.
func (b *breaker) allow() bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 0:
		return true
	case 1:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = 2 // half-open: admit one probe
			return true
		}
		return false
	default: // half-open, probe already in flight
		return false
	}
}

// record notes a request outcome: success closes the circuit, failure
// advances the streak and opens it at the threshold (a failed half-open
// probe re-opens immediately).
func (b *breaker) record(ok bool) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = 0
		b.failures = 0
		return
	}
	b.failures++
	if b.state == 2 || b.failures >= b.threshold {
		b.state = 1
		b.openedAt = time.Now()
	}
}

// retryBudget is the client-wide retry token bucket: a retry spends a
// token, a success refunds a tenth, so sustained retries are bounded to
// ~10% of successful traffic once the initial bank drains.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
}

// take spends one retry token, reporting false when the budget is dry.
func (rb *retryBudget) take() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// refund banks a tenth of a token for a successful request.
func (rb *retryBudget) refund() {
	rb.mu.Lock()
	if rb.tokens += 0.1; rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.mu.Unlock()
}
