package server

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
)

// startLimitedServer is startServer with explicit edge limits: the same
// 2-backend cluster (tables a+b / b) behind ServeConfig.
func startLimitedServer(t testing.TB, limits Limits) (*Server, *cluster.Cluster, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, c := serveLimited(t, ln, limits)
	return srv, c, ln.Addr().String()
}

// serveLimited is startLimitedServer on a given listener.
func serveLimited(t testing.TB, ln net.Listener, limits Limits) (*Server, *cluster.Cluster) {
	t.Helper()
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.AddFragment(core.Fragment{ID: "b", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 0.4, "a"))
	cl.MustAddClass(core.NewClass("QB", core.Read, 0.3, "b"))
	cl.MustAddClass(core.NewClass("UB", core.Update, 0.3, "b"))
	alloc := core.NewAllocation(cl, core.UniformBackends(2))
	alloc.AddFragments(0, "a", "b")
	alloc.SetAssign(0, "QA", 0.4)
	alloc.SetAssign(0, "UB", 0.3)
	alloc.AddFragments(1, "b")
	alloc.SetAssign(1, "QB", 0.3)
	alloc.SetAssign(1, "UB", 0.3)
	if err := alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	load := func(e *sqlmini.Engine, tables []string) error {
		for _, tb := range tables {
			if err := e.CreateTable(tb, []sqlmini.Column{
				{Name: tb + "_id", Type: sqlmini.KindInt, PrimaryKey: true},
				{Name: tb + "_v", Type: sqlmini.KindInt},
			}); err != nil {
				return err
			}
			rows := make([]sqlmini.Row, 5)
			for i := range rows {
				rows[i] = sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i * 2))}
			}
			if err := e.BulkInsert(tb, rows); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, load); err != nil {
		t.Fatal(err)
	}
	srv := ServeConfig(ln, c, Config{Limits: limits})
	t.Cleanup(func() { srv.Close() })
	return srv, c
}

// pipeListener accepts the server ends of in-memory net.Pipe
// connections: a write on one blocks until the peer reads it, so a test
// decides when the server's writes complete.
type pipeListener struct {
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// dial hands the listener a server end and returns the client end.
func (l *pipeListener) dial() net.Conn {
	cli, srv := net.Pipe()
	l.conns <- srv
	return cli
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// rawClient speaks frames by hand on one handshaken connection,
// bypassing the Client's id management — for tests that need explicit
// ids and raw frames.
type rawClient struct{ conn net.Conn }

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	return &rawClient{conn: rawV2Conn(t, addr)}
}

func (rc *rawClient) send(t *testing.T, req Request) {
	t.Helper()
	payload, err := encodeRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(rc.conn, frameRequest, payload); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawClient) readResponse(t *testing.T) *Response {
	t.Helper()
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := readFrame(rc.conn, 1<<20)
	if err != nil || typ != frameResponse {
		t.Fatalf("response frame: typ=%#x err=%v", typ, err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOverloadEveryRequestAnswered is the chaos contract: a swarm at
// several times admission capacity, every request resolving as exactly
// one of success, typed shed, or typed drain — zero silent drops, and
// every shed carrying a retry-after hint.
func TestOverloadEveryRequestAnswered(t *testing.T) {
	const maxInflight, queueDepth = 2, 2
	const conns, workers, perWorker = 8, 3, 30
	if conns*workers < 4*(maxInflight+queueDepth) {
		t.Fatalf("swarm of %d offers less than 4x the admission capacity %d", conns*workers, maxInflight+queueDepth)
	}
	_, c, addr := startLimitedServer(t, Limits{
		MaxInflight: maxInflight, QueueDepth: queueDepth, ConnInflight: 4, RetryAfter: 5 * time.Millisecond,
	})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: time.Millisecond})
	c.Backend(1).SetFault(&sqlmini.Fault{Latency: time.Millisecond})

	var (
		mu                           sync.Mutex
		ok, shed, untypedShed, other int
	)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		client, err := DialOptions(addr, ClientOptions{
			MaxRetries: -1, BreakerThreshold: -1, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cli *Client) {
				defer wg.Done()
				for n := 0; n < perWorker; n++ {
					resp, err := cli.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
					mu.Lock()
					switch {
					case err == nil && resp.OK:
						ok++
					case resp != nil && resp.Code == CodeOverload:
						shed++
						if resp.RetryAfterMS <= 0 {
							untypedShed++
						}
					default:
						other++
					}
					mu.Unlock()
				}
			}(client)
		}
	}
	wg.Wait()
	total := ok + shed + other
	if want := conns * workers * perWorker; total != want {
		t.Fatalf("answered %d of %d requests", total, want)
	}
	if other != 0 {
		t.Fatalf("%d requests resolved as neither success nor typed shed", other)
	}
	if untypedShed != 0 {
		t.Fatalf("%d of %d sheds lacked a retry-after hint", untypedShed, shed)
	}
	if ok == 0 {
		t.Fatal("nothing admitted under overload")
	}
	t.Logf("chaos: %d ok, %d shed (all typed)", ok, shed)
}

// TestCloseDrainsInflight exercises graceful drain: a slow admitted
// request finishes successfully across Close, a request arriving during
// the drain window gets the typed draining error, and the server leaks
// no goroutines.
func TestCloseDrainsInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, c, addr := startLimitedServer(t, Limits{DrainTimeout: 5 * time.Second, ConnInflight: 8})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 300 * time.Millisecond})

	client, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		resp *Response
		err  error
	}
	slow := make(chan outcome, 1)
	go func() {
		resp, err := client.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
		slow <- outcome{resp, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request get admitted

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(50 * time.Millisecond) // let Close flip the draining flag

	// A new request during the drain window: typed rejection, not a
	// dropped connection.
	resp, err := client.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
	var dr *DrainingError
	if !errors.As(err, &dr) {
		t.Fatalf("drain-window request: resp=%+v err=%v, want DrainingError", resp, err)
	}
	if resp == nil || resp.Code != CodeDraining {
		t.Fatalf("drain-window response = %+v, want code %q", resp, CodeDraining)
	}

	// The admitted request still completes successfully.
	got := <-slow
	if got.err != nil || !got.resp.OK {
		t.Fatalf("inflight request across Close: resp=%+v err=%v", got.resp, got.err)
	}
	if err := <-closed; err != nil {
		t.Logf("Close: %v (listener close error is acceptable)", err)
	}
	client.Close()
	c.Close()

	// Goroutines must return to the baseline (give the runtime a moment
	// to reap network pollers).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d after drain\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOversizedRequestResync sends frames beyond MaxFrameBytes — both
// one that fits the server's 64 KiB read buffer and one that overflows
// it — and checks the connection answers each with the typed too-large
// error, then keeps serving.
func TestOversizedRequestResync(t *testing.T) {
	srv, _, addr := startLimitedServer(t, Limits{MaxFrameBytes: 1024})
	rc := dialRaw(t, addr)

	// Oversized but within the 64 KiB reader buffer.
	rc.send(t, Request{ID: 1, SQL: strings.Repeat("x", 2048)})
	if resp := rc.readResponse(t); resp.Code != CodeTooLarge {
		t.Fatalf("small-oversize response = %+v, want code %q", resp, CodeTooLarge)
	}
	// Oversized beyond the reader buffer: the discard streams through it.
	rc.send(t, Request{ID: 2, SQL: strings.Repeat("y", 128<<10)})
	if resp := rc.readResponse(t); resp.Code != CodeTooLarge {
		t.Fatalf("big-oversize response = %+v, want code %q", resp, CodeTooLarge)
	}
	// The connection is resynced: a normal request still works.
	rc.send(t, Request{ID: 3, SQL: "SELECT a_v FROM a WHERE a_id = 2", Class: "QA"})
	resp := rc.readResponse(t)
	if !resp.OK || resp.ID != 3 {
		t.Fatalf("post-resync response = %+v", resp)
	}
	if n := srv.Admission().TooLarge; n != 2 {
		t.Fatalf("too_large counter = %d, want 2", n)
	}
}

// TestDeadlinePropagation checks that deadline_ms bounds a request end
// to end: a deadline that expires while the request waits in the
// admission queue yields the typed deadline error. A budget too large
// for a time.Duration is no deadline at all, never one wrapped around
// to under a millisecond.
func TestDeadlinePropagation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deadlineMS int64
		expires    bool
	}{
		{"deadline_ms", 50, true},
		// ≈585 years: multiplied out to nanoseconds it wraps to 448µs.
		{"deadline_ms_beyond_duration", 18446744073710, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c, addr := startLimitedServer(t, Limits{
				MaxInflight: 1, QueueDepth: 4, ConnInflight: 8,
			})
			c.Backend(0).SetFault(&sqlmini.Fault{Latency: 400 * time.Millisecond})

			client, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			hog := make(chan struct{})
			go func() {
				defer close(hog)
				client.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
			}()
			time.Sleep(50 * time.Millisecond) // hog owns the only slot

			resp, err := client.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA", DeadlineMS: tc.deadlineMS})
			if !tc.expires {
				if err != nil || !resp.OK {
					t.Fatalf("resp=%+v err=%v, want success (no deadline)", resp, err)
				}
				<-hog
				return
			}
			if err == nil || resp == nil || resp.Code != CodeDeadline {
				t.Fatalf("resp=%+v err=%v, want code %q", resp, err, CodeDeadline)
			}
			var we *WireError
			if !errors.As(err, &we) || we.Code != CodeDeadline {
				t.Fatalf("err = %v (%T), want WireError{deadline}", err, err)
			}
			// The rejection must arrive while the hog still holds the
			// slot: the deadline fired in the queue, not after execution.
			select {
			case <-hog:
				t.Fatal("deadline rejection arrived after the hog finished")
			default:
			}
			<-hog
		})
	}
}

// TestPipelinedOutOfOrder drives one raw connection with two ids: a
// slow request (QA, backend B1 has an injected latency) then a fast one
// (QB on B2). The fast response must arrive first, proving requests
// complete out of order, each written by the goroutine that served it.
func TestPipelinedOutOfOrder(t *testing.T) {
	_, c, addr := startLimitedServer(t, Limits{ConnInflight: 8})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 400 * time.Millisecond})

	rc := dialRaw(t, addr)
	rc.send(t, Request{ID: 1, SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"})
	time.Sleep(50 * time.Millisecond) // let the slow request occupy B1
	rc.send(t, Request{ID: 2, SQL: "SELECT b_v FROM b WHERE b_id = 1", Class: "QB"})

	first, second := rc.readResponse(t), rc.readResponse(t)
	if first.ID != 2 || second.ID != 1 {
		t.Fatalf("response order = %d, %d; want 2 (fast) before 1 (slow)", first.ID, second.ID)
	}
	if !first.OK || !second.OK {
		t.Fatalf("responses failed: %+v / %+v", first, second)
	}
	if first.Backend != "B2" || second.Backend != "B1" {
		t.Fatalf("backends = %s, %s; want B2, B1", first.Backend, second.Backend)
	}
}

// TestPipelinedGoroutinesExitWithConnection saturates one connection
// at ConnInflight with pipelined slow requests, so the connection grows
// its full set of serving goroutines, and checks that they all exit —
// idle ones included — once the client closes.
func TestPipelinedGoroutinesExitWithConnection(t *testing.T) {
	const inflight = 4
	_, c, addr := startLimitedServer(t, Limits{ConnInflight: inflight})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 20 * time.Millisecond})
	before := runtime.NumGoroutine()

	client, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3*inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := client.Query(`SELECT a_v FROM a WHERE a_id = 1`, "QA"); err != nil || !resp.OK {
				t.Errorf("pipelined query: resp=%+v err=%v", resp, err)
			}
		}()
	}
	wg.Wait()
	// The connection's reader plus its serving goroutines, now idle.
	if n := runtime.NumGoroutine(); n < before+1+inflight {
		t.Fatalf("goroutines %d, want at least baseline %d + reader + %d serving", n, before, inflight)
	}
	client.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > baseline %d after the client closed\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicKeepsConnectionServing checks a serving goroutine survives a
// panicking request: with one inflight slot the connection has a single
// serving goroutine, so the requests after the panic are answered by
// the goroutine that recovered from it.
func TestPanicKeepsConnectionServing(t *testing.T) {
	srv, _, addr := startLimitedServer(t, Limits{ConnInflight: 1})
	srv.cfg.Planner = func(int) (*core.Allocation, error) { panic("planner exploded") }
	client, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Do(Request{Cmd: "migrate"})
	if err != nil || resp.OK || !strings.Contains(resp.Error, "planner exploded") {
		t.Fatalf("panicking request: resp=%+v err=%v, want an internal-error response", resp, err)
	}
	for i := 0; i < 3; i++ {
		if resp, err := client.Query(`SELECT a_v FROM a WHERE a_id = 2`, "QA"); err != nil || !resp.OK {
			t.Fatalf("request %d after the panic: resp=%+v err=%v", i, resp, err)
		}
	}
}

// TestPipelinedBurstCoalescesFlushes pipelines a burst of requests
// while a slow backend holds the only execution slot, over an in-memory
// pipe the test does not read yet: the requests past the queue are shed
// at once, the first response's flush blocks on the pipe, and the other
// serving goroutines queue behind it. The burst must leave in fewer
// flushes than frames — writers queued behind one another share a
// flush, the last one queued flushing for all.
func TestPipelinedBurstCoalescesFlushes(t *testing.T) {
	const burst, admitted = 32, 2 // one executing, one queued
	ln := newPipeListener()
	srv, c := serveLimited(t, ln, Limits{
		MaxInflight: 1, QueueDepth: 1, ConnInflight: burst, RetryAfter: time.Millisecond,
	})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 50 * time.Millisecond})
	conn := ln.dial()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wirePreamble[:]); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(conn, 1<<20); err != nil || typ != frameHello {
		t.Fatalf("handshake: typ=%#x err=%v", typ, err)
	}
	before := srv.Admission()

	// A pipe write blocks until the peer reads, so send from a goroutine
	// while the responses stay unread.
	sent := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		for i := 1; i <= burst; i++ {
			payload, err := encodeRequest(nil, &Request{ID: uint64(i), SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"})
			if err != nil {
				sent <- err
				return
			}
			writeFrame(&buf, frameRequest, payload)
		}
		_, err := conn.Write(buf.Bytes())
		sent <- err
	}()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for srv.Admission().Shed-before.Shed < burst-admitted {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the shed goroutines queue to write

	seen := make(map[uint64]bool)
	for i := 0; i < burst; i++ {
		typ, payload, _, err := readFrame(conn, 1<<20)
		if err != nil || typ != frameResponse {
			t.Fatalf("response frame: typ=%#x err=%v", typ, err)
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK && resp.Code != CodeOverload {
			t.Fatalf("response %+v, want success or typed shed", resp)
		}
		seen[resp.ID] = true
	}
	if len(seen) != burst {
		t.Fatalf("%d distinct ids answered, want %d", len(seen), burst)
	}
	after := srv.Admission().Wire
	frames, flushes := after.FramesOut-before.Wire.FramesOut, after.Flushes-before.Wire.Flushes
	if frames != burst || flushes >= frames {
		t.Fatalf("burst wrote %d frames in %d flushes, want %d frames in fewer flushes", frames, flushes, burst)
	}
	t.Logf("burst: %d frames, %d flushes", frames, flushes)
}

// TestConnLimitRejectsTyped checks a connection beyond MaxConns gets
// the hello frame and one typed overload response instead of a silent
// close.
func TestConnLimitRejectsTyped(t *testing.T) {
	_, _, addr := startLimitedServer(t, Limits{MaxConns: 1})
	keep := dialRaw(t, addr)
	keep.send(t, Request{ID: 1, SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"})
	if resp := keep.readResponse(t); !resp.OK {
		t.Fatalf("first connection should serve: %+v", resp)
	}
	over := dialRaw(t, addr) // completes the handshake: hello arrived
	resp := over.readResponse(t)
	if resp.Code != CodeOverload || resp.RetryAfterMS <= 0 {
		t.Fatalf("over-limit connection response = %+v, want typed overload with retry-after", resp)
	}
}

// BenchmarkServerOverload measures round-trip cost through the full
// wire path (admission, pipelined writer) at a modest concurrency.
func BenchmarkServerOverload(b *testing.B) {
	cl := core.NewClassification()
	cl.AddFragment(core.Fragment{ID: "a", Size: 1})
	cl.MustAddClass(core.NewClass("QA", core.Read, 1, "a"))
	alloc := core.NewAllocation(cl, core.UniformBackends(1))
	alloc.AddFragments(0, "a")
	alloc.SetAssign(0, "QA", 1)
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(1)})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	load := func(e *sqlmini.Engine, tables []string) error {
		for _, tb := range tables {
			if err := e.CreateTable(tb, []sqlmini.Column{
				{Name: tb + "_id", Type: sqlmini.KindInt, PrimaryKey: true},
				{Name: tb + "_v", Type: sqlmini.KindInt},
			}); err != nil {
				return err
			}
			if err := e.BulkInsert(tb, []sqlmini.Row{{sqlmini.Int(1), sqlmini.Int(2)}}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Install(alloc, load); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ServeConfig(ln, c, Config{})
	defer srv.Close()
	client, err := DialOptions(ln.Addr().String(), ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
			if err != nil || !resp.OK {
				b.Fatalf("resp=%+v err=%v", resp, err)
			}
		}
	})
}
