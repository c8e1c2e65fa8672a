package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"qcpa/internal/runtime"
	"qcpa/internal/sqlmini"
)

func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 2, cooldown: 30 * time.Millisecond}
	if !b.allow() {
		t.Fatal("fresh breaker should be closed")
	}
	b.record(false)
	if !b.allow() {
		t.Fatal("one failure below threshold should keep the circuit closed")
	}
	b.record(false) // second failure: opens
	if b.allow() {
		t.Fatal("breaker should be open at the failure threshold")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed: half-open should admit one probe")
	}
	if b.allow() {
		t.Fatal("half-open must admit exactly one probe")
	}
	b.record(false) // failed probe: re-opens immediately
	if b.allow() {
		t.Fatal("failed probe should re-open the circuit")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second cooldown: another probe")
	}
	b.record(true) // successful probe: closes
	if !b.allow() || !b.allow() {
		t.Fatal("success should close the circuit for everyone")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := breaker{threshold: -1}
	for i := 0; i < 100; i++ {
		b.record(false)
	}
	if !b.allow() {
		t.Fatal("threshold -1 must disable the breaker")
	}
}

func TestRetryBudget(t *testing.T) {
	rb := retryBudget{tokens: 2, max: 2}
	if !rb.take() || !rb.take() {
		t.Fatal("a full budget should grant its tokens")
	}
	if rb.take() {
		t.Fatal("an empty budget must refuse")
	}
	for i := 0; i < 12; i++ {
		rb.refund()
	}
	if !rb.take() {
		t.Fatal("refunds should re-enable retries")
	}
	for i := 0; i < 100; i++ {
		rb.refund()
	}
	rb.mu.Lock()
	tokens := rb.tokens
	rb.mu.Unlock()
	if tokens > 2 {
		t.Fatalf("budget %v exceeds its cap 2", tokens)
	}
}

// TestClientRejectsUnsupportedProtocol checks the controller's one
// protocol is the only one a client accepts: Protocol 1 fails at
// DialOptions, and a NewClient with it sends nothing and fails every
// call; 0 and 2 both speak it.
func TestClientRejectsUnsupportedProtocol(t *testing.T) {
	_, _, addr := startServer(t)
	if c, err := DialOptions(addr, ClientOptions{Protocol: 1}); err == nil {
		c.Close()
		t.Fatal("DialOptions accepted Protocol 1")
	}
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	c := NewClient(cliConn, ClientOptions{Protocol: 1})
	defer c.Close()
	if _, err := c.Do(Request{Cmd: "stats"}); err == nil {
		t.Fatal("a Protocol 1 client answered a call")
	}
	srvConn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var b [1]byte
	if n, err := srvConn.Read(b[:]); err == nil || n > 0 {
		t.Fatalf("a Protocol 1 client wrote %d bytes", n)
	}
	for _, proto := range []int{0, 2} {
		c, err := DialOptions(addr, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatalf("Protocol %d: %v", proto, err)
		}
		resp, err := c.Query(`SELECT a_v FROM a WHERE a_id = 1`, "QA")
		c.Close()
		if err != nil || !resp.OK {
			t.Fatalf("Protocol %d query: resp=%+v err=%v", proto, resp, err)
		}
	}
}

// TestDialFailsWithoutHello checks the client handshakes at dial: a
// peer that answers the preamble with anything but the hello frame —
// bytes that are no frame at all, or a frame of another type — fails
// DialOptions itself, not the first call.
func TestDialFailsWithoutHello(t *testing.T) {
	var frame bytes.Buffer
	writeFrame(&frame, frameResponse, nil)
	for _, tc := range []struct {
		name   string
		answer []byte
	}{
		{"http", []byte("HTTP/1.1 400 Bad Request\r\n\r\n")},
		{"response-frame", frame.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var pre [4]byte
				if _, err := io.ReadFull(conn, pre[:]); err == nil {
					conn.Write(tc.answer)
				}
				// Hold the connection open: the client must fail on what
				// it read, not on a close.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				conn.Read(pre[:])
			}()
			c, err := DialOptions(ln.Addr().String(), ClientOptions{})
			if err == nil {
				c.Close()
				t.Fatal("DialOptions accepted a peer that did not answer hello")
			}
			if !strings.Contains(err.Error(), "handshake") {
				t.Fatalf("err = %v, want a handshake error", err)
			}
		})
	}
}

func TestRetryDelayHonorsHintAndCap(t *testing.T) {
	client := &Client{opts: ClientOptions{}.withDefaults()}
	client.rng = runtime.NewLockedRand(1)
	d := client.retryDelay(0, 40)
	if d < 40*time.Millisecond {
		t.Fatalf("delay %v below the server's 40ms hint", d)
	}
	if max := client.opts.Backoff.Max; client.retryDelay(30, 10_000) > max {
		t.Fatalf("delay exceeds the %v cap", max)
	}
}

// TestClientRetriesOverloadUntilSuccess hogs the single execution slot
// so the first attempts shed, and checks a retrying client eventually
// lands the request once capacity frees up.
func TestClientRetriesOverloadUntilSuccess(t *testing.T) {
	_, c, addr := startLimitedServer(t, Limits{
		MaxInflight: 1, QueueDepth: 1, ConnInflight: 8, RetryAfter: 5 * time.Millisecond,
	})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 150 * time.Millisecond})

	hogger, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hogger.Close()
	// Two slow requests: one executing, one filling the queue — every
	// further request sheds until they finish (~300ms).
	var hogs sync.WaitGroup
	for i := 0; i < 2; i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			hogger.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
		}()
	}
	time.Sleep(50 * time.Millisecond)

	retrier, err := DialOptions(addr, ClientOptions{
		MaxRetries: 100, RetryBudget: 200, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	resp, err := retrier.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
	if err != nil || !resp.OK {
		t.Fatalf("retrying client: resp=%+v err=%v", resp, err)
	}
	hogs.Wait()
}

// TestClientCircuitOpensAndRecovers drives a no-retry client into
// repeated sheds until its breaker opens (ErrCircuitOpen without
// touching the wire), then checks the half-open probe closes it again
// once the server has capacity.
func TestClientCircuitOpensAndRecovers(t *testing.T) {
	_, c, addr := startLimitedServer(t, Limits{
		MaxInflight: 1, QueueDepth: 1, ConnInflight: 8, RetryAfter: time.Millisecond,
	})
	c.Backend(0).SetFault(&sqlmini.Fault{Latency: 300 * time.Millisecond})

	hogger, err := DialOptions(addr, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hogger.Close()
	var hogs sync.WaitGroup
	for i := 0; i < 2; i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			hogger.Do(Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"})
		}()
	}
	time.Sleep(50 * time.Millisecond)

	client, err := DialOptions(addr, ClientOptions{
		MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	req := Request{SQL: `SELECT a_v FROM a WHERE a_id = 1`, Class: "QA"}
	for i := 0; i < 2; i++ {
		resp, err := client.Do(req)
		var ov *OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("attempt %d: resp=%+v err=%v, want OverloadError", i, resp, err)
		}
	}
	if _, err := client.Do(req); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after %d sheds err = %v, want ErrCircuitOpen", 2, err)
	}

	// Once the hogs drain and the cooldown passes, the half-open probe
	// succeeds and the circuit closes.
	hogs.Wait()
	time.Sleep(60 * time.Millisecond)
	resp, err := client.Do(req)
	if err != nil || !resp.OK {
		t.Fatalf("post-recovery probe: resp=%+v err=%v", resp, err)
	}
	resp, err = client.Do(req)
	if err != nil || !resp.OK {
		t.Fatalf("circuit should be closed again: resp=%+v err=%v", resp, err)
	}
}

// TestClientPipelinesConcurrentCalls checks that N goroutines sharing
// one client each get their own answer back (the id demux).
func TestClientPipelinesConcurrentCalls(t *testing.T) {
	_, _, addr := startLimitedServer(t, Limits{ConnInflight: 16})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				id := (n + j) % 5
				resp, err := client.Query(
					`SELECT a_v FROM a WHERE a_id = `+string(rune('0'+id)), "QA")
				if err != nil {
					t.Errorf("worker %d: %v", n, err)
					return
				}
				if v := resp.Rows[0][0].(int64); v != int64(2*id) {
					t.Errorf("worker %d: a_v = %v for a_id %d (crossed responses?)", n, v, id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
