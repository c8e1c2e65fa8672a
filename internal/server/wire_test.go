package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestRequestCodecRoundTrip round-trips requests through the frame
// payload encoding, including an out-of-table cmd (the extension path)
// and typed arguments.
func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{ID: 7, SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"},
		{ID: 1 << 40, Cmd: "metrics"},
		{ID: 3, Cmd: "exec", Handle: 42, Args: []interface{}{
			nil, int64(-5), int64(1 << 50), 3.25, "text",
		}},
		{ID: 9, Cmd: "bogus", SQL: "x"},
		{ID: 2, SQL: "UPDATE b SET b_v = 1", Class: "UB", Write: true,
			DeadlineMS: 1, Backend: "b0", Backends: 3},
	}
	for _, want := range reqs {
		payload, err := encodeRequest(nil, &want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Cmd != want.Cmd || got.SQL != want.SQL ||
			got.Class != want.Class || got.Write != want.Write ||
			got.DeadlineMS != want.DeadlineMS || got.Handle != want.Handle || got.Backend != want.Backend ||
			got.Backends != want.Backends || len(got.Args) != len(want.Args) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for i := range want.Args {
			if got.Args[i] != want.Args[i] {
				t.Fatalf("arg %d: got %#v, want %#v", i, got.Args[i], want.Args[i])
			}
		}
	}
}

// TestResponseCodecRoundTrip round-trips hot-path responses, including
// rows with every value kind.
func TestResponseCodecRoundTrip(t *testing.T) {
	resps := []*Response{
		{ID: 1, OK: true},
		{ID: 2, OK: false, Code: CodeOverload, Error: "shed", RetryAfterMS: 75},
		{ID: 3, OK: true, Handle: 9, Backend: "b1", DurationUS: 1234, Affected: 2},
		{ID: 4, OK: true, Columns: []string{"a", "b"}, Rows: [][]interface{}{
			{int64(1), "x"}, {nil, 2.5},
		}},
		{ID: 5, OK: true, Columns: []string{}, Rows: [][]interface{}{}},
	}
	for _, want := range resps {
		typ, payload, err := encodeResponseFrame(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if typ != frameResponse {
			t.Fatalf("hot-path response got frame type %#x", typ)
		}
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.OK != want.OK || got.Code != want.Code ||
			got.Error != want.Error || got.RetryAfterMS != want.RetryAfterMS ||
			got.Backend != want.Backend || got.DurationUS != want.DurationUS ||
			got.Affected != want.Affected || got.Handle != want.Handle ||
			len(got.Rows) != len(want.Rows) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for i, row := range want.Rows {
			for j := range row {
				if got.Rows[i][j] != row[j] {
					t.Fatalf("row %d col %d: got %#v, want %#v", i, j, got.Rows[i][j], row[j])
				}
			}
		}
	}
}

// TestAdminResponseRidesJSONFrame checks responses with admin payloads
// take the JSON frame type rather than the binary hot path.
func TestAdminResponseRidesJSONFrame(t *testing.T) {
	r := &Response{ID: 1, OK: true, Tables: [][]string{{"a", "b"}}}
	typ, payload, err := encodeResponseFrame(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameRespJSON {
		t.Fatalf("admin response got frame type %#x, want frameRespJSON", typ)
	}
	if !bytes.Contains(payload, []byte(`"tables"`)) {
		t.Fatalf("JSON frame payload missing tables: %s", payload)
	}
}

// TestReadFrameOversizedResyncs checks an over-limit frame is reported
// as tooBig with the stream left exactly at the next frame.
func TestReadFrameOversizedResyncs(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRequest, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameRequest, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	typ, _, tooBig, err := readFrame(&buf, 50)
	if err != nil || !tooBig || typ != frameRequest {
		t.Fatalf("oversized frame: typ=%#x tooBig=%v err=%v", typ, tooBig, err)
	}
	typ, payload, tooBig, err := readFrame(&buf, 50)
	if err != nil || tooBig || typ != frameRequest || string(payload) != "ok" {
		t.Fatalf("after resync: typ=%#x payload=%q tooBig=%v err=%v", typ, payload, tooBig, err)
	}
}

// TestReadFrameGarbage pins the failure modes that must never panic or
// stall: truncated payloads, absurd lengths, and zero lengths.
func TestReadFrameGarbage(t *testing.T) {
	t.Run("truncated-payload", func(t *testing.T) {
		var buf bytes.Buffer
		writeFrame(&buf, frameRequest, []byte("hello"))
		trunc := buf.Bytes()[:buf.Len()-3]
		_, _, _, err := readFrame(bytes.NewReader(trunc), 1<<20)
		if !errors.Is(err, errFrameTruncated) {
			t.Fatalf("err = %v, want errFrameTruncated", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		_, _, _, err := readFrame(bytes.NewReader([]byte{0, 0}), 1<<20)
		if err == nil {
			t.Fatal("short header must error")
		}
	})
	t.Run("zero-length", func(t *testing.T) {
		_, _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0, 0}), 1<<20)
		if err == nil {
			t.Fatal("length 0 cannot cover the type byte")
		}
	})
	t.Run("absurd-length", func(t *testing.T) {
		_, _, _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1}), 1<<20)
		if err == nil {
			t.Fatal("length past absMaxFrame must error, not discard 4GiB")
		}
	})
}

// TestQueueDepthDefaults pins the withDefaults interaction fixed in
// this PR: an unlimited MaxInflight must not overflow the 2x QueueDepth
// default into a negative cap that sheds every queued request.
func TestQueueDepthDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Limits
		want int
	}{
		{"default", Limits{}, 512},
		{"explicit", Limits{MaxInflight: 100}, 200},
		{"negative-queue", Limits{QueueDepth: -1}, unlimited},
		{"unlimited-inflight", Limits{MaxInflight: -1}, unlimited},
		{"unlimited-inflight-explicit-queue", Limits{MaxInflight: -1, QueueDepth: 7}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults().QueueDepth
			if got != tc.want {
				t.Fatalf("QueueDepth = %d, want %d", got, tc.want)
			}
			if got < 0 {
				t.Fatalf("QueueDepth %d is negative: every queued request would shed", got)
			}
		})
	}
}

// TestRetryAfterHintScaling pins retryAfterMS across queue-cap configs,
// including the degenerate zero and unlimited caps the scaling must not
// divide by or overflow on.
func TestRetryAfterHintScaling(t *testing.T) {
	mk := func(cap int64, base time.Duration) *admission {
		return &admission{queueCap: cap, retryBase: base}
	}
	if got := mk(0, 50*time.Millisecond).retryAfterMS(10); got != 50 {
		t.Fatalf("zero cap: hint = %d, want flat base 50", got)
	}
	if got := mk(int64(unlimited), 50*time.Millisecond).retryAfterMS(1 << 40); got != 50 {
		t.Fatalf("unlimited cap: hint = %d, want flat base 50", got)
	}
	if got := mk(-3, 50*time.Millisecond).retryAfterMS(10); got != 50 {
		t.Fatalf("negative cap: hint = %d, want flat base 50", got)
	}
	if got := mk(100, 50*time.Millisecond).retryAfterMS(100); got != 50 {
		t.Fatalf("at cap: hint = %d, want base 50", got)
	}
	if got := mk(100, 50*time.Millisecond).retryAfterMS(150); got != 75 {
		t.Fatalf("half over: hint = %d, want 75", got)
	}
	if got := mk(100, 50*time.Millisecond).retryAfterMS(1 << 40); got != 100 {
		t.Fatalf("deep overfill: hint = %d, want 2x cap 100", got)
	}
	if got := mk(100, 0).retryAfterMS(50); got != 1 {
		t.Fatalf("zero base: hint = %d, want floor 1", got)
	}
}

// fakeV2Server answers the preamble with a hello frame over one side of
// a net.Pipe and hands each request frame to the test. NewClient reads
// that hello before it returns, as it does from the real server.
func fakeV2Server(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	go func() {
		var pre [4]byte
		if _, err := io.ReadFull(srvConn, pre[:]); err != nil || pre != wirePreamble {
			srvConn.Close()
			return
		}
		writeFrame(srvConn, frameHello, []byte{wireVersion})
	}()
	c := NewClient(cliConn, ClientOptions{MaxRetries: -1, BreakerThreshold: -1})
	t.Cleanup(func() { c.Close(); srvConn.Close() })
	return c, srvConn
}

// readRequestFrame reads and decodes one request frame off the fake
// server's side of the pipe.
func readRequestFrame(t *testing.T, conn net.Conn) Request {
	t.Helper()
	typ, payload, _, err := readFrame(conn, 1<<20)
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	if typ != frameRequest {
		t.Fatalf("frame type %#x, want frameRequest", typ)
	}
	req, err := decodeRequest(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return req
}

func respondOK(t *testing.T, conn net.Conn, id uint64) {
	t.Helper()
	typ, payload, err := encodeResponseFrame(nil, &Response{ID: id, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
}

// TestDoContextSubMillisecondDeadline checks a context with less than
// 1ms remaining serializes deadline_ms as 1 — never the truncated 0
// that a server reads as "no deadline".
func TestDoContextSubMillisecondDeadline(t *testing.T) {
	c, srv := fakeV2Server(t)
	got := make(chan Request, 1)
	go func() {
		req := readRequestFrame(t, srv)
		got <- req
		respondOK(t, srv, req.ID)
	}()
	// The round trip ignores the context once the request is serialized,
	// so DeadlineExceeded means the 500us budget ran out before DoContext
	// read it: the request was rejected locally and nothing went on the
	// wire (TestDoContextExpiredDeadline). Try again until one is sent.
	sent := false
	for attempt := 0; attempt < 1000 && !sent; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		resp, err := c.DoContext(ctx, Request{SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"})
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
		case err != nil:
			t.Fatalf("err = %v", err)
		case !resp.OK:
			t.Fatalf("resp = %+v", resp)
		default:
			sent = true
		}
	}
	if !sent {
		t.Fatal("every 500us budget expired before DoContext serialized the request")
	}
	select {
	case req := <-got:
		if req.DeadlineMS != 1 {
			t.Fatalf("deadline_ms = %d on the wire, want 1 (0 means no deadline)", req.DeadlineMS)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request never reached the server")
	}
}

// TestDoContextExpiredDeadline checks an already-expired context is
// rejected locally: context.DeadlineExceeded, zero bytes on the wire.
func TestDoContextExpiredDeadline(t *testing.T) {
	c, srv := fakeV2Server(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.DoContext(ctx, Request{SQL: "SELECT 1"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var b [1]byte
	if n, err := srv.Read(b[:]); err == nil || n > 0 {
		t.Fatalf("client wrote %d bytes for an expired request", n)
	}
}

// TestDoContextExplicitDeadlineWins checks a request that already
// carries deadline_ms is not overwritten by the context deadline.
func TestDoContextExplicitDeadlineWins(t *testing.T) {
	c, srv := fakeV2Server(t)
	got := make(chan Request, 1)
	go func() {
		req := readRequestFrame(t, srv)
		got <- req
		respondOK(t, srv, req.ID)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.DoContext(ctx, Request{SQL: "SELECT 1", DeadlineMS: 123}); err != nil {
		t.Fatal(err)
	}
	req := <-got
	if req.DeadlineMS != 123 {
		t.Fatalf("deadline_ms = %d, want the explicit 123", req.DeadlineMS)
	}
}
