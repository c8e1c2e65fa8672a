package server

import (
	"errors"
	"sync"
	"testing"
)

// TestPreparedHandlesOverBothProtocols runs the full prepare/exec/close
// lifecycle on one connection of each protocol the client accepts. The
// binary frame protocol (v2) is the only one left, so there is one case.
func TestPreparedHandlesOverBothProtocols(t *testing.T) {
	_, _, addr := startServer(t)
	t.Run("v2", func(t *testing.T) {
		testPreparedHandleLifecycle(t, addr, ClientOptions{Protocol: 2})
	})
}

func testPreparedHandleLifecycle(t *testing.T, addr string, opts ClientOptions) {
	client, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	st, err := client.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Handle() == 0 {
		t.Fatal("prepare returned the zero handle")
	}
	if st.NumArgs() != 1 {
		t.Fatalf("NumArgs = %d, want 1", st.NumArgs())
	}
	for id := int64(0); id < 4; id++ {
		resp, err := st.Exec(id)
		if err != nil {
			t.Fatalf("exec id %d: %v", id, err)
		}
		// a_v = 2*a_id in the fixture, delivered as int64.
		if got, ok := resp.Rows[0][0].(int64); !ok || got != 2*id {
			t.Fatalf("exec id %d: a_v = %#v, want int64 %d", id, resp.Rows[0][0], 2*id)
		}
	}
	// Template runs verbatim with no args.
	if resp, err := st.Exec(); err != nil || !resp.OK {
		t.Fatalf("verbatim exec: resp=%+v err=%v", resp, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Exec after close: typed bad_handle, and the connection survives to
	// serve a plain query.
	_, err = st.Exec(int64(1))
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeBadHandle {
		t.Fatalf("exec after close: err = %v, want bad_handle", err)
	}
	if resp, err := client.Query(`SELECT a_v FROM a WHERE a_id = 1`, "QA"); err != nil || !resp.OK {
		t.Fatalf("connection dead after bad_handle: resp=%+v err=%v", resp, err)
	}
}

// TestPreparedHandleWrite checks a prepared ROWA write round-trips with
// bound arguments.
func TestPreparedHandleWrite(t *testing.T) {
	_, _, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Prepare(`UPDATE b SET b_v = 0 WHERE b_id = 0`, "UB", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	resp, err := st.Exec(int64(321), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("affected = %d, want 1", resp.Affected)
	}
	read, err := client.Query(`SELECT b_v FROM b WHERE b_id = 2`, "QB")
	if err != nil {
		t.Fatal(err)
	}
	if v := read.Rows[0][0].(int64); v != 321 {
		t.Fatalf("b_v = %d after prepared write, want 321", v)
	}
}

// TestPreparedHandleCap checks MaxStmts bounds handles per connection
// and that closing one frees a slot.
func TestPreparedHandleCap(t *testing.T) {
	_, _, addr := startLimitedServer(t, Limits{MaxStmts: 2})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s1, err := client.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Prepare(`SELECT b_v FROM b WHERE b_id = 1`, "QB", false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Prepare(`SELECT a_v FROM a WHERE a_id = 2`, "QA", false); err == nil {
		t.Fatal("third prepare should exceed MaxStmts: 2")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Prepare(`SELECT a_v FROM a WHERE a_id = 2`, "QA", false); err != nil {
		t.Fatalf("prepare after close should reuse the freed slot: %v", err)
	}
}

// TestPreparedHandlesAreConnectionScoped checks one connection cannot
// exec another's handle.
func TestPreparedHandlesAreConnectionScoped(t *testing.T) {
	_, _, addr := startServer(t)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c1.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Do(Request{Cmd: "exec", Handle: st.Handle(), Args: []interface{}{int64(1)}})
	if err == nil && resp.OK {
		t.Fatal("foreign connection executed another's handle")
	}
	if resp != nil && resp.Code != CodeBadHandle {
		t.Fatalf("code = %q, want bad_handle", resp.Code)
	}
}

// BenchmarkPreparedRoundTrip is the wire path of a prepared pk probe:
// two connections, each running exec closed-loop, so the op is one
// round trip through decode, admission, the cluster read, encode and
// flush — the server's per-request cost with the engine's kept small.
func BenchmarkPreparedRoundTrip(b *testing.B) {
	_, _, addr := startServer(b)
	const conns = 2
	stmts := make([]*Stmt, conns)
	for i := range stmts {
		client, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		if stmts[i], err = client.Prepare(`SELECT a_v FROM a WHERE a_id = 1`, "QA", false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, st := range stmts {
		n := b.N / conns
		if i == 0 {
			n += b.N % conns
		}
		wg.Add(1)
		go func(st *Stmt, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if resp, err := st.Exec(int64(j % 5)); err != nil || !resp.OK {
					b.Errorf("exec: resp=%+v err=%v", resp, err)
					return
				}
			}
		}(st, n)
	}
	wg.Wait()
}
