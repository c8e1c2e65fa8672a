package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzFrameDecode throws arbitrary bytes at the frame reader and both
// payload decoders: any input must produce a typed error or a decoded
// value — never a panic, and never an allocation proportional to a
// length field rather than to the input.
func FuzzFrameDecode(f *testing.F) {
	// Valid request frame.
	req := Request{ID: 7, SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA"}
	payload, _ := encodeRequest(nil, &req)
	var buf bytes.Buffer
	writeFrame(&buf, frameRequest, payload)
	f.Add(buf.Bytes())
	// Valid response frame.
	typ, rp, _ := encodeResponseFrame(nil, &Response{
		ID: 1, OK: true, Columns: []string{"a"}, Rows: [][]interface{}{{int64(1)}},
	})
	buf.Reset()
	writeFrame(&buf, typ, rp)
	f.Add(buf.Bytes())
	// Truncated frame: header promises more than arrives.
	f.Add([]byte{0, 0, 0, 100, frameRequest, 1, 2, 3})
	// Oversized length field.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameRequest})
	// Zero length.
	f.Add([]byte{0, 0, 0, 0, 0})
	// Type-byte garbage with a plausible length.
	f.Add([]byte{0, 0, 0, 2, 0x7f, 0xaa})
	// Argument-count bomb: nargs far beyond the payload.
	bomb := appendUvarint(nil, 1)     // id
	bomb = append(bomb, 0, 0)         // cmd, flags
	bomb = appendUvarint(bomb, 0)     // deadline
	bomb = appendUvarint(bomb, 0)     // handle
	bomb = appendString(bomb, "")     // sql
	bomb = appendString(bomb, "")     // class
	bomb = appendString(bomb, "")     // backend
	bomb = appendUvarint(bomb, 0)     // backends
	bomb = appendUvarint(bomb, 1<<40) // nargs: lie
	buf.Reset()
	writeFrame(&buf, frameRequest, bomb)
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, tooBig, err := readFrame(bytes.NewReader(data), 1<<16)
		if err != nil || tooBig {
			return
		}
		// Whatever the type byte, both decoders must stay panic-free.
		if typ == frameRequest {
			decodeRequest(payload)
		}
		decodeResponse(payload)
	})
}

// rawV2Conn dials the server, completes the handshake manually, and
// returns the raw connection for byte-level abuse.
func rawV2Conn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wirePreamble[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, _, err := readFrame(conn, 1<<20)
	if err != nil || typ != frameHello || len(payload) < 1 {
		t.Fatalf("handshake: typ=%#x payload=%v err=%v", typ, payload, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn
}

// TestServerSurvivesWireGarbage feeds each class of malformed input to
// a live server and checks the contract: a typed error response or a
// clean close — never a hang — and the server keeps serving well-formed
// clients afterward.
func TestServerSurvivesWireGarbage(t *testing.T) {
	s, _, addr := startLimitedServer(t, Limits{MaxFrameBytes: 4096})
	goodReq := func() []byte {
		payload, _ := encodeRequest(nil, &Request{
			ID: 1, SQL: "SELECT a_v FROM a WHERE a_id = 1", Class: "QA",
		})
		var buf bytes.Buffer
		writeFrame(&buf, frameRequest, payload)
		return buf.Bytes()
	}

	cases := []struct {
		name string
		// send abuses the connection; wantCode is the typed response
		// expected back ("" means the server should just close).
		send     func(t *testing.T, conn net.Conn)
		wantCode string
	}{
		{"oversized-frame", func(t *testing.T, conn net.Conn) {
			var hdr [5]byte
			hdr[0], hdr[1], hdr[2], hdr[3] = 0, 0, 0x20, 0x01 // 8KB > 4096 limit
			hdr[4] = frameRequest
			conn.Write(hdr[:])
			conn.Write(make([]byte, 0x2000))
		}, CodeTooLarge},
		{"undecodable-request", func(t *testing.T, conn net.Conn) {
			writeFrame(conn, frameRequest, []byte{0xff, 0xff, 0xff, 0xff})
		}, CodeBadRequest},
		{"unknown-frame-type", func(t *testing.T, conn net.Conn) {
			writeFrame(conn, 0x7f, []byte{1, 2, 3})
		}, CodeBadRequest},
		{"absurd-length-closes", func(t *testing.T, conn net.Conn) {
			conn.Write([]byte{0xff, 0xff, 0xff, 0xff, frameRequest})
		}, ""},
		{"mid-frame-disconnect", func(t *testing.T, conn net.Conn) {
			conn.Write([]byte{0, 0, 0, 50, frameRequest, 1, 2, 3})
			conn.Close()
		}, ""},
	}
	// A connection that does not open with the preamble — a garbled one,
	// or a JSON request line — gets no answer and a clean close.
	for _, tc := range []struct{ name, opening string }{
		{"bad-preamble-closes", "QxyzSELECT"},
		{"json-opening-closes", `{"cmd":"stats"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.Write([]byte(tc.opening))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("expected clean close, got %v", err)
			}
			if len(got) != 0 {
				t.Fatalf("server answered %q to an opening without the preamble", got)
			}
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := rawV2Conn(t, addr)
			tc.send(t, conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if tc.wantCode == "" {
				// The server must close (or at least never answer); a
				// clean EOF within the deadline is the pass.
				buf := make([]byte, 64)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}
			typ, payload, _, err := readFrame(conn, 1<<20)
			if err != nil || typ != frameResponse {
				t.Fatalf("typed response: typ=%#x err=%v", typ, err)
			}
			resp, err := decodeResponse(payload)
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Code != tc.wantCode {
				t.Fatalf("resp = %+v, want code %q", resp, tc.wantCode)
			}
			// The connection must still serve a well-formed request.
			if _, err := conn.Write(goodReq()); err != nil {
				t.Fatal(err)
			}
			typ, payload, _, err = readFrame(conn, 1<<20)
			if err != nil || typ != frameResponse {
				t.Fatalf("post-garbage request: typ=%#x err=%v", typ, err)
			}
			resp, err = decodeResponse(payload)
			if err != nil || !resp.OK {
				t.Fatalf("connection poisoned: resp=%+v err=%v", resp, err)
			}
		})
	}

	// After all that abuse the server still serves a fresh client.
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if resp, err := client.Query(`SELECT a_v FROM a WHERE a_id = 1`, "QA"); err != nil || !resp.OK {
		t.Fatalf("server unhealthy after garbage: resp=%+v err=%v", resp, err)
	}
	snap := s.Admission()
	if snap.Wire.BadFrames == 0 {
		t.Fatal("bad_frames metric never moved")
	}
}
