// The wire protocol (DESIGN.md §12): length-prefixed binary frames.
//
// Handshake: a client opens with the 4-byte preamble "QCP\x02"; the
// server answers a hello frame carrying its version, after which both
// sides speak frames. A connection that opens with anything else is
// closed unanswered.
//
// Frame grammar (all integers big-endian, varints unsigned LEB128):
//
//	frame    := len(u32) type(u8) payload(len-1 bytes)
//	hello    := 0x01 version(u8)
//	request  := 0x10 id(uvarint) cmd(u8) flags(u8) deadline_ms(uvarint)
//	            handle(uvarint) sql(str) class(str)
//	            backend(str) backends(uvarint) nargs(uvarint) value*
//	response := 0x20 id(uvarint) flags(u8) code(str) error(str)
//	            retry_after_ms(uvarint) backend(str) duration_us(uvarint)
//	            affected(uvarint) handle(uvarint)
//	            [ncols(uvarint) str* nrows(uvarint) row*]   when flags&2
//	jsonresp := 0x21 json-encoded Response                  (admin payloads)
//	str      := len(uvarint) bytes
//	value    := 0x00 | 0x01 zigzag(uvarint) | 0x02 ieee754(8B) | 0x03 str
//	row      := nvals(uvarint) value*
//
// The frame length covers the type byte and is bounded by
// Limits.MaxFrameBytes: an oversized frame is answered with the typed
// too_large error and its payload discarded — the length prefix makes
// resync exact. A frame
// that fails to decode (or carries an unknown type) is answered with
// bad_request and the connection lives on; only a malformed length
// (beyond the absolute cap) or a truncated read closes it.

package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"qcpa/internal/sqlmini"
)

// wirePreamble opens every connection.
var wirePreamble = [4]byte{'Q', 'C', 'P', 0x02}

// wireVersion is the protocol version carried in the hello frame.
const wireVersion = 2

// Frame types.
const (
	frameHello    = 0x01 // server -> client: version(u8)
	frameRequest  = 0x10 // client -> server: encoded Request
	frameResponse = 0x20 // server -> client: binary Response (hot path)
	frameRespJSON = 0x21 // server -> client: JSON Response (admin payloads)
)

// absMaxFrame caps a frame length regardless of configuration: a
// length beyond it cannot be a live client (it is garbage or an
// attack), so the connection closes instead of discarding gigabytes.
const absMaxFrame = 1 << 30

// Request cmd strings <-> wire bytes. A cmd outside the table encodes
// as cmdExtension with the string riding at the end of the payload, so
// the server can answer its usual "unknown cmd" (and future commands
// stay expressible against older tables); an unknown cmd BYTE decodes
// to an error (answered as bad_request).
var cmdToByte = map[string]byte{
	"":          0,
	"history":   1,
	"stats":     2,
	"metrics":   3,
	"health":    4,
	"fail":      5,
	"recover":   6,
	"migrate":   7,
	"resize":    8,
	"migration": 9,
	"prepare":   10,
	"exec":      11,
	"close":     12,
}

// cmdExtension marks a cmd carried as a trailing string instead of a
// table byte.
const cmdExtension = 0xff

var byteToCmd = func() map[byte]string {
	m := make(map[byte]string, len(cmdToByte))
	for s, b := range cmdToByte {
		m[b] = s
	}
	return m
}()

var errFrameTruncated = errors.New("wire: truncated frame payload")

// readFrame reads one length-prefixed frame. tooBig reports a frame
// whose length exceeds max: the payload has been discarded and the
// connection is in sync at the next frame (err is non-nil only when the
// discard itself failed). A length beyond absMaxFrame returns an error
// immediately — the stream is garbage, not a large request.
func readFrame(r io.Reader, max int) (typ byte, payload []byte, tooBig bool, err error) {
	var buf []byte
	return readFrameBuf(r, max, &buf)
}

// readFrameBuf is readFrame with a caller-owned scratch buffer, grown
// as needed and reused across frames: the hot read loops call this so
// steady-state traffic allocates nothing per frame. The returned
// payload aliases *buf and is valid only until the next call — both
// decoders copy every string out, so handing payload straight to them
// is safe.
func readFrameBuf(r io.Reader, max int, buf *[]byte) (typ byte, payload []byte, tooBig bool, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, false, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > absMaxFrame {
		return 0, nil, false, fmt.Errorf("wire: invalid frame length %d", n)
	}
	typ = hdr[4]
	body := int(n) - 1 // length covers the type byte
	if max > 0 && int(n) > max {
		_, err := io.CopyN(io.Discard, r, int64(body))
		return typ, nil, true, err
	}
	if cap(*buf) < body {
		*buf = make([]byte, body)
	}
	payload = (*buf)[:body]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errFrameTruncated
		}
		return 0, nil, false, err
	}
	return typ, payload, false, nil
}

// writeFrame writes one frame: [u32 len][type][payload].
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ---- primitive encoders -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue encodes one result/argument value. Accepted dynamic
// types are exactly what jsonValue produces (nil, int64, float64,
// string); anything else encodes as its string form so a response
// always encodes.
func appendValue(b []byte, v interface{}) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 0)
	case int64:
		b = append(b, 1)
		return binary.AppendUvarint(b, zigzag(x))
	case int:
		b = append(b, 1)
		return binary.AppendUvarint(b, zigzag(int64(x)))
	case float64:
		b = append(b, 2)
		var f [8]byte
		binary.BigEndian.PutUint64(f[:], math.Float64bits(x))
		return append(b, f[:]...)
	case string:
		b = append(b, 3)
		return appendString(b, x)
	default:
		b = append(b, 3)
		return appendString(b, fmt.Sprint(x))
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---- primitive decoders -------------------------------------------------

// wireReader walks an encoded payload; every read reports truncation
// through err so decoders check once at the end.
type wireReader struct {
	b   []byte
	pos int
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = errFrameTruncated
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = errFrameTruncated
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.pos) {
		r.err = errFrameTruncated
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *wireReader) value() interface{} {
	switch r.byte() {
	case 0:
		return nil
	case 1:
		return unzigzag(r.uvarint())
	case 2:
		if r.err != nil {
			return nil
		}
		if len(r.b)-r.pos < 8 {
			r.err = errFrameTruncated
			return nil
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.pos:]))
		r.pos += 8
		return f
	case 3:
		return r.string()
	default:
		if r.err == nil {
			r.err = errors.New("wire: unknown value kind")
		}
		return nil
	}
}

// done reports clean decode completion: no error and no trailing bytes
// (trailing garbage means a framing bug or a corrupted stream — reject
// rather than silently accept).
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.b)-r.pos)
	}
	return nil
}

// ---- request codec ------------------------------------------------------

const reqFlagWrite = 1 << 0

// encodeRequest encodes a request frame payload.
func encodeRequest(b []byte, req *Request) ([]byte, error) {
	cmd, ok := cmdToByte[req.Cmd]
	if !ok {
		cmd = cmdExtension
	}
	b = appendUvarint(b, req.ID)
	b = append(b, cmd)
	var flags byte
	if req.Write {
		flags |= reqFlagWrite
	}
	b = append(b, flags)
	b = appendUvarint(b, clampU(req.DeadlineMS))
	b = appendUvarint(b, req.Handle)
	b = appendString(b, req.SQL)
	b = appendString(b, req.Class)
	b = appendString(b, req.Backend)
	b = appendUvarint(b, uint64(maxI(req.Backends, 0)))
	b = appendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = appendValue(b, a)
	}
	if cmd == cmdExtension {
		b = appendString(b, req.Cmd)
	}
	return b, nil
}

// decodeRequest decodes a request frame payload.
func decodeRequest(payload []byte) (Request, error) {
	r := &wireReader{b: payload}
	var req Request
	req.ID = r.uvarint()
	cmdB := r.byte()
	cmd, ok := byteToCmd[cmdB]
	if !ok && cmdB != cmdExtension && r.err == nil {
		return Request{}, fmt.Errorf("wire: unknown cmd byte %#x", cmdB)
	}
	req.Cmd = cmd
	flags := r.byte()
	req.Write = flags&reqFlagWrite != 0
	req.DeadlineMS = int64(r.uvarint())
	req.Handle = r.uvarint()
	req.SQL = r.string()
	req.Class = r.string()
	req.Backend = r.string()
	req.Backends = int(r.uvarint())
	nargs := r.uvarint()
	if r.err == nil && nargs > uint64(len(payload)) {
		// Each value costs at least one byte: a count beyond the payload
		// is corrupt, not a big request. Reject before allocating.
		return Request{}, errors.New("wire: argument count exceeds payload")
	}
	if nargs > 0 && r.err == nil {
		req.Args = make([]interface{}, 0, nargs)
		for i := uint64(0); i < nargs && r.err == nil; i++ {
			req.Args = append(req.Args, r.value())
		}
	}
	if cmdB == cmdExtension {
		req.Cmd = r.string()
	}
	if err := r.done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// ---- response codec -----------------------------------------------------

const (
	respFlagOK   = 1 << 0
	respFlagRows = 1 << 1
)

// binaryEncodable reports whether a response fits the binary hot-path
// encoding (no admin payloads — those ride a JSON frame).
func binaryEncodable(r *Response) bool {
	return r.History == nil && r.Tables == nil && r.Metrics == nil &&
		r.Health == nil && r.CatchUp == nil && r.Report == nil && r.Migration == nil
}

// encodeResponseFrame encodes a response into a frame (type, payload).
// Hot-path responses use the binary form; admin payloads fall back to
// a JSON-bodied frame.
func encodeResponseFrame(b []byte, r *Response) (byte, []byte, error) {
	if !binaryEncodable(r) {
		data, err := json.Marshal(r)
		if err != nil {
			return 0, nil, err
		}
		return frameRespJSON, append(b, data...), nil
	}
	b = appendUvarint(b, r.ID)
	var flags byte
	if r.OK {
		flags |= respFlagOK
	}
	if r.Columns != nil || r.Rows != nil {
		flags |= respFlagRows
	}
	b = append(b, flags)
	b = appendString(b, r.Code)
	b = appendString(b, r.Error)
	b = appendUvarint(b, clampU(r.RetryAfterMS))
	b = appendString(b, r.Backend)
	b = appendUvarint(b, clampU(r.DurationUS))
	b = appendUvarint(b, uint64(maxI(r.Affected, 0)))
	b = appendUvarint(b, r.Handle)
	if flags&respFlagRows != 0 {
		b = appendUvarint(b, uint64(len(r.Columns)))
		for _, c := range r.Columns {
			b = appendString(b, c)
		}
		b = appendUvarint(b, uint64(len(r.Rows)))
		for _, row := range r.Rows {
			b = appendUvarint(b, uint64(len(row)))
			for _, v := range row {
				b = appendValue(b, v)
			}
		}
	}
	return frameResponse, b, nil
}

// decodeResponse decodes a binary response frame payload.
func decodeResponse(payload []byte) (*Response, error) {
	r := &wireReader{b: payload}
	resp := &Response{}
	resp.ID = r.uvarint()
	flags := r.byte()
	resp.OK = flags&respFlagOK != 0
	resp.Code = r.string()
	resp.Error = r.string()
	resp.RetryAfterMS = int64(r.uvarint())
	resp.Backend = r.string()
	resp.DurationUS = int64(r.uvarint())
	resp.Affected = int(r.uvarint())
	resp.Handle = r.uvarint()
	if flags&respFlagRows != 0 {
		ncols := r.uvarint()
		if r.err == nil && ncols > uint64(len(payload)) {
			return nil, errors.New("wire: column count exceeds payload")
		}
		resp.Columns = make([]string, 0, ncols)
		for i := uint64(0); i < ncols && r.err == nil; i++ {
			resp.Columns = append(resp.Columns, r.string())
		}
		nrows := r.uvarint()
		if r.err == nil && nrows > uint64(len(payload)) {
			return nil, errors.New("wire: row count exceeds payload")
		}
		for i := uint64(0); i < nrows && r.err == nil; i++ {
			nvals := r.uvarint()
			if r.err == nil && nvals > uint64(len(payload)) {
				return nil, errors.New("wire: value count exceeds payload")
			}
			row := make([]interface{}, 0, nvals)
			for j := uint64(0); j < nvals && r.err == nil; j++ {
				row = append(row, r.value())
			}
			resp.Rows = append(resp.Rows, row)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// toValue converts a decoded request argument (nil, int64, float64 or
// string) into an engine value.
func toValue(v interface{}) (sqlmini.Value, error) {
	switch x := v.(type) {
	case nil:
		return sqlmini.Null, nil
	case int64:
		return sqlmini.Int(x), nil
	case float64:
		return sqlmini.Float(x), nil
	case string:
		return sqlmini.Text(x), nil
	case sqlmini.Value:
		return x, nil
	default:
		return sqlmini.Null, fmt.Errorf("server: unsupported arg type %T", v)
	}
}

func clampU(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
