// Package server puts the declustered page store behind a real network
// front end: a TCP query service over the paper's per-disk page files
// (internal/store), with the grid file's scales and directory acting as the
// coordinator exactly as in the Section 3.5 SPMD design. Point, range,
// partial-match and k-NN queries arrive over a length-prefixed binary
// protocol; bucket fetches are executed by one I/O goroutine per disk file,
// so a well-declustered allocation translates into genuinely parallel disk
// I/O and the paper's response-time metric becomes observable on actual
// hardware rather than a simulated clock.
//
// The package has three layers:
//
//   - protocol.go: the wire format — frames, request and response payloads;
//   - the serving side, cut where the socket ends (DESIGN S39): conn.go owns
//     connections, pipelining and the wire envelope of replies; exec.go is
//     the executor — request frame in, inner reply out, admission control
//     and deadlines, the query verbs — and runs without a listener; fetch.go
//     takes its cache misses to the per-disk fetch goroutines, with
//     failover and degraded answers; admin.go has STATS/FAULT, scrub, the
//     optional HTTP endpoint and graceful shutdown; server.go the Config and
//     construction; metrics.go and trace.go the counters and stage traces;
//   - client.go: a pooled client with request timeouts and retry/backoff.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/le"
)

// MaxFrameBytes bounds a single frame (verb byte + payload). Oversized
// frames are rejected before any allocation, so a malformed or hostile
// length prefix cannot make the server allocate unbounded memory.
const MaxFrameBytes = 1 << 20

// maxDims bounds the request dimensionality; the paper's experiments stop
// at 4-D, and nothing in the repo builds grids beyond a few dimensions.
const maxDims = 64

// maxK bounds k-NN requests.
const maxK = 4096

// Verb identifies a frame's meaning. Requests use the low range, responses
// the high range, so a stream desynchronization is detected immediately.
type Verb uint8

const (
	VerbPoint   Verb = 1 // exact-match point lookup
	VerbRange   Verb = 2 // closed-box range query
	VerbPartial Verb = 3 // partial-match query (NaN = unspecified)
	VerbKNN     Verb = 4 // k nearest neighbours
	VerbStats   Verb = 5 // server statistics snapshot
	VerbFault   Verb = 6 // admin: inspect/arm/clear failpoints
	VerbInsert  Verb = 7 // mutation: insert one record (writable servers only)
	VerbDelete  Verb = 8 // mutation: delete one record (writable servers only)

	VerbPoints     Verb = 0x81 // response: point set + I/O accounting
	VerbCount      Verb = 0x82 // response: record count + I/O accounting
	VerbStatsReply Verb = 0x83 // response: JSON statistics snapshot
	VerbFaultReply Verb = 0x84 // response: JSON failpoint status
	VerbWriteOK    Verb = 0x85 // response: mutation acknowledged + accounting
	VerbError      Verb = 0xFF // response: error message

	// Pipelining envelopes (DESIGN S26). A tagged frame wraps an ordinary
	// request or response as u32 request id | u8 inner verb | inner payload,
	// letting a client keep many requests in flight per connection and match
	// out-of-order completions by id. The server echoes the id verbatim —
	// including on error replies, so failures stay matchable. Envelopes never
	// nest, and a client that does not pipeline never sends one, which is what
	// keeps the protocol backward compatible in both directions.
	VerbTagged      Verb = 0x40 // envelope: pipelined request
	VerbTaggedReply Verb = 0xC0 // envelope: pipelined response
)

// taggedHdrLen is the envelope overhead inside a tagged frame's payload:
// u32 request id + u8 inner verb.
const taggedHdrLen = 5

var (
	// ErrFrameTooBig reports a length prefix beyond MaxFrameBytes.
	ErrFrameTooBig = errors.New("server: frame exceeds size limit")
	// ErrEmptyFrame reports a zero-length frame (no verb byte).
	ErrEmptyFrame = errors.New("server: empty frame")
)

// Frame is one protocol unit: a verb plus an opaque payload, carried on the
// wire as u32 length (verb+payload) | u8 verb | payload, little endian.
type Frame struct {
	Verb    Verb
	Payload []byte
}

// ReadFrame reads one frame from r, rejecting oversized or empty frames
// before allocating the payload. A truncated stream yields an error rather
// than a short frame.
func ReadFrame(r io.Reader) (Frame, error) {
	var buf []byte
	return readFrameBuf(r, &buf)
}

// readFrameBuf is ReadFrame with a caller-owned scratch buffer: a long-lived
// connection reads every frame into the same buffer, so the steady-state read
// path allocates nothing. The returned frame's payload aliases *scratch and
// is only valid until the next call with the same buffer.
func readFrameBuf(r io.Reader, scratch *[]byte) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return Frame{}, ErrEmptyFrame
	}
	if n > MaxFrameBytes {
		return Frame{}, ErrFrameTooBig
	}
	b := *scratch
	if cap(b) < int(n) {
		b = make([]byte, n)
		*scratch = b
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return Frame{}, fmt.Errorf("server: truncated frame: %w", err)
	}
	return Frame{Verb: Verb(b[0]), Payload: b[1:]}, nil
}

// isEnvelope reports whether v is one of the pipelining envelope verbs.
func isEnvelope(v Verb) bool { return v == VerbTagged || v == VerbTaggedReply }

// envelopeFor picks the envelope verb matching an inner verb's direction:
// responses have the high bit set (VerbError included), requests do not.
func envelopeFor(inner Verb) Verb {
	if inner&0x80 != 0 {
		return VerbTaggedReply
	}
	return VerbTagged
}

// UnwrapTagged opens a pipelining envelope, returning the request id and the
// inner frame. The inner payload aliases the envelope's. The envelope verb
// must match the inner verb's direction, and envelopes never nest.
func UnwrapTagged(f Frame) (uint32, Frame, error) {
	if !isEnvelope(f.Verb) {
		return 0, Frame{}, fmt.Errorf("server: not a tagged envelope: 0x%02x", uint8(f.Verb))
	}
	if len(f.Payload) < taggedHdrLen {
		return 0, Frame{}, errors.New("server: short tagged envelope")
	}
	id := binary.LittleEndian.Uint32(f.Payload[:4])
	inner := Frame{Verb: Verb(f.Payload[4]), Payload: f.Payload[taggedHdrLen:]}
	if isEnvelope(inner.Verb) {
		return 0, Frame{}, errors.New("server: nested tagged envelope")
	}
	if envelopeFor(inner.Verb) != f.Verb {
		return 0, Frame{}, fmt.Errorf("server: envelope 0x%02x wraps wrong-direction verb 0x%02x",
			uint8(f.Verb), uint8(inner.Verb))
	}
	return id, inner, nil
}

// beginFrame opens a frame on buf — the u32 length placeholder and, when
// tagged, the header of envelope env (VerbTagged for a request,
// VerbTaggedReply for a reply) — and returns the extended buffer plus the
// frame's start offset. The caller appends the inner verb and payload and
// seals the frame with endFrame, so a complete wire frame is assembled in
// place with no intermediate copies.
func beginFrame(buf []byte, env Verb, id uint32, tagged bool) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched by endFrame
	if tagged {
		buf = append(buf, byte(env))
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf, start
}

// endFrame patches the length prefix of a frame opened by beginFrame and
// validates the frame size. On error the buffer is returned truncated back
// to the frame's start, so the caller can reuse it.
func endFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 4
	if n <= 0 {
		return buf[:start], ErrEmptyFrame
	}
	if n > MaxFrameBytes {
		return buf[:start], ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(n))
	return buf, nil
}

// appendError appends an inner error reply — VerbError and the message — onto
// buf. The message is truncated rather than rejected, to what fits a frame
// with or without an envelope: an error reply must always be expressible.
func appendError(buf []byte, msg string) []byte {
	if max := MaxFrameBytes - 1 - taggedHdrLen; len(msg) > max {
		msg = msg[:max]
	}
	return append(append(buf, byte(VerbError)), msg...)
}

// appendErrorFrame appends a complete error-response frame onto buf,
// preserving the request id of a pipelined request so the failure stays
// matchable.
func appendErrorFrame(buf []byte, msg string, id uint32, tagged bool) []byte {
	buf, start := beginFrame(buf, VerbTaggedReply, id, tagged)
	buf, _ = endFrame(appendError(buf, msg), start)
	return buf
}

// Request is the decoded form of a query frame.
type Request struct {
	Verb      Verb
	Key       geom.Point // VerbPoint, VerbKNN
	Query     geom.Rect  // VerbRange
	Vals      []float64  // VerbPartial; NaN marks an unspecified attribute
	K         int        // VerbKNN
	CountOnly bool       // VerbRange: return only the record count
	FaultCmd  string     // VerbFault: "status" | "clear" | a fault spec
}

// QueryInfo is the server-side execution profile shipped with every answer:
// the paper's I/O accounting (distinct buckets fetched, pages read) plus the
// service time observed at the server. Buckets counts the buckets the query
// read or was served from the cache, not those a count decided from the
// directory alone (the buckets inside its box, DESIGN S53). Degraded marks a partial answer —
// MissedDisks of the layout's disks failed reads that no surviving copy
// could replace, so the result covers only the surviving disks (always a
// subset of the full answer, never wrong data). The two fields travel
// together: a response is degraded iff MissedDisks > 0, and both codec
// directions enforce that invariant.
type QueryInfo struct {
	Buckets     int
	Pages       int
	Elapsed     time.Duration
	Degraded    bool
	MissedDisks int
}

// Result is the decoded form of an answer frame.
type Result struct {
	Points []geom.Point
	Count  int
	Info   QueryInfo

	// Write-acknowledgement fields (VerbWriteOK). Applied is false when a
	// DELETE found no matching record (the op was a durable no-op); Splits
	// counts bucket splits the mutation triggered.
	Applied bool
	Splits  int

	// arena backs Points when the result was decoded with DecodeResultInto:
	// one flat coordinate array the points slice into, reused across decodes
	// so a long-lived client Result stops allocating per point.
	arena []float64
}

// buf is a cursor for encoding payloads.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// done verifies the payload was consumed exactly.
func done(r *le.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("server: %d trailing payload bytes", r.Len())
	}
	return nil
}

func checkDims(d int) error {
	if d < 1 || d > maxDims {
		return fmt.Errorf("server: implausible dimensionality %d", d)
	}
	return nil
}

func checkFinite(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("server: non-finite coordinate %v", v)
		}
	}
	return nil
}

// AppendRequestFrame appends a complete, optionally tagged wire frame for req
// onto buf, so callers reuse one write buffer across requests (the client's
// connection paths).
// On error the buffer is returned truncated back to its original length.
func AppendRequestFrame(buf []byte, req Request, id uint32, tagged bool) ([]byte, error) {
	buf, start := beginFrame(buf, VerbTagged, id, tagged)
	buf, err := appendRequestPayload(append(buf, byte(req.Verb)), req)
	if err != nil {
		return buf[:start], err
	}
	return endFrame(buf, start)
}

// appendRequestPayload encodes a request's payload onto buf.
func appendRequestPayload(buf []byte, req Request) ([]byte, error) {
	w := wbuf{b: buf}
	switch req.Verb {
	case VerbPoint, VerbInsert, VerbDelete:
		if err := checkDims(len(req.Key)); err != nil {
			return buf, err
		}
		w.u16(uint16(len(req.Key)))
		for _, v := range req.Key {
			w.f64(v)
		}
	case VerbRange:
		if err := checkDims(len(req.Query)); err != nil {
			return buf, err
		}
		flags := uint8(0)
		if req.CountOnly {
			flags = 1
		}
		w.u8(flags)
		w.u16(uint16(len(req.Query)))
		for _, iv := range req.Query {
			w.f64(iv.Lo)
			w.f64(iv.Hi)
		}
	case VerbPartial:
		if err := checkDims(len(req.Vals)); err != nil {
			return buf, err
		}
		w.u16(uint16(len(req.Vals)))
		for _, v := range req.Vals {
			if math.IsNaN(v) {
				w.u8(0)
				w.f64(0) // canonical placeholder for "unspecified"
			} else {
				w.u8(1)
				w.f64(v)
			}
		}
	case VerbKNN:
		if err := checkDims(len(req.Key)); err != nil {
			return buf, err
		}
		if req.K < 1 || req.K > maxK {
			return buf, fmt.Errorf("server: k=%d out of range", req.K)
		}
		w.u16(uint16(len(req.Key)))
		w.u32(uint32(req.K))
		for _, v := range req.Key {
			w.f64(v)
		}
	case VerbStats:
		// empty payload
	case VerbFault:
		if req.FaultCmd == "" {
			return buf, errors.New("server: empty FAULT command")
		}
		w.b = append(w.b, req.FaultCmd...)
	default:
		return buf, fmt.Errorf("server: not a request verb: 0x%02x", uint8(req.Verb))
	}
	return w.b, nil
}

// DecodeRequest parses and validates a request frame. Every field is
// bounds-checked so a malformed frame yields an error, never a panic or an
// oversized allocation.
func DecodeRequest(f Frame) (Request, error) {
	var req Request
	if err := decodeRequestInto(f, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// decodeRequestInto is DecodeRequest writing into a caller-owned Request,
// reusing its key/query/vals capacities — the steady-state form for the
// server, which decodes every frame into a pooled per-query scratch. On
// error *req is left in an unspecified state.
func decodeRequestInto(f Frame, req *Request) error {
	*req = Request{
		Verb:  f.Verb,
		Key:   req.Key[:0],
		Query: req.Query[:0],
		Vals:  req.Vals[:0],
	}
	r := le.NewReader(f.Payload)
	switch f.Verb {
	case VerbPoint, VerbInsert, VerbDelete:
		dims := int(r.U16())
		if r.Err() == nil {
			if err := checkDims(dims); err != nil {
				return err
			}
		}
		if n := min(dims, maxDims); cap(req.Key) < n {
			req.Key = make(geom.Point, 0, n)
		}
		for d := 0; d < dims && r.Err() == nil; d++ {
			req.Key = append(req.Key, r.F64())
		}
		if err := done(&r); err != nil {
			return err
		}
		if err := checkFinite(req.Key...); err != nil {
			return err
		}
	case VerbRange:
		flags := r.U8()
		dims := int(r.U16())
		if r.Err() == nil {
			if err := checkDims(dims); err != nil {
				return err
			}
			if flags > 1 {
				return fmt.Errorf("server: unknown range flags 0x%02x", flags)
			}
		}
		req.CountOnly = flags&1 != 0
		if n := min(dims, maxDims); cap(req.Query) < n {
			req.Query = make(geom.Rect, 0, n)
		}
		for d := 0; d < dims && r.Err() == nil; d++ {
			iv := geom.Interval{Lo: r.F64(), Hi: r.F64()}
			req.Query = append(req.Query, iv)
		}
		if err := done(&r); err != nil {
			return err
		}
		for _, iv := range req.Query {
			if err := checkFinite(iv.Lo, iv.Hi); err != nil {
				return err
			}
			if iv.Hi < iv.Lo {
				return fmt.Errorf("server: inverted interval [%v,%v]", iv.Lo, iv.Hi)
			}
		}
	case VerbPartial:
		dims := int(r.U16())
		if r.Err() == nil {
			if err := checkDims(dims); err != nil {
				return err
			}
		}
		if n := min(dims, maxDims); cap(req.Vals) < n {
			req.Vals = make([]float64, 0, n)
		}
		for d := 0; d < dims && r.Err() == nil; d++ {
			spec := r.U8()
			v := r.F64()
			if r.Err() != nil {
				break
			}
			switch spec {
			case 0:
				v = math.NaN()
			case 1:
				if err := checkFinite(v); err != nil {
					return err
				}
			default:
				return fmt.Errorf("server: bad partial-match flag 0x%02x", spec)
			}
			req.Vals = append(req.Vals, v)
		}
		if err := done(&r); err != nil {
			return err
		}
	case VerbKNN:
		dims := int(r.U16())
		k := int(r.U32())
		if r.Err() == nil {
			if err := checkDims(dims); err != nil {
				return err
			}
			if k < 1 || k > maxK {
				return fmt.Errorf("server: k=%d out of range", k)
			}
		}
		req.K = k
		if n := min(dims, maxDims); cap(req.Key) < n {
			req.Key = make(geom.Point, 0, n)
		}
		for d := 0; d < dims && r.Err() == nil; d++ {
			req.Key = append(req.Key, r.F64())
		}
		if err := done(&r); err != nil {
			return err
		}
		if err := checkFinite(req.Key...); err != nil {
			return err
		}
	case VerbStats:
		if err := done(&r); err != nil {
			return err
		}
	case VerbFault:
		if len(f.Payload) == 0 {
			return errors.New("server: empty FAULT command")
		}
		req.FaultCmd = string(f.Payload)
	default:
		return fmt.Errorf("server: unknown request verb 0x%02x", uint8(f.Verb))
	}
	return nil
}

// AppendResult encodes an answer's payload onto buf and returns the extended
// buffer, so callers reuse one response buffer across frames (the server's
// per-connection response path). verb selects VerbPoints, VerbCount or
// VerbWriteOK.
func AppendResult(buf []byte, verb Verb, res Result) ([]byte, error) {
	start := len(buf)
	switch verb {
	case VerbPoints:
		dims := 0
		if len(res.Points) > 0 {
			dims = len(res.Points[0])
		}
		if dims > maxDims {
			return nil, fmt.Errorf("server: %d-D result", dims)
		}
		e := newResultEncoder(buf, dims)
		for _, p := range res.Points {
			if len(p) != dims {
				return nil, errors.New("server: ragged result point set")
			}
			e.appendRow(p)
		}
		return e.finish(res.Info)
	case VerbCount:
		w := wbuf{b: buf}
		w.u32(uint32(res.Count))
		return appendResultInfo(w.b, res.Info, start)
	case VerbWriteOK:
		if res.Splits < 0 || res.Splits > math.MaxUint16 {
			return nil, fmt.Errorf("server: split count %d out of range", res.Splits)
		}
		applied := uint8(0)
		if res.Applied {
			applied = 1
		}
		w := wbuf{b: buf}
		w.u8(applied)
		w.u16(uint16(res.Splits))
		return appendResultInfo(w.b, res.Info, start)
	default:
		return nil, fmt.Errorf("server: not a result verb: 0x%02x", uint8(verb))
	}
}

// appendResultInfo appends the shared I/O-accounting trailer of every answer
// payload and runs the size/consistency validations. start is where the
// payload began in buf, so the frame-size bound covers the whole payload.
func appendResultInfo(buf []byte, info QueryInfo, start int) ([]byte, error) {
	w := wbuf{b: buf}
	w.u32(uint32(info.Buckets))
	w.u32(uint32(info.Pages))
	w.u64(uint64(info.Elapsed.Nanoseconds()))
	// Degraded-mode trailer: flags u8 (bit 0 = degraded) + missed-disk u16.
	// The pair is validated on both codec directions so a flag without a
	// missed count (or vice versa) can never cross the wire.
	if info.Degraded != (info.MissedDisks > 0) {
		return nil, fmt.Errorf("server: inconsistent degraded info (degraded=%v missed=%d)",
			info.Degraded, info.MissedDisks)
	}
	if info.MissedDisks < 0 || info.MissedDisks > math.MaxUint16 {
		return nil, fmt.Errorf("server: missed-disk count %d out of range", info.MissedDisks)
	}
	flags := uint8(0)
	if info.Degraded {
		flags = 1
	}
	w.u8(flags)
	w.u16(uint16(info.MissedDisks))
	if len(w.b)-start+1 > MaxFrameBytes {
		return nil, ErrFrameTooBig
	}
	return w.b, nil
}

// resultEncoder streams a VerbPoints payload straight into a response buffer:
// the header goes down up front with a zero count, query execution appends
// each matching record's coordinates as it scans the bucket arenas, and
// finish patches the count and appends the accounting trailer. This is what
// lets the server encode results with no intermediate []Point slice — the
// row views handed to appendRow are read and copied immediately, never
// retained.
type resultEncoder struct {
	buf   []byte
	start int // offset of the u16 dims field (payload start)
	dims  int
	n     int
}

// newResultEncoder opens a VerbPoints payload for dims-dimensional records.
// dims may exceed the record count's implied need (an empty result with
// dims > 0 is valid on the wire; the decoder accepts it).
func newResultEncoder(buf []byte, dims int) resultEncoder {
	e := resultEncoder{start: len(buf), dims: dims}
	w := wbuf{b: buf}
	w.u16(uint16(dims))
	w.u32(0) // record count, patched by finish
	e.buf = w.b
	return e
}

// resultInfoBytes is the size of the accounting trailer appendResultInfo
// puts behind every answer payload.
const resultInfoBytes = 4 + 4 + 8 + 1 + 2

// room reports whether rows more records still leave the payload, trailer
// included, inside the frame limit — the bound finish enforces, checked
// before the rows are written and not after.
func (e *resultEncoder) room(rows int) bool {
	return len(e.buf)-e.start+rows*e.dims*8+resultInfoBytes+1 <= MaxFrameBytes
}

// reserve grows the buffer once for an answer of up to rows records and its
// trailer, so that the scan's appends never regrow it. It asks for no more
// than a frame may hold: an answer past that is refused, not sent. The new
// buffer is exactly that large — not the doubling append would pick — so a
// single answer's buffer never outgrows the pool's retention cap.
func (e *resultEncoder) reserve(rows int) {
	need := min(rows*e.dims*8, MaxFrameBytes) + resultInfoBytes
	if cap(e.buf)-len(e.buf) < need {
		e.buf = append(make([]byte, 0, len(e.buf)+need), e.buf...)
	}
}

// appendRow appends one record's coordinates. row must have exactly dims
// elements; rows are validated in aggregate by finish via the count.
func (e *resultEncoder) appendRow(row []float64) {
	for _, v := range row {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
	e.n++
}

// appendRows appends the records of an arena — a multiple of dims
// coordinates — in one step: the copy a bucket lying wholly inside the query
// box gets, without a look at its rows.
func (e *resultEncoder) appendRows(coords []float64) {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(coords))[:off+8*len(coords)]
	dst := e.buf[off:]
	for i, v := range coords {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	e.n += len(coords) / e.dims
}

// count returns the number of rows appended so far.
func (e *resultEncoder) count() int { return e.n }

// finish patches the record count and appends the accounting trailer,
// returning the completed payload.
func (e *resultEncoder) finish(info QueryInfo) ([]byte, error) {
	binary.LittleEndian.PutUint32(e.buf[e.start+2:e.start+6], uint32(e.n))
	return appendResultInfo(e.buf, info, e.start)
}

// DecodeResultInto parses an answer frame into *res, reusing res's point
// slice and coordinate arena when their capacities allow, for callers that
// keep a Result alive across requests. The decoded points alias res's internal arena
// and stay valid until the next DecodeResultInto on the same res. On error
// *res is left in an unspecified state.
func DecodeResultInto(f Frame, res *Result) error {
	res.Points = res.Points[:0]
	res.Count = 0
	res.Applied = false
	res.Splits = 0
	res.Info = QueryInfo{}
	r := le.NewReader(f.Payload)
	switch f.Verb {
	case VerbPoints:
		dims := int(r.U16())
		n := int(r.U32())
		if r.Err() == nil {
			if dims > maxDims {
				return fmt.Errorf("server: implausible dimensionality %d", dims)
			}
			if dims == 0 && n > 0 {
				return errors.New("server: zero-dimensional points")
			}
			// The points must actually fit in the received payload.
			if need := n * dims * 8; need > r.Len() {
				return errors.New("server: short point payload")
			}
		}
		// The size pre-check above is the answer's one bounds check: the rows
		// are taken in one piece, decoded by a plain little-endian loop into
		// the arena, and the point headers sliced from it (DESIGN S45).
		if r.Err() == nil && n > 0 {
			need := n * dims
			src := r.Take(8 * need)
			if cap(res.arena) < need {
				res.arena = make([]float64, need)
			}
			arena := res.arena[:need]
			for i := range arena {
				arena[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
				src = src[8:]
			}
			if cap(res.Points) < n {
				res.Points = make([]geom.Point, n)
			}
			res.Points = res.Points[:n]
			for i := range res.Points {
				res.Points[i] = arena[i*dims : (i+1)*dims : (i+1)*dims]
			}
		}
		res.Count = len(res.Points)
	case VerbCount:
		res.Count = int(r.U32())
	case VerbWriteOK:
		applied := r.U8()
		res.Splits = int(r.U16())
		if r.Err() == nil && applied > 1 {
			return fmt.Errorf("server: bad applied flag 0x%02x", applied)
		}
		res.Applied = applied == 1
	default:
		return fmt.Errorf("server: not a result verb: 0x%02x", uint8(f.Verb))
	}
	res.Info.Buckets = int(r.U32())
	res.Info.Pages = int(r.U32())
	res.Info.Elapsed = time.Duration(r.U64())
	flags := r.U8()
	missed := int(r.U16())
	if err := done(&r); err != nil {
		return err
	}
	if flags > 1 {
		return fmt.Errorf("server: unknown result flags 0x%02x", flags)
	}
	res.Info.Degraded = flags&1 != 0
	res.Info.MissedDisks = missed
	if res.Info.Degraded != (missed > 0) {
		return fmt.Errorf("server: inconsistent degraded info (flags=0x%02x missed=%d)",
			flags, missed)
	}
	return nil
}

// ServerError is an error reported by the server over the protocol (as
// opposed to a transport failure). It is not retried by the client.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }
