package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/le"
)

// FuzzCodec feeds arbitrary bytes through the frame reader and request
// decoder, and round-trips whatever decodes cleanly: decode → encode →
// decode must be a fixed point. Every frame read is also decoded as an
// answer, and DecodeResultInto must agree with referenceDecodeResult on it.
// This is the protocol's safety net against malformed, truncated and hostile
// frames.
func FuzzCodec(f *testing.F) {
	seed := []Request{
		{Verb: VerbPoint, Key: geom.Point{1.5, -2.5}},
		{Verb: VerbRange, Query: geom.Rect{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}}},
		{Verb: VerbRange, Query: geom.Rect{{Lo: -1, Hi: 1}}, CountOnly: true},
		{Verb: VerbPartial, Vals: []float64{math.NaN(), 4}},
		{Verb: VerbKNN, Key: geom.Point{0.5}, K: 3},
		{Verb: VerbStats},
		{Verb: VerbFault, FaultCmd: "status"},
		{Verb: VerbFault, FaultCmd: "store.read:err:p=0.05;store.read:delay=10ms"},
		{Verb: VerbInsert, Key: geom.Point{0.25, 0.75}},
		{Verb: VerbDelete, Key: geom.Point{-3.5, 42}},
	}
	for _, req := range seed {
		fr, err := encodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	// Answers at the frame limit, which is also the pool's retention cap: the
	// largest 2-D answer that fits and one row more, which ReadFrame refuses;
	// and a count that claims one row more than the payload holds, so the
	// rows run into the trailer.
	const fit = (MaxFrameBytes - 1 - 6 - resultInfoBytes) / 16
	f.Add(pointsWire(fit, fit))
	f.Add(pointsWire(fit+1, fit+1))
	f.Add(pointsWire(3, 4))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return // malformed frames must error, never panic
		}
		// Read as an answer, bare or in its envelope, the frame must get the
		// reference decoder's verdict.
		checkDecodersAgree(t, fr)
		if _, inner, err := UnwrapTagged(fr); err == nil {
			checkDecodersAgree(t, inner)
		}
		req, err := DecodeRequest(fr)
		if err != nil {
			return // malformed payloads must error, never panic
		}
		// Whatever decoded must re-encode and decode to the same request.
		fr2, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr2); err != nil {
			t.Fatal(err)
		}
		fr3, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := DecodeRequest(fr3)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !requestsEqual(req, req2) {
			t.Fatalf("round trip not a fixed point:\n%+v\n%+v", req, req2)
		}
		// The pipelining envelope must also be a fixed point around any
		// decodable request, for any id.
		id := uint32(len(raw)) * 2654435761
		w, err := wrapTagged(id, fr2)
		if err != nil {
			t.Fatalf("valid request does not wrap: %v", err)
		}
		gotID, inner, err := UnwrapTagged(w)
		if err != nil {
			t.Fatalf("wrapped request does not unwrap: %v", err)
		}
		if gotID != id || inner.Verb != fr2.Verb || !bytes.Equal(inner.Payload, fr2.Payload) {
			t.Fatalf("tagged round trip drifted: id %d→%d verb %#x→%#x", id, gotID, fr2.Verb, inner.Verb)
		}
	})
}

// FuzzBatchFraming models the two buffers that concatenate frames into one
// write — a tagged worker's batch reply on the server and a pipelined
// client's group-commit buffer: however a byte stream splits into frames,
// re-emitting those frames back to back must parse back to the identical
// sequence — tagged envelopes included. A framing bug here would
// desynchronize every pipelined connection mid-batch.
func FuzzBatchFraming(f *testing.F) {
	var seedBatch []byte
	for i, req := range []Request{
		{Verb: VerbStats},
		{Verb: VerbPoint, Key: geom.Point{1.5, -2.5}},
		{Verb: VerbRange, Query: geom.Rect{{Lo: 0, Hi: 1}}, CountOnly: true},
	} {
		var err error
		seedBatch, err = AppendRequestFrame(seedBatch, req, uint32(i), i%2 == 0)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seedBatch)
	f.Add([]byte{1, 0, 0, 0, 5, 1, 0, 0, 0, 5})
	// Response-side batch: the pipelined worker encodes every reply of a
	// batch into one buffer with AppendResult — tagged envelopes around
	// streamed VerbPoints rows, the dims>0/zero-row shape only the streaming
	// encoder emits, plus count and write acks — and writes that buffer
	// whole. Framing must hold for response bytes exactly as for requests.
	respFrames := []Frame{
		mustResultFrame(f, VerbPoints, Result{
			Points: []geom.Point{{1, 2, 3}, {4, 5, 6}}, Count: 2,
			Info: QueryInfo{Buckets: 1, Pages: 1}}),
		emptyPointsFrame(f, 3),
		mustResultFrame(f, VerbCount, Result{Count: 42, Info: QueryInfo{Buckets: 2, Pages: 2}}),
		mustResultFrame(f, VerbWriteOK, Result{Applied: true, Splits: 1}),
	}
	var respBatch bytes.Buffer
	for i, fr := range respFrames {
		if i%2 == 0 {
			w, err := wrapTagged(uint32(1000+i), fr)
			if err != nil {
				f.Fatal(err)
			}
			fr = w
		}
		if err := writeFrame(&respBatch, fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(respBatch.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		// First pass: split the input into as many well-formed frames as it
		// yields (stopping at the first malformed one, as the reader would).
		r := bytes.NewReader(raw)
		var frames []Frame
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				break
			}
			frames = append(frames, Frame{Verb: fr.Verb, Payload: append([]byte(nil), fr.Payload...)})
			if len(frames) >= 64 {
				break // a tagged batch holds 16; a client's buffer one per request in flight
			}
		}
		if len(frames) == 0 {
			return
		}
		// Re-emit as one batch the way both buffers are filled: each frame
		// appended whole, back to back.
		var batch bytes.Buffer
		for _, fr := range frames {
			if err := writeFrame(&batch, fr); err != nil {
				return // unencodable (e.g. oversized) frames never reach the writer
			}
		}
		// The concatenation must parse back to the same frame sequence.
		br := bytes.NewReader(batch.Bytes())
		for i, want := range frames {
			got, err := ReadFrame(br)
			if err != nil {
				t.Fatalf("frame %d of %d lost in the batch: %v", i, len(frames), err)
			}
			if got.Verb != want.Verb || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d drifted: verb %#x→%#x payload %d→%d bytes",
					i, want.Verb, got.Verb, len(want.Payload), len(got.Payload))
			}
		}
		if _, err := ReadFrame(br); err == nil {
			t.Fatal("batch parsed to more frames than were written")
		}
	})
}

// pointsWire writes a bare VerbPoints wire frame by hand — rows 2-D points
// under a header that claims `claimed` of them — without the encoder's checks,
// so the length prefix may pass MaxFrameBytes and the count may lie.
func pointsWire(rows, claimed int) []byte {
	w := wbuf{b: make([]byte, 4, 4+1+6+16*rows+resultInfoBytes)}
	w.u8(uint8(VerbPoints))
	w.u16(2)
	w.u32(uint32(claimed))
	for i := 0; i < rows; i++ {
		w.f64(float64(i))
		w.f64(-0.5 * float64(i))
	}
	w.u32(uint32(rows)) // buckets
	w.u32(1)            // pages
	w.u64(1500)         // elapsed
	w.u8(0)             // flags
	w.u16(0)            // missed disks
	binary.LittleEndian.PutUint32(w.b, uint32(len(w.b)-4))
	return w.b
}

func mustResultFrame(f *testing.F, verb Verb, res Result) Frame {
	f.Helper()
	fr, err := encodeResult(verb, res)
	if err != nil {
		f.Fatal(err)
	}
	return fr
}

// emptyPointsFrame builds the streamed zero-row, dims-wide points frame the
// serving path emits for an empty result.
func emptyPointsFrame(f *testing.F, dims int) Frame {
	f.Helper()
	e := newResultEncoder(nil, dims)
	payload, err := e.finish(QueryInfo{Buckets: 1, Pages: 1})
	if err != nil {
		f.Fatal(err)
	}
	return Frame{Verb: VerbPoints, Payload: payload}
}

func requestsEqual(a, b Request) bool {
	if a.Verb != b.Verb || a.K != b.K || a.CountOnly != b.CountOnly ||
		a.FaultCmd != b.FaultCmd {
		return false
	}
	if len(a.Key) != len(b.Key) || len(a.Query) != len(b.Query) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return false
		}
	}
	for i := range a.Query {
		if a.Query[i] != b.Query[i] {
			return false
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] &&
			!(math.IsNaN(a.Vals[i]) && math.IsNaN(b.Vals[i])) {
			return false
		}
	}
	return true
}

// FuzzDegradedCodec hammers the result decoder — in particular the degraded
// trailer (flags + missed-disk count) appended for fault-tolerant serving —
// with arbitrary payloads: whatever decodes must satisfy the degraded ⟺
// missed>0 invariant and re-encode to a fixed point; inconsistent trailers
// must error, never panic or leak through.
func FuzzDegradedCodec(f *testing.F) {
	seeds := []struct {
		verb Verb
		res  Result
	}{
		{VerbCount, Result{Count: 42, Info: QueryInfo{Buckets: 3, Pages: 7, Elapsed: 1500}}},
		{VerbCount, Result{Count: 10, Info: QueryInfo{Buckets: 2, Pages: 2, Degraded: true, MissedDisks: 1}}},
		{VerbPoints, Result{Points: []geom.Point{{1, 2}, {3, 4}}, Count: 2,
			Info: QueryInfo{Buckets: 1, Pages: 1, Degraded: true, MissedDisks: 3}}},
		{VerbPoints, Result{}},
		{VerbWriteOK, Result{Applied: true, Splits: 2, Info: QueryInfo{Buckets: 3, Elapsed: 900}}},
		{VerbWriteOK, Result{Applied: false}},
	}
	for _, s := range seeds {
		fr, err := encodeResult(s.verb, s.res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(s.verb), fr.Payload)
	}
	// Hand-corrupted trailers: degraded flag without a missed count, and an
	// unknown flag bit. Both must be rejected by the decoder.
	base, err := encodeResult(VerbCount, Result{Count: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, flag := range []byte{1, 2} {
		bad := append([]byte(nil), base.Payload...)
		bad[len(bad)-3] = flag
		f.Add(uint8(VerbCount), bad)
	}
	// The streamed empty-points payload (dims > 0, zero rows) that only the
	// serving path's incremental encoder produces — AppendResult cannot,
	// because it derives dims from the rows it is given.
	f.Add(uint8(VerbPoints), emptyPointsFrame(f, 3).Payload)
	// A count that claims one row more than the payload holds.
	f.Add(uint8(VerbPoints), pointsWire(3, 4)[5:])

	f.Fuzz(func(t *testing.T, verb uint8, payload []byte) {
		checkDecodersAgree(t, Frame{Verb: Verb(verb), Payload: payload})
		res, err := DecodeResult(Frame{Verb: Verb(verb), Payload: payload})
		if err != nil {
			return // malformed results must error, never panic
		}
		if res.Info.Degraded != (res.Info.MissedDisks > 0) {
			t.Fatalf("decoder let an inconsistent degraded trailer through: %+v", res.Info)
		}
		fr2, err := encodeResult(Verb(verb), res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %+v: %v", res, err)
		}
		res2, err := DecodeResult(fr2)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !resultsEqual(res, res2) {
			t.Fatalf("round trip not a fixed point:\n%+v\n%+v", res, res2)
		}
	})
}

// referenceDecodeResult is the answer decoder DecodeResultInto replaced: every
// coordinate read through the shared cursor's F64 (internal/le), with its
// bounds check and error test per value. FuzzCodec and FuzzDegradedCodec hold
// the one-pass decoder to it — the same points, count, info and write fields,
// and the same error — on every input.
func referenceDecodeResult(f Frame) (Result, error) {
	var res Result
	r := le.NewReader(f.Payload)
	switch f.Verb {
	case VerbPoints:
		dims := int(r.U16())
		n := int(r.U32())
		if r.Err() == nil {
			if dims > maxDims {
				return Result{}, fmt.Errorf("server: implausible dimensionality %d", dims)
			}
			if dims == 0 && n > 0 {
				return Result{}, errors.New("server: zero-dimensional points")
			}
			if need := n * dims * 8; need > r.Len() {
				return Result{}, errors.New("server: short point payload")
			}
		}
		if r.Err() == nil && n > 0 {
			arena := make([]float64, n*dims)
			for i := range arena {
				arena[i] = r.F64()
			}
			for i := 0; i < n; i++ {
				res.Points = append(res.Points, geom.Point(arena[i*dims:(i+1)*dims:(i+1)*dims]))
			}
		}
		res.Count = len(res.Points)
	case VerbCount:
		res.Count = int(r.U32())
	case VerbWriteOK:
		applied := r.U8()
		res.Splits = int(r.U16())
		if r.Err() == nil && applied > 1 {
			return Result{}, fmt.Errorf("server: bad applied flag 0x%02x", applied)
		}
		res.Applied = applied == 1
	default:
		return Result{}, fmt.Errorf("server: not a result verb: 0x%02x", uint8(f.Verb))
	}
	res.Info.Buckets = int(r.U32())
	res.Info.Pages = int(r.U32())
	res.Info.Elapsed = time.Duration(r.U64())
	flags := r.U8()
	missed := int(r.U16())
	if err := done(&r); err != nil {
		return Result{}, err
	}
	if flags > 1 {
		return Result{}, fmt.Errorf("server: unknown result flags 0x%02x", flags)
	}
	res.Info.Degraded = flags&1 != 0
	res.Info.MissedDisks = missed
	if res.Info.Degraded != (missed > 0) {
		return Result{}, fmt.Errorf("server: inconsistent degraded info (flags=0x%02x missed=%d)",
			flags, missed)
	}
	return res, nil
}

// checkDecodersAgree decodes f with DecodeResultInto — into a Result that
// already holds an earlier answer, as a client's does — and with
// referenceDecodeResult, and fails unless both refuse it with the same error
// or both accept it with the same result.
func checkDecodersAgree(t *testing.T, f Frame) {
	t.Helper()
	want, wantErr := referenceDecodeResult(f)
	got := Result{Points: []geom.Point{{9, 9, 9}}, Count: 1, Applied: true, Splits: 3,
		Info:  QueryInfo{Buckets: 5, Degraded: true, MissedDisks: 1},
		arena: []float64{9, 9, 9}}
	gotErr := DecodeResultInto(f, &got)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("verb 0x%02x, %d-byte payload: decoder says %v, reference says %v",
			uint8(f.Verb), len(f.Payload), gotErr, wantErr)
	}
	if gotErr != nil || resultsEqual(got, want) {
		return
	}
	for i := range min(len(got.Points), len(want.Points)) {
		if !resultsEqual(Result{Points: got.Points[i : i+1]}, Result{Points: want.Points[i : i+1]}) {
			t.Fatalf("verb 0x%02x: decoders disagree on point %d of %d: %v, reference %v",
				uint8(f.Verb), i, len(want.Points), got.Points[i], want.Points[i])
		}
	}
	got.Points, got.arena, want.Points = nil, nil, nil
	t.Fatalf("verb 0x%02x: decoders disagree (points aside):\n got %+v\nwant %+v", uint8(f.Verb), got, want)
}

func resultsEqual(a, b Result) bool {
	if a.Count != b.Count || a.Info != b.Info || len(a.Points) != len(b.Points) ||
		a.Applied != b.Applied || a.Splits != b.Splits {
		return false
	}
	for i := range a.Points {
		if len(a.Points[i]) != len(b.Points[i]) {
			return false
		}
		for d := range a.Points[i] {
			av, bv := a.Points[i][d], b.Points[i][d]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				return false
			}
		}
	}
	return true
}
