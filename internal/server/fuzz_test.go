package server

import (
	"bytes"
	"math"
	"testing"

	"pgridfile/internal/geom"
)

// FuzzCodec feeds arbitrary bytes through the frame reader and request
// decoder, and round-trips whatever decodes cleanly: decode → encode →
// decode must be a fixed point. This is the protocol's safety net against
// malformed, truncated and hostile frames.
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

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return // malformed frames must error, never panic
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

// FuzzBatchFraming models the server's writev path: however a byte stream
// splits into frames, re-emitting those frames as one concatenated batch
// (exactly what net.Buffers delivers to the socket) must parse back to the
// identical sequence — tagged envelopes included. A framing bug here would
// desynchronize every pipelined client mid-batch.
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
	// encoder emits, plus count and write acks — and the writer concatenates
	// those buffers onto the wire. Framing must hold for response bytes
	// exactly as for requests.
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
				break // maxWriteBatch-sized batches are the real workload
			}
		}
		if len(frames) == 0 {
			return
		}
		// Re-emit as one batch the way connWriter does: each frame encoded
		// into its own buffer, buffers concatenated verbatim.
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

	f.Fuzz(func(t *testing.T, verb uint8, payload []byte) {
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
