package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"pgridfile/internal/geom"
)

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	f, err := encodeRequest(req)
	if err != nil {
		t.Fatalf("encode %+v: %v", req, err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRequest(got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

func TestRequestRoundTrips(t *testing.T) {
	reqs := []Request{
		{Verb: VerbPoint, Key: geom.Point{1, 2}},
		{Verb: VerbRange, Query: geom.Rect{{Lo: 0, Hi: 10}, {Lo: -5, Hi: 5}}},
		{Verb: VerbRange, Query: geom.Rect{{Lo: 1, Hi: 1}}, CountOnly: true},
		{Verb: VerbPartial, Vals: []float64{3.5, math.NaN(), 7}},
		{Verb: VerbKNN, Key: geom.Point{0.25, 0.75, 0.5}, K: 9},
		{Verb: VerbStats},
		{Verb: VerbFault, FaultCmd: "status"},
		{Verb: VerbFault, FaultCmd: "store.read:err:p=0.05;parallel.send:err:n=40"},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if got.Verb != req.Verb || got.CountOnly != req.CountOnly || got.K != req.K ||
			got.FaultCmd != req.FaultCmd {
			t.Errorf("round trip changed metadata: %+v -> %+v", req, got)
		}
		if len(got.Key) != len(req.Key) || len(got.Query) != len(req.Query) ||
			len(got.Vals) != len(req.Vals) {
			t.Errorf("round trip changed shape: %+v -> %+v", req, got)
		}
		for i := range req.Key {
			if got.Key[i] != req.Key[i] {
				t.Errorf("key[%d]: %v != %v", i, got.Key[i], req.Key[i])
			}
		}
		for i := range req.Query {
			if got.Query[i] != req.Query[i] {
				t.Errorf("query[%d]: %v != %v", i, got.Query[i], req.Query[i])
			}
		}
		for i := range req.Vals {
			same := got.Vals[i] == req.Vals[i] ||
				(math.IsNaN(got.Vals[i]) && math.IsNaN(req.Vals[i]))
			if !same {
				t.Errorf("vals[%d]: %v != %v", i, got.Vals[i], req.Vals[i])
			}
		}
	}
}

func TestResultRoundTrips(t *testing.T) {
	info := QueryInfo{Buckets: 3, Pages: 7, Elapsed: 1500 * time.Microsecond}
	res := Result{
		Points: []geom.Point{{1, 2}, {3, 4}, {5, 6}},
		Count:  3,
		Info:   info,
	}
	f, err := encodeResult(VerbPoints, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 3 || got.Info != info {
		t.Errorf("points round trip: %+v", got)
	}
	for i := range res.Points {
		for d := range res.Points[i] {
			if got.Points[i][d] != res.Points[i][d] {
				t.Errorf("point %d dim %d: %v != %v", i, d, got.Points[i][d], res.Points[i][d])
			}
		}
	}

	cf, err := encodeResult(VerbCount, Result{Count: 42, Info: info})
	if err != nil {
		t.Fatal(err)
	}
	cgot, err := DecodeResult(cf)
	if err != nil {
		t.Fatal(err)
	}
	if cgot.Count != 42 || cgot.Info != info {
		t.Errorf("count round trip: %+v", cgot)
	}

	// The degraded trailer must survive both result verbs.
	dinfo := QueryInfo{Buckets: 1, Pages: 2, Elapsed: time.Millisecond,
		Degraded: true, MissedDisks: 2}
	for _, verb := range []Verb{VerbPoints, VerbCount} {
		res := Result{Count: 1, Info: dinfo}
		if verb == VerbPoints {
			res.Points = []geom.Point{{1, 2}}
		}
		df, err := encodeResult(verb, res)
		if err != nil {
			t.Fatal(err)
		}
		dgot, err := DecodeResult(df)
		if err != nil {
			t.Fatal(err)
		}
		if dgot.Info != dinfo {
			t.Errorf("verb 0x%02x degraded round trip: %+v, want %+v", uint8(verb), dgot.Info, dinfo)
		}
	}
}

// TestSnapshotStatsRoundTrip proves the stage-trace summaries survive the
// STATS wire path: a Snapshot with per-stage histograms marshals to the
// JSON the STATS verb serves and unmarshals back (the client side) with
// every stage and counter intact.
func TestSnapshotStatsRoundTrip(t *testing.T) {
	m := newMetrics(2)
	m.rejected.Add(3)
	m.deadlineExceeded.Add(2)
	m.traced.Add(5)
	for i := range m.stageLat {
		for j := 0; j <= i; j++ {
			m.stageLat[i].Record(time.Duration(1) << i)
		}
	}
	snap := m.snapshot(1)

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rejected != 3 || got.DeadlineExceeded != 2 || got.Traced != 5 {
		t.Errorf("counters changed in flight: rejected=%d deadline_exceeded=%d traced=%d",
			got.Rejected, got.DeadlineExceeded, got.Traced)
	}
	if len(got.Stages) != numStages {
		t.Fatalf("%d stages survived, want %d: %v", len(got.Stages), numStages, got.Stages)
	}
	for i, name := range stageNames {
		g, ok := got.Stages[name]
		if !ok {
			t.Errorf("stage %q lost in flight", name)
			continue
		}
		if want := snap.Stages[name]; g != want {
			t.Errorf("stage %q changed in flight: %+v -> %+v", name, want, g)
		}
		if g.Count != int64(i)+1 {
			t.Errorf("stage %q count = %d, want %d", name, g.Count, i+1)
		}
	}

	// The wire field names are part of the protocol: the ISSUE-specified
	// keys must appear verbatim in the STATS JSON.
	for _, key := range []string{`"rejected"`, `"deadline_exceeded"`, `"queries_traced"`, `"stage_nanos"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("STATS JSON lacks %s:\n%s", key, raw)
		}
	}

	// Untraced snapshots stay lean: no stage block at all on the wire.
	lean, err := json.Marshal(newMetrics(2).snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(lean, []byte("stage_nanos")) || bytes.Contains(lean, []byte("queries_traced")) {
		t.Errorf("untraced STATS JSON carries trace fields:\n%s", lean)
	}
}

// TestDegradedTrailerValidation proves the degraded ⟺ missed>0 invariant is
// enforced on both codec directions: an inconsistent pair can neither be
// encoded nor smuggled past the decoder in raw bytes.
func TestDegradedTrailerValidation(t *testing.T) {
	bad := []QueryInfo{
		{Degraded: true, MissedDisks: 0},
		{Degraded: false, MissedDisks: 3},
		{Degraded: true, MissedDisks: -1},
		{Degraded: true, MissedDisks: math.MaxUint16 + 1},
	}
	for _, info := range bad {
		if _, err := encodeResult(VerbCount, Result{Info: info}); err == nil {
			t.Errorf("encoded inconsistent degraded info %+v", info)
		}
	}

	// Corrupt the trailer of a well-formed frame byte by byte.
	f, err := encodeResult(VerbCount, Result{Count: 7})
	if err != nil {
		t.Fatal(err)
	}
	flagOff := len(f.Payload) - 3
	cases := []struct {
		name  string
		flags byte
		m0    byte // low byte of the missed count
	}{
		{"degraded flag without missed count", 1, 0},
		{"missed count without degraded flag", 0, 2},
		{"unknown flag bit", 2, 0},
	}
	for _, tc := range cases {
		p := append([]byte(nil), f.Payload...)
		p[flagOff] = tc.flags
		p[flagOff+1] = tc.m0
		if _, err := DecodeResult(Frame{Verb: VerbCount, Payload: p}); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
	// A frame without the trailer at all (the pre-degraded wire format) is
	// a short payload, not a silent default.
	if _, err := DecodeResult(Frame{Verb: VerbCount, Payload: f.Payload[:flagOff]}); err == nil {
		t.Error("trailerless result frame decoded")
	}
}

// TestMalformedFrames proves the frame reader rejects hostile input without
// crashing or allocating unboundedly.
func TestMalformedFrames(t *testing.T) {
	t.Run("oversized length prefix", func(t *testing.T) {
		var raw [4]byte
		binary.LittleEndian.PutUint32(raw[:], MaxFrameBytes+1)
		_, err := ReadFrame(bytes.NewReader(raw[:]))
		if err != ErrFrameTooBig {
			t.Errorf("got %v, want ErrFrameTooBig", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		var raw [4]byte
		_, err := ReadFrame(bytes.NewReader(raw[:]))
		if err != ErrEmptyFrame {
			t.Errorf("got %v, want ErrEmptyFrame", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		raw := make([]byte, 5)
		binary.LittleEndian.PutUint32(raw, 100) // promises 100 bytes, delivers 1
		raw[4] = byte(VerbPoint)
		_, err := ReadFrame(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("got %v, want truncated-frame error", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{1, 0})); err == nil {
			t.Error("short header accepted")
		}
	})
}

// TestMalformedRequests proves the request decoder validates every field.
func TestMalformedRequests(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
	}{
		{"unknown verb", Frame{Verb: 0x7E}},
		{"point with zero dims", Frame{Verb: VerbPoint, Payload: []byte{0, 0}}},
		{"point dims beyond limit", Frame{Verb: VerbPoint, Payload: []byte{0xFF, 0xFF}}},
		{"point short payload", Frame{Verb: VerbPoint, Payload: []byte{2, 0, 1, 2, 3}}},
		{"range inverted interval", mustEncode(t, Request{
			Verb: VerbRange, Query: geom.Rect{{Lo: 5, Hi: 1}}})},
		{"range bad flags", Frame{Verb: VerbRange, Payload: []byte{9, 1, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
		{"partial bad flag", Frame{Verb: VerbPartial, Payload: []byte{1, 0, 7,
			0, 0, 0, 0, 0, 0, 0, 0}}},
		{"knn zero k", Frame{Verb: VerbKNN, Payload: []byte{1, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0}}},
		{"stats with payload", Frame{Verb: VerbStats, Payload: []byte{1}}},
		{"fault with empty command", Frame{Verb: VerbFault}},
		{"trailing bytes", Frame{Verb: VerbPoint, Payload: append(
			mustEncode(t, Request{Verb: VerbPoint, Key: geom.Point{1}}).Payload, 0xAA)}},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func mustEncode(t *testing.T, req Request) Frame {
	t.Helper()
	// Build the frame by hand for cases the request encoder itself would reject.
	if req.Verb == VerbRange && len(req.Query) == 1 && req.Query[0].Hi < req.Query[0].Lo {
		var w wbuf
		w.u8(0)
		w.u16(1)
		w.f64(req.Query[0].Lo)
		w.f64(req.Query[0].Hi)
		return Frame{Verb: VerbRange, Payload: w.b}
	}
	f, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEncodeRejectsOversized(t *testing.T) {
	big := make([]byte, MaxFrameBytes)
	if err := writeFrame(&bytes.Buffer{}, Frame{Verb: VerbStats, Payload: big}); err != ErrFrameTooBig {
		t.Errorf("got %v, want ErrFrameTooBig", err)
	}
	// A result too large for one frame must be refused at encode time.
	pts := make([]geom.Point, (MaxFrameBytes/16)+10)
	for i := range pts {
		pts[i] = geom.Point{1, 2}
	}
	if _, err := encodeResult(VerbPoints, Result{Points: pts}); err == nil {
		t.Error("oversized result encoded")
	}
}
