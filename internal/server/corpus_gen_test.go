package server

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/geom"
)

// TestGenFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz/. The files are checked in so plain `go test` (and the fuzz
// smoke in scripts/check.sh) replays them as regression inputs alongside the
// in-code f.Add seeds; set GEN_FUZZ_CORPUS=1 to rebuild them after a protocol
// change. Every entry is produced by the package's own encoders, so the
// corpus never drifts from the wire format.
func TestGenFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}

	// FuzzCodec: whole request frames, well-formed and broken.
	point := frameBytes(t, Request{Verb: VerbPoint, Key: geom.Point{3.25, -7.5, 11}})
	knn := frameBytes(t, Request{Verb: VerbKNN, Key: geom.Point{0.5, 0.5}, K: 9})
	writeCorpus(t, "FuzzCodec", map[string][]byte{
		"point-3d":       point,
		"knn":            knn,
		"range-count":    frameBytes(t, Request{Verb: VerbRange, Query: geom.Rect{{Lo: -1, Hi: 1}, {Lo: 0, Hi: 0}}, CountOnly: true}),
		"partial-nan":    frameBytes(t, Request{Verb: VerbPartial, Vals: []float64{math.NaN(), math.Inf(1), 2}}),
		"fault-spec":     frameBytes(t, Request{Verb: VerbFault, FaultCmd: "store.read.disk0:torn:n=3;store.read:delay=1ms"}),
		"tagged-point":   taggedBytes(t, 0xDEADBEEF, Request{Verb: VerbPoint, Key: geom.Point{1, 2}}),
		"truncated":      point[:len(point)/2],
		"length-bomb":    {0xFF, 0xFF, 0xFF, 0x7F, byte(VerbPoint)},
		"payload-mutant": mutate(knn, len(knn)-1),
		// A result frame on the request path: the decoder must reject it
		// cleanly, and the frame reader gets a head start on the streamed
		// AppendResult layout (dims header, patched count, info trailer).
		"points-result": resultFrameBytes(t, false, 0,
			Result{Points: []geom.Point{{1.5, 2.5}}, Count: 1, Info: QueryInfo{Buckets: 1, Pages: 1}}),
	})

	// FuzzBatchFraming: concatenated frame sequences as a tagged worker's
	// batch reply and a client's group-commit buffer hold them.
	var batch []byte
	for i, req := range []Request{
		{Verb: VerbStats},
		{Verb: VerbPoint, Key: geom.Point{1.5, -2.5}},
		{Verb: VerbKNN, Key: geom.Point{0, 0}, K: 2},
		{Verb: VerbRange, Query: geom.Rect{{Lo: 0, Hi: 10}}},
		{Verb: VerbFault, FaultCmd: "status"},
	} {
		var err error
		if batch, err = AppendRequestFrame(batch, req, uint32(i), i%2 == 1); err != nil {
			t.Fatal(err)
		}
	}
	var many []byte
	for i := 0; i < 70; i++ { // past the 64-frame cap in the target
		var err error
		if many, err = AppendRequestFrame(many, Request{Verb: VerbStats}, uint32(i), true); err != nil {
			t.Fatal(err)
		}
	}
	// Response batches as the pipelined worker emits them: every reply of a
	// batch AppendResult-encoded into one buffer — tagged envelopes, streamed
	// rows, the dims>0/zero-row empty-points shape, count and write acks.
	respBatch := resultFrameBytes(t, true, 7, Result{
		Points: []geom.Point{{1, 2, 3}, {4, 5, 6}}, Count: 2,
		Info: QueryInfo{Buckets: 1, Pages: 1}})
	respBatch = append(respBatch, emptyPointsFrameBytes(t, 3)...)
	respBatch = append(respBatch, resultFrameBytes(t, true, 8,
		Result{Count: 42, Info: QueryInfo{Buckets: 2, Pages: 2}})...)
	writeCorpus(t, "FuzzBatchFraming", map[string][]byte{
		"mixed-batch":    batch,
		"trailing-junk":  append(append([]byte(nil), batch...), 0x01, 0x00, 0x00),
		"oversize-batch": many,
		"mid-corrupt":    mutate(batch, len(batch)/2),
		"response-batch": respBatch,
	})

	// FuzzDegradedCodec: (verb byte, result payload) pairs around the
	// degraded-trailer invariant.
	clean := resultPayload(t, VerbCount, Result{Count: 7, Info: QueryInfo{Buckets: 2, Pages: 3, Elapsed: 900}})
	degraded := resultPayload(t, VerbPoints, Result{
		Points: []geom.Point{{1, 2}, {3, 4}, {5, 6}}, Count: 3,
		Info: QueryInfo{Buckets: 2, Pages: 2, Degraded: true, MissedDisks: 2},
	})
	badFlag := append([]byte(nil), clean...)
	badFlag[len(badFlag)-3] = 0x80 // unknown flag bit: must be rejected
	writeCorpusPairs(t, "FuzzDegradedCodec", map[string]struct {
		verb    byte
		payload []byte
	}{
		"count-clean":     {byte(VerbCount), clean},
		"points-degraded": {byte(VerbPoints), degraded},
		"flag-unknown":    {byte(VerbCount), badFlag},
		"trailer-cut":     {byte(VerbPoints), degraded[:len(degraded)-2]},
		"verb-mismatch":   {byte(VerbPoints), clean},
		// dims>0 with zero rows: only the serving path's streaming encoder
		// produces this layout.
		"points-empty-streamed": {byte(VerbPoints), emptyStreamedPayload(t, 3)},
	})
}

func frameBytes(t *testing.T, req Request) []byte {
	t.Helper()
	fr, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, fr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func taggedBytes(t *testing.T, id uint32, req Request) []byte {
	t.Helper()
	fr, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapTagged(id, fr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultFrameBytes encodes a VerbPoints or VerbCount answer as whole frame
// bytes, optionally wrapped in a tagged envelope — the shape a reply takes on
// the wire.
func resultFrameBytes(t *testing.T, tagged bool, id uint32, res Result) []byte {
	t.Helper()
	verb := VerbCount
	if res.Points != nil {
		verb = VerbPoints
	}
	fr, err := encodeResult(verb, res)
	if err != nil {
		t.Fatal(err)
	}
	if tagged {
		if fr, err = wrapTagged(id, fr); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, fr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// emptyStreamedPayload is the dims-wide, zero-row points payload only the
// incremental result encoder emits.
func emptyStreamedPayload(t *testing.T, dims int) []byte {
	t.Helper()
	e := newResultEncoder(nil, dims)
	payload, err := e.finish(QueryInfo{Buckets: 1, Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func emptyPointsFrameBytes(t *testing.T, dims int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{Verb: VerbPoints, Payload: emptyStreamedPayload(t, dims)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func resultPayload(t *testing.T, verb Verb, res Result) []byte {
	t.Helper()
	fr, err := encodeResult(verb, res)
	if err != nil {
		t.Fatal(err)
	}
	return fr.Payload
}

// mutate flips one bit at position i, returning a copy.
func mutate(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// writeCorpus writes one-argument ([]byte) seed files in the
// `go test fuzz v1` encoding.
func writeCorpus(t *testing.T, target string, entries map[string][]byte) {
	t.Helper()
	for name, data := range entries {
		writeCorpusFile(t, target, name, fmt.Sprintf("[]byte(%q)", data))
	}
}

// writeCorpusPairs writes (byte, []byte) seed files for FuzzDegradedCodec.
func writeCorpusPairs(t *testing.T, target string, entries map[string]struct {
	verb    byte
	payload []byte
}) {
	t.Helper()
	for name, e := range entries {
		writeCorpusFile(t, target, name,
			fmt.Sprintf("byte(%q)", e.verb), fmt.Sprintf("[]byte(%q)", e.payload))
	}
}

func writeCorpusFile(t *testing.T, target, name string, lines ...string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n"
	for _, l := range lines {
		content += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
