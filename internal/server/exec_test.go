package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/store"
	"pgridfile/internal/workload"
)

// newTestEngine serves a fresh uniform 2-D layout of replicas copies with no
// listener (engineAt).
func newTestEngine(t testing.TB, records, disks, replicas int, cfg Config) (*Server, *gridfile.File) {
	t.Helper()
	f, dir := newTestLayout(t, records, disks, replicas)
	return engineAt(t, dir, cfg), f
}

// engineAt serves the layout in dir with no listener: the executor as
// newEngine leaves it, reachable through exec (and reply) only.
func engineAt(t testing.TB, dir string, cfg Config) *Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newEngine(st, cfg)
	t.Cleanup(func() {
		s.Close()
		st.Close()
	})
	return s
}

// wireFrame spells a reply frame out byte by byte — u32 length, the tagged
// header when there is one, the inner verb, the payload — without going
// through beginFrame/endFrame, which are what the test is about.
func wireFrame(tagged bool, id uint32, verb Verb, payload []byte) []byte {
	n := 1 + len(payload)
	var out []byte
	if tagged {
		out = binary.LittleEndian.AppendUint32(out, uint32(n+taggedHdrLen))
		out = append(out, byte(VerbTaggedReply))
		out = binary.LittleEndian.AppendUint32(out, id)
	} else {
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
	}
	return append(append(out, byte(verb)), payload...)
}

// TestReplyBytesAcrossTheSeam holds the wire to what it was before the
// executor stopped knowing the envelope: for every request verb and for the
// failure exits, bare and tagged, the frame that exec and the connection
// layer's framing produce together is byte for byte the frame the shipping
// encoders (AppendResult, as the corpus generator uses them) give for the
// answer it decodes to, under a hand-spelled header. The same table passes
// against the one-function serveFrame of the commit before the split. The
// frame is appended behind other bytes, as a tagged worker's batch buffer
// has them, so a reply that truncates past its own start shows too.
func TestReplyBytesAcrossTheSeam(t *testing.T) {
	clk := &stepClock{step: 250}
	s, f := newTestEngine(t, 900, 4, 1, Config{Writable: true, clock: clk.now})
	ro, _ := newTestEngine(t, 200, 2, 1, Config{})
	q := workload.SquareRange(f.Domain(), 0.1, 1, 5)[0]
	key := f.RangeSearch(q)[0].Key
	fresh := geom.Point{0.123456, 0.654321}

	for _, tc := range []struct {
		name   string
		srv    *Server
		req    Request
		raw    *Frame // sent instead of req when set
		reply  Verb
		errMsg string // reply == VerbError
		count  int    // reply == VerbPoints, VerbCount: records expected
	}{
		{name: "point", srv: s, req: Request{Verb: VerbPoint, Key: key}, reply: VerbPoints, count: len(f.Lookup(key))},
		{name: "range", srv: s, req: Request{Verb: VerbRange, Query: q}, reply: VerbPoints, count: f.RangeCount(q)},
		{name: "range-count", srv: s, req: Request{Verb: VerbRange, Query: q, CountOnly: true}, reply: VerbCount, count: f.RangeCount(q)},
		{name: "partial", srv: s, req: Request{Verb: VerbPartial, Vals: []float64{key[0], math.NaN()}}, reply: VerbPoints,
			count: len(f.PartialMatch([]float64{key[0], math.NaN()}))},
		{name: "knn", srv: s, req: Request{Verb: VerbKNN, Key: key, K: 7}, reply: VerbPoints, count: 7},
		{name: "insert", srv: s, req: Request{Verb: VerbInsert, Key: fresh}, reply: VerbWriteOK},
		{name: "delete", srv: s, req: Request{Verb: VerbDelete, Key: fresh}, reply: VerbWriteOK},
		{name: "stats", srv: s, req: Request{Verb: VerbStats}, reply: VerbStatsReply},
		{name: "fault", srv: s, req: Request{Verb: VerbFault, FaultCmd: "status"}, reply: VerbFaultReply},
		{name: "bad fault spec", srv: s, req: Request{Verb: VerbFault, FaultCmd: "store.read:bogus"}, reply: VerbError,
			errMsg: `fault: rule "store.read:bogus": unknown directive "bogus"`},
		{name: "wrong dims", srv: s, req: Request{Verb: VerbPoint, Key: geom.Point{1, 2, 3}}, reply: VerbError,
			errMsg: "key is 3-D, grid is 2-D"},
		{name: "outside domain", srv: s, req: Request{Verb: VerbKNN, Key: geom.Point{-5, 0.5}, K: 1}, reply: VerbError,
			errMsg: "key (-5, 0.5) outside the domain"},
		{name: "read-only insert", srv: ro, req: Request{Verb: VerbInsert, Key: fresh}, reply: VerbError,
			errMsg: "server is read-only (restart with writes enabled)"},
		{name: "short payload", srv: s, raw: &Frame{Verb: VerbPoint, Payload: []byte{2, 0, 1}}, reply: VerbError,
			errMsg: "server: short payload"},
		{name: "reply verb as request", srv: s, raw: &Frame{Verb: VerbPoints}, reply: VerbError,
			errMsg: "server: unknown request verb 0x81"},
	} {
		for _, tagged := range []bool{false, true} {
			name := tc.name + "/bare"
			if tagged {
				name = tc.name + "/tagged"
			}
			t.Run(name, func(t *testing.T) {
				fr := tc.raw
				if fr == nil {
					enc, err := encodeRequest(tc.req)
					if err != nil {
						t.Fatal(err)
					}
					fr = &enc
				}
				const id = 0xA1B2C3D4
				before := []byte("an earlier reply in the same buffer")
				out := tc.srv.reply(append([]byte(nil), before...), *fr, id, tagged)
				if string(out[:len(before)]) != string(before) {
					t.Fatalf("the reply overwrote what the buffer held: %q", out[:len(before)])
				}
				got := out[len(before):]

				inner, err := splitFrame(got, nil)
				if tagged && err == nil {
					var gotID uint32
					if gotID, inner, err = UnwrapTagged(inner); gotID != id {
						t.Fatalf("echoed id %#x, want %#x", gotID, id)
					}
				}
				if err != nil || inner.Verb != tc.reply {
					t.Fatalf("reply verb 0x%02x (%v), want 0x%02x: %q", uint8(inner.Verb), err, uint8(tc.reply), inner.Payload)
				}
				var payload []byte
				switch tc.reply {
				case VerbError:
					payload = []byte(tc.errMsg)
				case VerbStatsReply, VerbFaultReply:
					// Uptime and counters move; the body has to be the JSON it was.
					if payload = inner.Payload; !json.Valid(payload) {
						t.Fatalf("reply body is not JSON: %q", payload)
					}
				default:
					res, err := DecodeResult(inner)
					if err != nil {
						t.Fatal(err)
					}
					if tc.reply != VerbWriteOK && res.Count != tc.count {
						t.Fatalf("%d records, want %d", res.Count, tc.count)
					}
					if tc.reply == VerbWriteOK && !res.Applied {
						t.Fatal("write not applied")
					}
					if res.Info.Elapsed != 250 {
						t.Fatalf("elapsed %v on a 250 ns step clock read twice", res.Info.Elapsed)
					}
					if payload, err = AppendResult(nil, tc.reply, res); err != nil {
						t.Fatal(err)
					}
				}
				if want := wireFrame(tagged, id, tc.reply, payload); string(got) != string(want) {
					t.Fatalf("frame differs from the encoders' bytes:\n got %x\nwant %x", got, want)
				}
			})
		}
	}
}
