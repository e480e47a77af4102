package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/workload"
)

// TestTaggedEnvelopeRoundTrip covers the wire-level pipelining envelope:
// wrap/unwrap is a fixed point for both directions, and the decoder rejects
// everything that would let request ids drift.
func TestTaggedEnvelopeRoundTrip(t *testing.T) {
	req, err := encodeRequest(Request{Verb: VerbPoint, Key: geom.Point{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{0, 1, 0xDEADBEEF, ^uint32(0)} {
		w, err := wrapTagged(id, req)
		if err != nil {
			t.Fatal(err)
		}
		if w.Verb != VerbTagged {
			t.Fatalf("request envelope verb = %#x, want %#x", w.Verb, VerbTagged)
		}
		gotID, inner, err := UnwrapTagged(w)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || inner.Verb != req.Verb || !bytes.Equal(inner.Payload, req.Payload) {
			t.Fatalf("unwrap(wrap(%d)) = id %d verb %#x", id, gotID, inner.Verb)
		}
	}

	// Responses wrap into the reply-direction envelope.
	resp, err := encodeResult(VerbCount, Result{Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapTagged(9, resp)
	if err != nil {
		t.Fatal(err)
	}
	if w.Verb != VerbTaggedReply {
		t.Fatalf("response envelope verb = %#x, want %#x", w.Verb, VerbTaggedReply)
	}
	if id, inner, err := UnwrapTagged(w); err != nil || id != 9 || inner.Verb != VerbCount {
		t.Fatalf("reply unwrap = %d %#x %v", id, inner.Verb, err)
	}

	// Envelope too short to carry an id.
	if _, _, err := UnwrapTagged(Frame{Verb: VerbTagged, Payload: []byte{1, 2, 3}}); err == nil {
		t.Error("short envelope accepted")
	}
	// An envelope whose inner verb is itself an envelope.
	nested := make([]byte, taggedHdrLen)
	nested[4] = byte(VerbTagged)
	if _, _, err := UnwrapTagged(Frame{Verb: VerbTagged, Payload: nested}); err == nil {
		t.Error("nested inner envelope accepted")
	}
	// A request envelope around a response verb (wrong direction).
	backwards := make([]byte, taggedHdrLen)
	backwards[4] = byte(VerbCount)
	if _, _, err := UnwrapTagged(Frame{Verb: VerbTagged, Payload: backwards}); err == nil {
		t.Error("request envelope around a response verb accepted")
	}
	// Not an envelope at all.
	if _, _, err := UnwrapTagged(resp); err == nil {
		t.Error("unwrapping a bare frame accepted")
	}
}

// TestPipelinedEndToEnd is the pipelining acceptance test: clients keep many
// tagged requests in flight per connection, responses may complete out of
// order on the server, and every answer must still match its own query.
func TestPipelinedEndToEnd(t *testing.T) {
	s, f := newTestServer(t, 900, 4, Config{Faults: fault.NewRegistry(1)})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 16, PoolSize: 2})

	// Stagger server-side completion so responses genuinely reorder: a
	// random store.read delay makes heavier queries overtake lighter ones.
	if _, err := cl.Fault(context.Background(), "store.read:delay=2ms:p=0.3"); err != nil {
		t.Fatal(err)
	}

	dom := f.Domain()
	queries := workload.SquareRange(dom, 0.05, 64, 5)
	var wg sync.WaitGroup
	errCh := make(chan error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q geom.Rect) {
			defer wg.Done()
			n, _, err := cl.RangeCountCtx(context.Background(), q)
			if err != nil {
				errCh <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			// The id-matching proof: under reordering, a misrouted reply
			// would answer a different rectangle's count.
			if want := f.RangeCount(q); n != want {
				errCh <- fmt.Errorf("query %d returned %d records, want %d (reply misrouted?)", i, n, want)
			}
		}(i, q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// A worker counts a batch after its write returns, so the last replies
	// can reach the client — and this STATS request, on the other
	// connection, the server — before their frames are counted.
	var snap Snapshot
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if snap, err = cl.Stats(); err != nil {
			t.Fatal(err)
		}
		if snap.WriteFrames >= int64(len(queries)) || time.Now().After(deadline) {
			break
		}
	}
	if snap.QueriesTotal < int64(len(queries)) {
		t.Errorf("server served %d queries, want >= %d", snap.QueriesTotal, len(queries))
	}
	// Every frame left in some write, and no write was empty.
	if snap.WriteFrames < int64(len(queries)) {
		t.Errorf("write_frames = %d, want >= %d", snap.WriteFrames, len(queries))
	}
	if snap.WriteBatches == 0 || snap.WriteBatches > snap.WriteFrames {
		t.Errorf("write_batches = %d of %d frames", snap.WriteBatches, snap.WriteFrames)
	}
}

// TestPipelinedCoalescing holds the pipelined write path to its purpose —
// several replies to a write — driven so that the count is exact on any
// machine rather than a ratio that depends on how the scheduler interleaves
// reader and workers. A server that writes one response per write counts
// burst batches, not 1. The client half of the coalescing is
// TestClientGroupCommit.
func TestPipelinedCoalescing(t *testing.T) {
	const burst = 16 // one taggedBatch

	// Reader and worker: tagged requests that arrive in one read ride one
	// hand-off, and the worker encodes their replies into one buffer. With
	// pipelineDepth 1 the connection has a single worker, so no sibling can
	// take half of the batch.
	t.Run("burst", func(t *testing.T) {
		s, f := newTestServer(t, 900, 4, Config{pipelineDepth: 1})
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		queries := workload.SquareRange(f.Domain(), 0.02, burst, 5)
		var wire bytes.Buffer
		for i, q := range queries {
			fr, err := encodeRequest(Request{Verb: VerbRange, Query: q, CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			w, err := wrapTagged(uint32(i), fr)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(&wire, w); err != nil {
				t.Fatal(err)
			}
		}
		// One write of well under a segment: the server's first read
		// delivers the whole burst.
		if _, err := conn.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			resp, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			id, inner, err := UnwrapTagged(resp)
			if err != nil || id != uint32(i) {
				t.Fatalf("reply %d: id %d, %v", i, id, err)
			}
			if res, err := DecodeResult(inner); err != nil || res.Count != f.RangeCount(q) {
				t.Fatalf("reply %d: count %d (%v), want %d", i, res.Count, err, f.RangeCount(q))
			}
		}
		// The worker counts a batch after its write returns, so the replies
		// can reach this side before they are counted.
		var snap Snapshot
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			snap = s.Snapshot()
			if snap.WriteFrames >= burst || time.Now().After(deadline) {
				break
			}
		}
		if snap.WriteFrames != burst || snap.WriteBatches != 1 {
			t.Errorf("%d frames in %d write batches, want %d in 1", snap.WriteFrames, snap.WriteBatches, burst)
		}
	})

}

// gateConn holds its first Write until release is closed and records how
// many wire frames each write carried; it sends nothing anywhere.
type gateConn struct {
	net.Conn
	entered, release chan struct{}

	mu     sync.Mutex
	writes []int
}

func (g *gateConn) Write(b []byte) (int, error) {
	frames := 0
	for r := bytes.NewReader(b); ; frames++ {
		if _, err := ReadFrame(r); err != nil {
			break
		}
	}
	g.mu.Lock()
	g.writes = append(g.writes, frames)
	first := len(g.writes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return len(b), nil
}

// TestClientGroupCommit holds the client half of coalescing: requests
// enqueued while a pipelined connection's write is in flight return at once
// and leave together in the next write, made by the caller that was already
// writing.
func TestClientGroupCommit(t *testing.T) {
	const k = 8
	cli, srv := net.Pipe()
	defer srv.Close()
	g := &gateConn{Conn: cli, entered: make(chan struct{}), release: make(chan struct{})}
	pc := newPipeConn(g, k+1, 10*time.Second)
	defer pc.fail(errors.New("test over"))

	deadline := time.Now().Add(10 * time.Second)
	first := make(chan error, 1)
	go func() {
		_, _, err := pc.enqueue(Request{Verb: VerbStats}, deadline)
		first <- err
	}()
	<-g.entered
	for i := 0; i < k; i++ {
		if _, _, err := pc.enqueue(Request{Verb: VerbStats}, deadline); err != nil {
			t.Fatal(err)
		}
	}
	close(g.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Equal(g.writes, []int{1, k}) {
		t.Errorf("writes carried %v frames, want [1 %d]", g.writes, k)
	}
}

// settledGoroutines waits until the goroutine count holds still for 50 ms —
// goroutines an earlier test started may still be exiting — and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same, deadline := 0, time.Now().Add(5*time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestConnectionCostsOneGoroutine holds the connection layer's shape: a
// served connection runs its reader and nothing else — replies are written
// by the goroutine that made them — and a pipelined client connection runs
// its reply reader and nothing else.
func TestConnectionCostsOneGoroutine(t *testing.T) {
	s, f := newTestServer(t, 400, 2, Config{})
	req, err := encodeRequest(Request{Verb: VerbRange, Query: f.Domain(), CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	base := settledGoroutines()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	if got := settledGoroutines() - base; got != n {
		t.Errorf("%d served connections cost %d goroutines, want %d", n, got, n)
	}

	base = settledGoroutines()
	cli, srv := net.Pipe()
	defer srv.Close()
	pc := newPipeConn(cli, 4, 10*time.Second)
	defer pc.fail(errors.New("test over"))
	if got := settledGoroutines() - base; got != 1 {
		t.Errorf("a pipelined client connection costs %d goroutines, want 1", got)
	}
}

// TestClientThatStopsReading holds the write deadline where the replies are
// written now: a client that pipelines range requests and never reads fills
// the server's send buffer, the blocked write gives up after QueryTimeout and
// closes the connection, the connection's reader and workers exit, and Close
// has nothing left to drain.
func TestClientThatStopsReading(t *testing.T) {
	// 4 000 2-D records: each whole-domain answer is ≈ 64 KiB, so 500 of
	// them are far more than two loopback socket buffers hold.
	s, f := newTestServer(t, 4000, 2, Config{QueryTimeout: 100 * time.Millisecond})
	req, err := encodeRequest(Request{Verb: VerbRange, Query: f.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	for i := 0; i < 500; i++ {
		w, err := wrapTagged(uint32(i), req)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&wire, w); err != nil {
			t.Fatal(err)
		}
	}

	base := settledGoroutines()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wrote := make(chan struct{})
	go func() {
		conn.Write(wire.Bytes()) // fails instead if the server hangs up first
		close(wrote)
	}()
	<-wrote

	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got != base && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if got != base {
		t.Fatalf("%d goroutines left over from a connection whose client stopped reading", got-base)
	}
	start := time.Now()
	s.Close()
	if el := time.Since(start); el > time.Second {
		t.Errorf("Close took %v with the stalled connection gone (drainTimeout is %v)", el, drainTimeout)
	}
	if n := s.Snapshot().WriteFrames; n >= 500 {
		t.Errorf("all %d replies were written: the send buffer never filled", n)
	}
}

// TestPipelinedUnderFaults injects transient disk errors under a pipelined
// client: failures must surface as per-request ServerErrors on the request
// that hit them, while the connection keeps serving the rest.
func TestPipelinedUnderFaults(t *testing.T) {
	s, f := newTestServer(t, 600, 4, Config{Faults: fault.NewRegistry(7)})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 8, PoolSize: 1})
	if _, err := cl.Fault(context.Background(), "store.read:err:p=0.4"); err != nil {
		t.Fatal(err)
	}

	dom := f.Domain()
	queries := workload.SquareRange(dom, 0.05, 48, 11)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed, succeeded int
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q geom.Rect) {
			defer wg.Done()
			n, _, err := cl.RangeCountCtx(context.Background(), q)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var se *ServerError
				if !strings.Contains(err.Error(), "injected") {
					t.Errorf("query %d: unexpected error kind: %v (%T)", i, err, se)
				}
				failed++
				return
			}
			succeeded++
			if want := f.RangeCount(q); n != want {
				t.Errorf("query %d returned %d, want %d", i, n, want)
			}
		}(i, q)
	}
	wg.Wait()
	if failed == 0 {
		t.Error("p=0.4 injected errors never fired")
	}
	if succeeded == 0 {
		t.Error("no query survived: errors should be per-request, not per-connection")
	}

	// The connection must still be usable after the chaos is cleared.
	if _, err := cl.Fault(context.Background(), "clear"); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:8] {
		n, _, err := cl.RangeCountCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("post-chaos query %d: %v", i, err)
		}
		if want := f.RangeCount(q); n != want {
			t.Fatalf("post-chaos query %d returned %d, want %d", i, n, want)
		}
	}
}

// TestUntaggedCompat speaks the pre-pipelining protocol over a raw socket:
// bare frames, strictly one at a time, responses in FIFO order and untagged.
// This is the backward-compatibility guarantee for old clients.
func TestUntaggedCompat(t *testing.T) {
	s, f := newTestServer(t, 600, 4, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	dom := f.Domain()
	for i, q := range workload.SquareRange(dom, 0.05, 8, 3) {
		fr, err := encodeRequest(Request{Verb: VerbRange, Query: q, CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, fr); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if isEnvelope(resp.Verb) {
			t.Fatalf("query %d: untagged request got enveloped response %#x", i, resp.Verb)
		}
		res, err := DecodeResult(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.RangeCount(q); res.Count != want {
			t.Fatalf("query %d: count %d, want %d", i, res.Count, want)
		}
	}
}

// TestUntaggedPipelinedWire sends several bare frames back to back without
// reading: the server must answer them in order (the reader executes
// untagged requests inline, preserving FIFO for legacy clients).
func TestUntaggedPipelinedWire(t *testing.T) {
	s, f := newTestServer(t, 600, 4, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	queries := workload.SquareRange(f.Domain(), 0.05, 16, 9)
	var batch []byte
	for _, q := range queries {
		fr, err := encodeRequest(Request{Verb: VerbRange, Query: q, CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, buf.Bytes()...)
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		res, err := DecodeResult(resp)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := f.RangeCount(q); res.Count != want {
			t.Fatalf("response %d out of order: count %d, want %d", i, res.Count, want)
		}
	}
}

// TestTaggedWireErrors drives the tagged path over a raw socket and checks
// the server echoes ids verbatim — including on error replies — and fails
// the stream on malformed envelopes.
func TestTaggedWireErrors(t *testing.T) {
	s, f := newTestServer(t, 400, 2, Config{})

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A tagged garbage request must come back as a tagged error with the
	// same id, leaving the stream usable.
	send := func(id uint32, inner Frame) {
		t.Helper()
		w, err := wrapTagged(id, inner)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, w); err != nil {
			t.Fatal(err)
		}
	}
	send(77, Frame{Verb: VerbPoint, Payload: []byte{1, 2, 3}}) // truncated key
	resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	id, inner, err := UnwrapTagged(resp)
	if err != nil {
		t.Fatalf("error reply not enveloped: %v", err)
	}
	if id != 77 || inner.Verb != VerbError {
		t.Fatalf("error reply id %d verb %#x, want 77/%#x", id, inner.Verb, VerbError)
	}

	// The stream survives a per-request failure: a valid tagged query after
	// the bad one still answers with its own id.
	q := f.Domain()
	fr, err := encodeRequest(Request{Verb: VerbRange, Query: q, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	send(78, fr)
	resp, err = ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	id, inner, err = UnwrapTagged(resp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(inner)
	if err != nil {
		t.Fatal(err)
	}
	if id != 78 || res.Count != f.RangeCount(q) {
		t.Fatalf("id %d count %d, want 78/%d", id, res.Count, f.RangeCount(q))
	}

	// A structurally bad envelope (too short to hold an id) ends the stream.
	short := Frame{Verb: VerbTagged, Payload: []byte{1, 2}}
	if err := writeFrame(conn, short); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadFrame(conn)
	if err == nil {
		if resp.Verb != VerbError {
			t.Fatalf("malformed envelope answered with %#x, want error", resp.Verb)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := ReadFrame(conn); err == nil {
			t.Error("stream survived a malformed envelope")
		}
	}
}

// TestPipelinedStats exercises the admin verbs through the tagged path: the
// JSON-reply verbs must round-trip the envelope like the data verbs do.
func TestPipelinedStats(t *testing.T) {
	s, _ := newTestServer(t, 300, 2, Config{Faults: fault.NewRegistry(1)})
	cl := newTestClient(t, s, ClientConfig{Pipeline: 4})
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Disks != 2 {
		t.Errorf("stats over pipelined conn: disks = %d, want 2", snap.Disks)
	}
	if _, err := cl.Fault(context.Background(), "status"); err != nil {
		t.Errorf("fault status over pipelined conn: %v", err)
	}
}

// TestPipelineIDsOnWire sniffs the client's actual frames to prove distinct
// in-flight requests carry distinct ids (the precondition for everything
// else in this file).
func TestPipelineIDsOnWire(t *testing.T) {
	var wbuf []byte
	for i := 0; i < 4; i++ {
		fr, err := encodeRequest(Request{Verb: VerbStats})
		if err != nil {
			t.Fatal(err)
		}
		wbuf, err = AppendRequestFrame(wbuf, Request{Verb: VerbStats}, uint32(i+1), true)
		if err != nil {
			t.Fatal(err)
		}
		_ = fr
	}
	// Parse the concatenated frames back and collect ids.
	r := bytes.NewReader(wbuf)
	seen := map[uint32]bool{}
	for {
		fr, err := ReadFrame(r)
		if err != nil {
			break
		}
		id, inner, err := UnwrapTagged(fr)
		if err != nil {
			t.Fatal(err)
		}
		if inner.Verb != VerbStats {
			t.Fatalf("inner verb %#x", inner.Verb)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d on the wire", id)
		}
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("parsed %d tagged frames, want 4", len(seen))
	}
	// And the envelope header layout is what the doc promises:
	// u32 len | 0x40 | u32 id | inner verb | payload.
	if wbuf[4] != byte(VerbTagged) {
		t.Errorf("envelope verb byte = %#x", wbuf[4])
	}
	if id := binary.LittleEndian.Uint32(wbuf[5:9]); id != 1 {
		t.Errorf("first frame id = %d, want 1", id)
	}
}
