package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// newTestLayout builds a uniform 2-D grid file and writes it as a layout
// (writeTestLayout).
func newTestLayout(t testing.TB, records, disks, replicas int) (*gridfile.File, string) {
	t.Helper()
	f, err := synth.Uniform2D(records, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	return f, writeTestLayout(t, f, disks, replicas)
}

// writeTestLayout declusters f with minimax over disks, places replicas
// copies of each bucket, and writes the layout under t.TempDir.
func writeTestLayout(t testing.TB, f *gridfile.File, disks, replicas int) string {
	t.Helper()
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: replicas}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	return dir
}

func newTestServer(t testing.TB, records, disks int, cfg Config) (*Server, *gridfile.File) {
	t.Helper()
	f, dir := newTestLayout(t, records, disks, 1)
	s, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, f
}

func newTestClient(t testing.TB, s *Server, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Addr = s.Addr().String()
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runClosedLoop issues ops count-only range queries, cycling through ranges,
// from workers goroutines that each send their next query when the last one
// is answered.
func runClosedLoop(t *testing.T, cl *Client, ranges []geom.Rect, workers, ops int) {
	t.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				if _, _, err := cl.RangeCountCtx(context.Background(), ranges[i%len(ranges)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerEndToEnd is the acceptance demo: 16 concurrent clients issue
// over 1000 mixed point/range/count/k-NN/partial queries against a
// minimax-declustered store, every answer is validated against the
// in-memory grid file, zero errors are tolerated, and the STATS verb must
// report the query counts, per-disk bucket fetches and latency percentiles.
func TestServerEndToEnd(t *testing.T) {
	const (
		clients   = 16
		perClient = 64
		total     = clients * perClient // 1024 >= 1000
		disks     = 4
		k         = 5
	)
	s, f := newTestServer(t, 900, disks, Config{MaxInflight: 32})
	dom := f.Domain()

	// Pre-generate the workload and precompute expected answers against
	// the in-memory grid file, so the concurrent phase only has to compare.
	ranges := workload.SquareRange(dom, 0.05, total, 7)
	partials := workload.PartialMatch(dom, 1, total, 9)
	var keys []geom.Point
	f.Scan(func(key []float64, _ []byte) bool {
		keys = append(keys, geom.Point{key[0], key[1]})
		return len(keys) < total
	})
	if len(keys) == 0 {
		t.Fatal("no records")
	}

	wantRange := make([]int, total)
	wantLookup := make([]int, total)
	wantKNN := make([][]float64, total)
	wantPartial := make([]int, total)
	for i := 0; i < total; i++ {
		wantRange[i] = f.RangeCount(ranges[i])
		p := keys[i%len(keys)]
		wantLookup[i] = len(f.Lookup(p))
		nn := f.NearestNeighbors(p, k)
		dists := make([]float64, len(nn))
		for j, n := range nn {
			dists[j] = n.Distance
		}
		wantKNN[i] = dists
		wantPartial[i] = len(f.PartialMatch(partials[i]))
	}

	errCh := make(chan error, total)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClientMust(t, s)
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				i := c*perClient + j
				var err error
				switch i % 8 {
				case 0, 1: // range returning points
					pts, _, e := cl.RangeCtx(context.Background(), ranges[i])
					err = e
					if e == nil && len(pts) != wantRange[i] {
						err = fmt.Errorf("range %d: got %d points, want %d", i, len(pts), wantRange[i])
					}
					for _, p := range pts {
						if err == nil && !ranges[i].ContainsPoint(p) {
							err = fmt.Errorf("range %d: point %v outside query", i, p)
						}
					}
				case 2, 3: // count-only range
					n, info, e := cl.RangeCountCtx(context.Background(), ranges[i])
					err = e
					if e == nil && n != wantRange[i] {
						err = fmt.Errorf("count %d: got %d, want %d", i, n, wantRange[i])
					}
					if e == nil && n > 0 && info.Buckets == 0 {
						err = fmt.Errorf("count %d: %d records from zero bucket fetches", i, n)
					}
				case 4, 5: // exact point lookup of a stored key
					pts, _, e := cl.PointCtx(context.Background(), keys[i%len(keys)])
					err = e
					if e == nil && len(pts) != wantLookup[i] {
						err = fmt.Errorf("point %d: got %d, want %d", i, len(pts), wantLookup[i])
					}
				case 6: // k nearest neighbours
					pts, _, e := cl.KNNCtx(context.Background(), keys[i%len(keys)], k)
					err = e
					if e == nil {
						if len(pts) != len(wantKNN[i]) {
							err = fmt.Errorf("knn %d: got %d, want %d", i, len(pts), len(wantKNN[i]))
						}
						for j, p := range pts {
							if err != nil {
								break
							}
							d := euclid(p, keys[i%len(keys)])
							if math.Abs(d-wantKNN[i][j]) > 1e-9 {
								err = fmt.Errorf("knn %d: distance %d is %v, want %v", i, j, d, wantKNN[i][j])
							}
						}
					}
				case 7: // partial match
					pts, _, e := cl.PartialMatchCtx(context.Background(), partials[i])
					err = e
					if e == nil && len(pts) != wantPartial[i] {
						err = fmt.Errorf("partial %d: got %d, want %d", i, len(pts), wantPartial[i])
					}
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The STATS verb must account for everything the clients did.
	cl := NewClientMust(t, s)
	defer cl.Close()
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Errors != 0 || snap.Rejected != 0 {
		t.Errorf("errors=%d rejected=%d, want 0/0", snap.Errors, snap.Rejected)
	}
	counted := snap.Queries["range"] + snap.Queries["point"] +
		snap.Queries["knn"] + snap.Queries["partial"]
	if counted != total {
		t.Errorf("data queries counted = %d, want %d (%v)", counted, total, snap.Queries)
	}
	if snap.Queries["range"] != total/2 {
		t.Errorf("range queries = %d, want %d", snap.Queries["range"], total/2)
	}
	if len(snap.DiskFetches) != disks {
		t.Fatalf("disk fetch counters = %d, want %d", len(snap.DiskFetches), disks)
	}
	var fetches int64
	for d, n := range snap.DiskFetches {
		if n == 0 {
			t.Errorf("disk %d served zero bucket fetches", d)
		}
		fetches += n
	}
	if fetches == 0 || snap.PagesRead < fetches {
		t.Errorf("fetches=%d pages=%d: pages must cover fetches", fetches, snap.PagesRead)
	}
	if snap.SpansRead == 0 || snap.SpansRead > fetches {
		t.Errorf("fetches=%d spans=%d: every span serves at least one fetched bucket", fetches, snap.SpansRead)
	}
	lat := snap.LatencyMicros
	if lat.Count != total {
		t.Errorf("latency observations = %d, want %d", lat.Count, total)
	}
	if lat.Max <= 0 || lat.P99 < lat.P50 || lat.P50 < 0 {
		t.Errorf("implausible latency summary: %+v", lat)
	}
	if snap.Dims != 2 || snap.Disks != disks || len(snap.Domain) != 2 {
		t.Errorf("layout description wrong: %+v", snap)
	}
}

// NewClientMust is a shorthand used by concurrent test goroutines.
func NewClientMust(t *testing.T, s *Server) *Client {
	c, err := NewClient(ClientConfig{Addr: s.Addr().String()})
	if err != nil {
		t.Error(err)
		return nil
	}
	return c
}

// TestConcurrentRangeSharedCache drives overlapping range queries from many
// goroutines against one server under -race: every query shares the grid
// file's directory translation (no lock) and the bucket cache (hits, misses
// of one bucket read by several queries at once, and evictions all
// interleave), and every answer must match the sequential ground truth.
func TestConcurrentRangeSharedCache(t *testing.T) {
	const (
		goroutines = 12
		rounds     = 20
		disks      = 4
	)
	s, f := newTestServer(t, 1200, disks, Config{CacheBytes: 1 << 20})
	dom := f.Domain()
	queries := workload.SquareRange(dom, 0.10, 16, 3)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = f.RangeCount(q)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClientMust(t, s)
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries) // overlap across goroutines
				n, _, err := cl.RangeCountCtx(context.Background(), queries[i])
				if err != nil {
					errs <- err
					return
				}
				if n != want[i] {
					errs <- fmt.Errorf("query %d: got %d, want %d", i, n, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if snap.Cache == nil {
		t.Fatal("cache stats missing from snapshot")
	}
	c := snap.Cache
	if c.Hits == 0 {
		t.Error("repeated overlapping queries produced zero cache hits")
	}
	if c.Misses == 0 {
		t.Error("cold cache produced zero misses")
	}
	if c.Bytes > c.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", c.Bytes, c.MaxBytes)
	}
}

// TestServerCacheDisabled proves CacheBytes < 0 turns caching off entirely:
// queries still work, the snapshot has no cache block, and every repeat
// fetch hits the disks again.
func TestServerCacheDisabled(t *testing.T) {
	s, f := newTestServer(t, 300, 2, Config{CacheBytes: -1})
	cl := newTestClient(t, s, ClientConfig{})
	for i := 0; i < 3; i++ {
		n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
		if err != nil {
			t.Fatal(err)
		}
		if n != f.Len() {
			t.Fatalf("full-domain count = %d, want %d", n, f.Len())
		}
		if info.Buckets != len(f.Buckets()) || info.Pages < info.Buckets {
			t.Fatalf("full-domain count touched %d buckets / %d pages, want all %d buckets", info.Buckets, info.Pages, len(f.Buckets()))
		}
	}
	snap := s.Snapshot()
	if c := snap.Cache; c == nil || c.Entries != 0 || c.Hits != 0 {
		t.Errorf("cache stats with CacheBytes<0: %+v, want present with 0 entries and 0 hits", c)
	}
	var fetches int64
	for _, n := range snap.DiskFetches {
		fetches += n
	}
	if want := int64(3 * len(f.Buckets())); fetches != want {
		t.Errorf("disk fetches = %d, want %d (no caching)", fetches, want)
	}
}

// TestServerRejectsMalformedStream sends hostile bytes to a live server:
// the connection must be answered with an error or closed, and the server
// must keep serving well-formed clients afterwards.
func TestServerRejectsMalformedStream(t *testing.T) {
	s, f := newTestServer(t, 200, 2, Config{})

	// An oversized length prefix must draw an error reply, not a crash.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrameBytes+1)
	hdr[4] = byte(VerbPoint)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no error reply to oversized frame: %v", err)
	}
	if fr.Verb != VerbError {
		t.Errorf("got verb 0x%02x, want error", uint8(fr.Verb))
	}
	conn.Close()

	// Garbage that parses as a frame but not as a request: error reply,
	// connection stays usable.
	conn2, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := writeFrame(conn2, Frame{Verb: VerbPoint, Payload: []byte{0xDE, 0xAD}}); err != nil {
		t.Fatal(err)
	}
	fr, err = ReadFrame(conn2)
	if err != nil || fr.Verb != VerbError {
		t.Fatalf("malformed request not answered with error: %v %v", fr.Verb, err)
	}

	// The server is still healthy for a real client.
	cl := newTestClient(t, s, ClientConfig{})
	n, _, err := cl.RangeCountCtx(context.Background(), f.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if n != f.Len() {
		t.Errorf("full-domain count = %d, want %d", n, f.Len())
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Errors < 2 {
		t.Errorf("protocol errors counted = %d, want >= 2", snap.Errors)
	}
}

// armed returns a failpoint registry with spec armed, for Config.Faults.
func armed(t testing.TB, spec string) *fault.Registry {
	t.Helper()
	reg := fault.NewRegistry(1)
	if err := reg.SetSpec(spec); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestServerDeadlines stalls one disk's reads and proves a query whose I/O
// cannot finish within the deadline is answered with an error while the
// server stays healthy.
func TestServerDeadlines(t *testing.T) {
	s, f := newTestServer(t, 600, 2, Config{
		QueryTimeout: 100 * time.Millisecond,
		Faults:       armed(t, fault.StoreReadDiskSite(0)+":delay=150ms"),
	})
	cl := newTestClient(t, s, ClientConfig{Retries: -1})

	// A full-domain range touches every bucket; disk 0 stalls each read
	// 150ms, past the 100ms deadline.
	_, _, err := cl.RangeCtx(context.Background(), f.Domain())
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want a server error", err)
	}
	if !strings.Contains(se.Msg, "deadline") && !strings.Contains(se.Msg, "busy") {
		t.Errorf("unexpected deadline message: %q", se.Msg)
	}

	// A single-bucket point query on the other disk fits in the deadline;
	// stats still serve.
	var key geom.Point
	f.Scan(func(k []float64, _ []byte) bool {
		key = geom.Point{k[0], k[1]}
		id, _ := s.st.Grid().BucketAt(key)
		pl, _ := s.st.Placement(id)
		return pl.Disk == 0
	})
	if _, _, err := cl.PointCtx(context.Background(), key); err != nil {
		t.Fatalf("single-bucket query after timeout: %v", err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The query above was admitted (the admission queue was empty) and then
	// expired mid-flight: that must land in deadline_exceeded, not in the
	// admission-control rejection counter.
	if snap.DeadlineExceeded == 0 {
		t.Error("mid-flight deadline expiry not counted as deadline_exceeded")
	}
	if snap.Rejected != 0 {
		t.Errorf("mid-flight deadline expiry counted as %d admission rejections", snap.Rejected)
	}

	// A deadline belongs to its own query, and so does a read. A point
	// query's read of a bucket stalls past its deadline; the disk recovers
	// meanwhile, and a second query of the same bucket, with time left,
	// reads it itself once the disk's worker is free, and answers: the first
	// query's expiry fails no one else.
	reg := fault.NewRegistry(1)
	js, jf := newTestServer(t, 600, 2, Config{QueryTimeout: 300 * time.Millisecond, Faults: reg})
	stalledCl := newTestClient(t, js, ClientConfig{Retries: -1})
	secondCl := newTestClient(t, js, ClientConfig{Retries: -1})
	jf.Scan(func(k []float64, _ []byte) bool { key = geom.Point{k[0], k[1]}; return false })
	if err := reg.SetSpec("store.read:delay=10s"); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan error, 1)
	go func() {
		_, _, err := stalledCl.PointCtx(context.Background(), key)
		stalled <- err
	}()
	for reg.Total() == 0 { // the first read has its placement and stalls
		time.Sleep(time.Millisecond)
	}
	reg.Clear()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	pts, _, err := secondCl.PointCtx(context.Background(), key)
	if err != nil || len(pts) == 0 {
		t.Errorf("second read of a stalled bucket: %d records, %v (after %v)", len(pts), err, time.Since(start))
	}
	if err := <-stalled; err == nil {
		t.Error("the stalled query answered within its deadline")
	}
	snap = js.Snapshot()
	if snap.Errors != 0 || snap.DeadlineExceeded != 1 {
		t.Errorf("errors=%d deadline_exceeded=%d, want 0/1 (the stalled query's expiry alone)", snap.Errors, snap.DeadlineExceeded)
	}
}

// TestServerAdmissionControl saturates a MaxInflight=1 server: with a
// generous deadline everything is served (backpressure, not failure); with
// a tight one the overload is rejected rather than queued forever.
func TestServerAdmissionControl(t *testing.T) {
	s, f := newTestServer(t, 300, 2, Config{
		MaxInflight:  1,
		QueryTimeout: 2 * time.Second,
		Faults:       armed(t, "store.read:delay=5ms"),
	})
	var key geom.Point
	f.Scan(func(k []float64, _ []byte) bool { key = geom.Point{k[0], k[1]}; return false })

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClientMust(t, s)
			defer cl.Close()
			if _, _, err := cl.PointCtx(context.Background(), key); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("backpressured query failed: %v", err)
	}

	// The tight server's one admission slot is held here, so the four
	// queries can only expire waiting for it. (A query holding the slot
	// until its own deadline would admit each waiter just before that
	// waiter's deadline, to expire mid-flight instead.)
	tight, fTight := newTestServer(t, 300, 2, Config{
		MaxInflight:  1,
		QueryTimeout: 30 * time.Millisecond,
	})
	tight.sem <- struct{}{}
	var wg2 sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			cl, err := NewClient(ClientConfig{Addr: tight.Addr().String(), Retries: -1})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			var se *ServerError
			if _, _, err := cl.RangeCountCtx(context.Background(), fTight.Domain()); !errors.As(err, &se) {
				t.Errorf("query against a full admission queue: %v, want a server error", err)
			}
		}()
	}
	wg2.Wait()
	// Queries that expired while queued for admission are rejections; they
	// must be visible on the admission counter, not only as error replies.
	if snap := tight.Snapshot(); snap.Rejected != 4 || snap.DeadlineExceeded != 0 {
		t.Errorf("rejected=%d deadline_exceeded=%d, want 4/0", snap.Rejected, snap.DeadlineExceeded)
	}
	<-tight.sem
	cl := NewClientMust(t, tight)
	defer cl.Close()
	if n, _, err := cl.RangeCountCtx(context.Background(), fTight.Domain()); err != nil || n != fTight.Len() {
		t.Errorf("after the slot is released: count %d (%v), want %d", n, err, fTight.Len())
	}
}

// TestGracefulShutdown proves Close drains: queries in flight when Close is
// called complete and deliver their replies; new connections are refused
// afterwards.
func TestGracefulShutdown(t *testing.T) {
	s, f := newTestServer(t, 400, 2, Config{Faults: armed(t, "store.read:delay=100ms")})

	started := make(chan struct{}, 4)
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cl, err := NewClient(ClientConfig{Addr: s.Addr().String(), Retries: -1})
			if err != nil {
				results <- err
				return
			}
			defer cl.Close()
			started <- struct{}{}
			n, _, err := cl.RangeCountCtx(context.Background(), f.Domain())
			if err == nil && n != f.Len() {
				err = fmt.Errorf("drained query returned %d of %d records", n, f.Len())
			}
			results <- err
		}()
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let the queries reach the disks
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight query during shutdown: %v", err)
		}
	}

	if _, err := net.DialTimeout("tcp", s.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after Close")
	}
	s.Close() // idempotent
}

// heldDeadlineConn holds its first SetReadDeadline — a connection reader
// arming its idle timeout — until a second call, Close's, has been applied,
// so the reader's deadline is the one that lands last.
type heldDeadlineConn struct {
	net.Conn
	calls    atomic.Int32
	arrived  chan struct{}
	released chan struct{}
}

func (c *heldDeadlineConn) SetReadDeadline(t time.Time) error {
	switch c.calls.Add(1) {
	case 1:
		close(c.arrived)
		<-c.released
	case 2:
		defer close(c.released)
	}
	return c.Conn.SetReadDeadline(t)
}

// TestCloseDuringIdleRearm closes the server while an idle connection's
// reader is between its check for shutdown and re-arming its idle deadline:
// Close's "read deadline now" is applied first and the reader's two minutes
// after it. The reader must still notice the shutdown instead of blocking in
// its read until Close gives up draining (drainTimeout, 5 s) and force-closes
// the connection.
func TestCloseDuringIdleRearm(t *testing.T) {
	s, _ := newTestEngine(t, 200, 1, 1, Config{})
	srv, cli := net.Pipe()
	defer cli.Close()
	c := &heldDeadlineConn{Conn: srv, arrived: make(chan struct{}), released: make(chan struct{})}
	// Register the connection the way acceptLoop does.
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.connWg.Add(1)
	go s.handleConn(c)

	<-c.arrived
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with an idle connection open, want well under a second", d.Round(time.Millisecond))
	}
}

// TestServerGridStoreMismatch proves New refuses to serve a store written
// from a different grid file.
func TestServerGridStoreMismatch(t *testing.T) {
	_, dir := newTestLayout(t, 300, 2, 1)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	other, err := synth.Uniform2D(500, 99).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(other, st, Config{}); err == nil {
		t.Error("mismatched grid accepted")
	}
}

// TestClientRetriesExhausted proves the client surfaces transport failures
// after its retry budget instead of hanging.
func TestClientRetriesExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // accept and immediately hang up, forever
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	defer ln.Close()

	cl, err := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Retries: 2,
		RequestTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.PointCtx(context.Background(), geom.Point{1, 2})
	if err == nil {
		t.Fatal("request against hang-up server succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("retry accounting missing from error: %v", err)
	}
}

// TestRetryDelayJitter proves backoff sleeps stay within the exponential
// window, never go non-positive, and actually vary between samples.
func TestRetryDelayJitter(t *testing.T) {
	const base = 25 * time.Millisecond
	for attempt := 1; attempt <= 4; attempt++ {
		window := base << (attempt - 1)
		seen := make(map[time.Duration]bool)
		for i := 0; i < 200; i++ {
			d := retryDelay(base, attempt)
			if d <= 0 || d > window {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, window)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Errorf("attempt %d: 200 samples produced no jitter", attempt)
		}
	}
	if d := retryDelay(base, 200); d <= 0 || d > base {
		t.Errorf("overflowed window not clamped: %v", d)
	}
}

// TestHTTPEndpoints exercises the optional /metrics, /healthz and
// /debug/pprof listener.
func TestHTTPEndpoints(t *testing.T) {
	// Pprof without HTTPAddr has nowhere to serve from: it is refused, by
	// name, instead of starting a server with no profiling endpoint.
	_, dir := newTestLayout(t, 200, 2, 1)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s, err := New(st.Grid(), st, Config{Pprof: true}); err == nil {
		s.Close()
		t.Error("Pprof without HTTPAddr accepted")
	} else if !strings.Contains(err.Error(), "Config.Pprof") || !strings.Contains(err.Error(), "Config.HTTPAddr") {
		t.Errorf("refusal does not name both fields: %v", err)
	}

	s, f := newTestServer(t, 200, 2, Config{HTTPAddr: "127.0.0.1:0", Pprof: true})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCountCtx(context.Background(), f.Domain()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		conn, err := net.Dial("tcp", s.HTTPAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", path)
		var b strings.Builder
		buf := make([]byte, 4096)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := conn.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `gridserver_queries_total{verb="range"} 1`) {
		t.Errorf("metrics missing range counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "gridserver_disk_bucket_fetches_total") {
		t.Errorf("metrics missing per-disk fetches:\n%s", metrics)
	}
	if !strings.Contains(metrics, "gridserver_cache_hits_total") ||
		!strings.Contains(metrics, "gridserver_cache_resident_bytes") {
		t.Errorf("metrics missing cache counters:\n%s", metrics)
	}
	health := get("/healthz")
	if !strings.Contains(health, `"status":"ok"`) {
		t.Errorf("healthz not ok:\n%s", health)
	}
	pprofOut := get("/debug/pprof/cmdline")
	if !strings.Contains(pprofOut, "200 OK") {
		t.Errorf("pprof endpoint not served:\n%.200s", pprofOut)
	}
}
