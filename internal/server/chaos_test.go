package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// httpGet fetches one path from the server's HTTP listener over a raw
// HTTP/1.0 exchange (no net/http client dependency in tests).
func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
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

// chaosProfile is the satellite chaos schedule: 5% of preads fail, 5% stall
// 10ms, 2% deliver torn pages. A failed read is never retried on its disk:
// at r=2 the other copy answers most of them, and degraded mode the rest.
const chaosProfile = "store.read:err:p=0.05;store.read:delay=10ms:p=0.05;store.read:torn:p=0.02"

// TestChaosRangeQueriesNeverErrorOut drives 1000 concurrent range queries
// into a server whose store randomly fails, stalls and tears reads, on one
// set of records laid out once without and once with a second copy. The
// contract under chaos: no query hangs, no query errors out — every answer
// is either complete (and exactly correct) or explicitly degraded (and a
// strict subset of the correct answer). The second copy is what a failed
// read falls back on: at r=2 reads fail over, and the same queries under
// the same schedule degrade less than a quarter as often as at r=1. Run
// under -race by scripts/check.sh.
func TestChaosRangeQueriesNeverErrorOut(t *testing.T) {
	const disks = 4
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	degraded := map[int]int64{}
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			reg := fault.NewRegistry(7)
			if err := reg.SetSpec(chaosProfile); err != nil {
				t.Fatal(err)
			}
			s, _ := newReplicatedServer(t, f, g, alloc, r, Config{
				Faults:     reg,
				Degraded:   true,
				CacheBytes: -1, // every query does real injected I/O
			})
			degraded[r] = chaosRanges(t, s, f, disks)
			if t.Failed() || r == 1 {
				return
			}
			snap := s.Snapshot()
			t.Logf("degraded: r=2 %d (%d failovers), r=1 %d", degraded[2], snap.ReplicaFailover, degraded[1])
			if snap.ReplicaFailover == 0 {
				t.Error("r=2 chaos run failed over zero buckets")
			}
			if 4*degraded[2] >= degraded[1] {
				t.Errorf("r=2 degraded %d answers, r=1 %d: want fewer than a quarter", degraded[2], degraded[1])
			}
		})
	}
}

// chaosRanges runs the chaos workload against s, checks every answer and the
// server's counters, and returns the number of degraded answers.
func chaosRanges(t *testing.T, s *Server, f *gridfile.File, disks int) int64 {
	const (
		clients   = 8
		perClient = 125
		total     = clients * perClient // 1000
	)
	dom := f.Domain()
	ranges := workload.SquareRange(dom, 0.05, total, 11)
	want := make([]int, total)
	for i, q := range ranges {
		want[i] = f.RangeCount(q)
	}
	// Membership oracle for the strict-subset check on point-returning
	// queries: a degraded answer may miss records but must never invent one.
	inFile := map[[2]float64]int{}
	f.Scan(func(key []float64) bool {
		inFile[[2]float64{key[0], key[1]}]++
		return true
	})

	var wg sync.WaitGroup
	var degraded, complete int64
	var mu sync.Mutex
	errCh := make(chan error, total)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClientMust(t, s)
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				i := c*perClient + j
				if i%2 == 0 {
					n, info, err := cl.RangeCountCtx(context.Background(), ranges[i])
					if err != nil {
						errCh <- fmt.Errorf("count %d errored under chaos: %w", i, err)
						return
					}
					if info.Degraded {
						if info.MissedDisks < 1 || info.MissedDisks > disks {
							errCh <- fmt.Errorf("count %d: degraded with missed=%d", i, info.MissedDisks)
							return
						}
						if n > want[i] {
							errCh <- fmt.Errorf("count %d: degraded answer %d exceeds truth %d", i, n, want[i])
							return
						}
						mu.Lock()
						degraded++
						mu.Unlock()
					} else {
						if info.MissedDisks != 0 {
							errCh <- fmt.Errorf("count %d: missed=%d without degraded flag", i, info.MissedDisks)
							return
						}
						if n != want[i] {
							errCh <- fmt.Errorf("count %d: non-degraded answer %d, want %d", i, n, want[i])
							return
						}
						mu.Lock()
						complete++
						mu.Unlock()
					}
				} else {
					pts, info, err := cl.RangeCtx(context.Background(), ranges[i])
					if err != nil {
						errCh <- fmt.Errorf("range %d errored under chaos: %w", i, err)
						return
					}
					if len(pts) > want[i] || (!info.Degraded && len(pts) != want[i]) {
						errCh <- fmt.Errorf("range %d: %d points, want %d (degraded=%v)",
							i, len(pts), want[i], info.Degraded)
						return
					}
					mu.Lock()
					if info.Degraded {
						degraded++
					} else {
						complete++
					}
					mu.Unlock()
					for _, p := range pts {
						if !ranges[i].ContainsPoint(p) || inFile[[2]float64{p[0], p[1]}] == 0 {
							errCh <- fmt.Errorf("range %d: invented point %v", i, p)
							return
						}
					}
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos workload hung")
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return degraded
	}
	if complete == 0 {
		t.Error("every query degraded — no read came back whole")
	}

	snap := s.Snapshot()
	if snap.FaultInjected == 0 {
		t.Error("chaos run injected zero faults")
	}
	if snap.Degraded != degraded {
		t.Errorf("server counted %d degraded queries, clients saw %d", snap.Degraded, degraded)
	}
	if snap.Errors != 0 {
		t.Errorf("%d queries errored out under chaos; all failures must degrade", snap.Errors)
	}
	return degraded
}

// TestDegradedDiskKill kills one whole disk via the FAULT admin verb and
// proves: every full-domain range is flagged degraded with exactly one
// missed disk and exactly the surviving disks' records; a full-domain count,
// which reads only the buckets owning an edge cell of the grid and takes the
// rest from the directory, misses exactly the dead disk's records in those
// buckets, and is degraded iff the disk holds one; clearing the fault
// restores complete answers; and the /metrics endpoint exports nonzero
// fault/degraded counters.
func TestDegradedDiskKill(t *testing.T) {
	const disks = 4
	reg := fault.NewRegistry(3)
	s, f := newTestServer(t, 700, disks, Config{
		Faults:     reg,
		Degraded:   true,
		CacheBytes: -1,
		HTTPAddr:   "127.0.0.1:0",
	})
	cl := newTestClient(t, s, ClientConfig{})

	// Arm the kill through the admin verb, as an operator would.
	const kill = 1
	st, err := cl.Fault(context.Background(), fault.StoreReadDiskSite(kill)+":err")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sites) != 1 || st.Sites[0].Site != fault.StoreReadDiskSite(kill) {
		t.Fatalf("armed sites = %+v", st.Sites)
	}

	// Count the records the dead disk holds — the degraded range must be
	// everything else — and those of them in a bucket owning an edge cell of
	// the grid, the only ones a full-domain count reads.
	lost, lostEdge := 0, 0
	sizes := f.CellSizes()
	for _, v := range f.Buckets() {
		pl, ok := s.st.Placement(v.ID)
		if !ok || pl.Disk != kill {
			continue
		}
		lost += pl.Recs
		for d, n := range sizes {
			if v.CellLo[d] == 0 || int(v.CellHi[d]) == n-1 {
				lostEdge += pl.Recs
				break
			}
		}
	}
	if lost == 0 || lostEdge == 0 || lostEdge == lost {
		t.Fatalf("disk %d holds %d records, %d of them in edge buckets: want some of each", kill, lost, lostEdge)
	}

	for i := 0; i < 5; i++ {
		pts, info, err := cl.RangeCtx(context.Background(), f.Domain())
		if err != nil {
			t.Fatalf("full-domain range with a dead disk errored: %v", err)
		}
		if !info.Degraded || info.MissedDisks != 1 {
			t.Fatalf("range: degraded=%v missed=%d, want true/1", info.Degraded, info.MissedDisks)
		}
		if len(pts) != f.Len()-lost {
			t.Fatalf("degraded range = %d points, want %d (%d total - %d on disk %d)",
				len(pts), f.Len()-lost, f.Len(), lost, kill)
		}

		n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
		if err != nil {
			t.Fatalf("full-domain count with a dead disk errored: %v", err)
		}
		if !info.Degraded || info.MissedDisks != 1 {
			t.Fatalf("count: degraded=%v missed=%d, want true/1", info.Degraded, info.MissedDisks)
		}
		if n != f.Len()-lostEdge {
			t.Fatalf("degraded count = %d, want %d (%d total - %d in edge buckets on disk %d)",
				n, f.Len()-lostEdge, f.Len(), lostEdge, kill)
		}
	}

	// Status shows the rule firing; clear restores complete service.
	st, err = cl.Fault(context.Background(), "status")
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected == 0 || len(st.Sites) != 1 || st.Sites[0].Fired == 0 {
		t.Fatalf("status after kill: %+v", st)
	}
	if _, err := cl.Fault(context.Background(), "clear"); err != nil {
		t.Fatal(err)
	}
	n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
	if err != nil || info.Degraded || n != f.Len() {
		t.Fatalf("after clear: n=%d degraded=%v err=%v, want %d/false/nil", n, info.Degraded, err, f.Len())
	}

	// A malformed spec is answered with a server error, not a hang.
	if _, err := cl.Fault(context.Background(), "store.read:bogus"); err == nil {
		t.Error("malformed fault spec accepted")
	} else {
		var se *ServerError
		if !errors.As(err, &se) {
			t.Errorf("malformed spec drew a transport error: %v", err)
		}
	}

	// The Prometheus endpoint must export the chaos counters (and the span
	// planner's, which every successful read moves), nonzero.
	metrics := httpGet(t, s.HTTPAddr().String(), "/metrics")
	for _, name := range []string{
		"gridserver_fault_injected_total",
		"gridserver_queries_degraded_total",
		"gridserver_spans_read_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s:\n%s", name, metrics)
		}
		if strings.Contains(metrics, name+" 0\n") {
			t.Errorf("/metrics reports %s = 0 after the kill", name)
		}
	}
}

// TestDegradedCountReadsOnlyItsBorder: at r=1 with one disk dead, a count
// whose border buckets all live on other disks answers complete and
// undegraded, though the dead disk holds buckets inside its box, and reads
// nothing from the dead disk: the inside buckets' records come from the
// directory (DESIGN S53). A range over the same box reads those buckets and
// comes back degraded.
func TestDegradedCountReadsOnlyItsBorder(t *testing.T) {
	const disks = 8
	reg := fault.NewRegistry(1)
	s, f := newTestServer(t, 3000, disks, Config{Faults: reg, Degraded: true, CacheBytes: -1})
	cl := newTestClient(t, s, ClientConfig{})
	diskOf := func(id int32) int {
		pl, ok := s.st.Placement(id)
		if !ok {
			t.Fatalf("bucket %d has no placement", id)
		}
		return pl.Disk
	}

	// A box and a disk that holds a bucket inside the box and none on its
	// border.
	var q geom.Rect
	dead := -1
search:
	for _, ratio := range []float64{0.01, 0.02, 0.05} {
		for _, box := range workload.SquareRange(f.Domain(), ratio, 200, 5) {
			border, _, _ := f.CountSplitAppend(box, nil)
			onBorder := make([]bool, disks)
			for _, id := range border {
				onBorder[diskOf(id)] = true
			}
			for _, id := range f.BucketsInRange(box) {
				if d := diskOf(id); !onBorder[d] { // so id is not on the border either
					q, dead = box, d
					break search
				}
			}
		}
	}
	if dead < 0 {
		t.Fatal("no box has a disk holding an inside bucket and no border bucket")
	}
	reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(dead), Kind: fault.KindError})

	before := s.Snapshot().DiskFetches[dead]
	n, info, err := cl.RangeCountCtx(context.Background(), q)
	if err != nil || info.Degraded || n != f.RangeCount(q) {
		t.Fatalf("count of %v with disk %d dead: %d (degraded=%v, err %v), want %d, complete", q, dead, n, info.Degraded, err, f.RangeCount(q))
	}
	if got := s.Snapshot().DiskFetches[dead] - before; got != 0 {
		t.Errorf("the count fetched %d buckets from disk %d, which holds none on its border", got, dead)
	}
	pts, info, err := cl.RangeCtx(context.Background(), q)
	if err != nil || !info.Degraded || len(pts) >= f.RangeCount(q) {
		t.Errorf("range of %v with disk %d dead: %d points (degraded=%v, err %v), want fewer than %d, degraded", q, dead, len(pts), info.Degraded, err, f.RangeCount(q))
	}
}

// TestDegradedOffFailsFast proves the zero-value Config keeps the original
// fail-fast contract: with degradation off, a dead disk turns into a query
// error, never a silent partial answer.
func TestDegradedOffFailsFast(t *testing.T) {
	reg := fault.NewRegistry(5)
	reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(0), Kind: fault.KindError})
	s, f := newTestServer(t, 400, 2, Config{
		Faults:     reg,
		CacheBytes: -1,
	})
	cl := newTestClient(t, s, ClientConfig{Retries: -1})
	_, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("dead disk with Degraded=false: err=%v, want a server error", err)
	}
	if info.Degraded {
		t.Error("error path carried a degraded flag")
	}
}

// TestClientCancelDuringBackoff is the client regression test: a context
// cancelled while the client sleeps between retry attempts must abort the
// request promptly with the context's error, not ride out the backoff.
func TestClientCancelDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // hang up on everyone: every attempt fails, forcing backoff
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
		Addr:           ln.Addr().String(),
		Retries:        5,
		backoff:        10 * time.Second, // without cancellation this blocks for minutes
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond) // first attempt fails, then mid-backoff
		cancel()
	}()
	start := time.Now()
	err = cl.exchange(ctx, Request{Verb: VerbStats}, func(Frame) error { return nil })
	if err == nil {
		t.Fatal("request against hang-up server succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation not surfaced: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancel mid-backoff took %v; the 10s backoff was not interrupted", el)
	}
}

// TestFaultCommandNotRetried proves the FAULT verb gets exactly one attempt:
// re-sending an arm command after a lost reply could double-arm the rules,
// so a transport failure must surface instead of being retried.
func TestFaultCommandNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dials := 0
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			dials++
			mu.Unlock()
			c.Close()
		}
	}()
	defer ln.Close()

	cl, err := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Retries: 3,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Fault(context.Background(), "status"); err == nil {
		t.Fatal("FAULT against hang-up server succeeded")
	}
	mu.Lock()
	faultDials := dials
	dials = 0
	mu.Unlock()
	if faultDials != 1 {
		t.Errorf("non-idempotent FAULT used %d connection attempts, want 1", faultDials)
	}

	// Sanity: an idempotent request on the same client does retry.
	if _, err := cl.Stats(); err == nil {
		t.Fatal("STATS against hang-up server succeeded")
	}
	mu.Lock()
	statsDials := dials
	mu.Unlock()
	if statsDials != 4 {
		t.Errorf("idempotent STATS used %d connection attempts, want 4", statsDials)
	}
}
