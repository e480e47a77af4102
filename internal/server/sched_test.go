package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// placementsOf returns where each of st's buckets lives, in the grid's
// Buckets() order.
func placementsOf(st *store.Store) []store.Placement {
	var out []store.Placement
	for _, v := range st.Grid().Buckets() {
		pl, _ := st.Placement(v.ID)
		out = append(out, pl)
	}
	return out
}

// TestDiskQueueServesEachRequestAlone fails if queueing behind other requests
// ever changes a request's outcome, or if a disk serves its queue out of
// arrival order. Six fetches for disjoint buckets of one disk are sent to the
// disk's queue back to back: two plain ones, one whose query already expired,
// one naming a bucket the store does not hold, one traced, and one more plain
// one behind them. Each must come back with exactly its own buckets' records,
// its own page count and its own error — the expired and the failing request
// taking nobody with them — and the traced one with its own stage times. They
// share one response channel, and the answers must arrive in the order the
// requests were sent: disk-model's latency (spans on the busiest disk × the
// device delay) assumes a disk serves one request at a time, first come first
// served.
func TestDiskQueueServesEachRequestAlone(t *testing.T) {
	s, f := newTestServer(t, 900, 1, Config{CacheBytes: -1})
	file := placementsOf(s.st)
	const n = 6
	if len(file) < 2*n {
		t.Fatalf("layout has %d buckets, want at least %d", len(file), 2*n)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	const expiredAt, unknownAt, tracedAt = 2, 3, 4
	tr := new(Trace)
	resp := make(chan fetchResp, n)
	reqs := make([]fetchReq, n)
	wantPages := make([]int, n)
	for i := range reqs {
		// Request i wants every n-th bucket starting at i: the requests
		// interleave along the file, so adjacent pages belong to different
		// requests — the case a shared read would have merged.
		for j := i; j < len(file); j += n {
			reqs[i].ids = append(reqs[i].ids, file[j].ID)
			reqs[i].idxs = append(reqs[i].idxs, j)
			wantPages[i] += file[j].Pages
		}
		reqs[i].ctx, reqs[i].resp = context.Background(), resp
	}
	reqs[expiredAt].ctx = expired
	reqs[unknownAt].ids = append(reqs[unknownAt].ids, 1<<30)
	reqs[unknownAt].idxs = append(reqs[unknownAt].idxs, len(file))
	reqs[tracedAt].tr, reqs[tracedAt].enq = tr, time.Now().Add(-time.Millisecond)
	for i := range reqs {
		reqs[i].out = make([]geom.Flat, len(reqs[i].ids))
	}

	before := s.Snapshot()
	for _, r := range reqs {
		s.sched[0] <- r
	}

	for i := range reqs {
		var r fetchResp
		select {
		case r = <-resp:
		case <-time.After(10 * time.Second):
			t.Fatalf("answer %d never came", i)
		}
		if !slices.Equal(r.ids, reqs[i].ids) || !slices.Equal(r.idxs, reqs[i].idxs) || r.disk != 0 {
			t.Fatalf("answer %d echoes ids %v idxs %v disk %d, want request %d's: answers out of arrival order",
				i, r.ids, r.idxs, r.disk, i)
		}
		switch i {
		case expiredAt:
			if !errors.Is(r.err, context.Canceled) || r.recs != nil || r.pages != 0 {
				t.Errorf("expired request: err=%v, %d buckets, %d pages; want its context's error and nothing read", r.err, len(r.recs), r.pages)
			}
			continue
		case unknownAt:
			if r.err == nil || !strings.Contains(r.err.Error(), "unknown bucket") || r.recs != nil || r.pages != 0 {
				t.Errorf("request for an unknown bucket: err=%v, %d buckets, %d pages", r.err, len(r.recs), r.pages)
			}
			continue
		}
		if r.err != nil {
			t.Errorf("request %d: %v", i, r.err)
			continue
		}
		if r.pages != wantPages[i] {
			t.Errorf("request %d: charged %d pages, its buckets hold %d", i, r.pages, wantPages[i])
		}
		for k, id := range r.ids {
			want := f.AppendBucketKeys(nil, id)
			// The layout writer stores a bucket's keys in this order.
			if got := r.recs[k]; !slices.Equal(got.Coords, want) {
				t.Errorf("request %d: bucket %d came back with %d records, the grid holds %d (or different ones)",
					i, id, got.Len(), len(want)/f.Dims())
			}
		}
	}

	if tr.stages[stageFetchWait].Load() <= 0 || tr.stages[stagePread].Load() <= 0 || tr.stages[stageDecode].Load() <= 0 {
		t.Errorf("traced request: fetch_wait=%d pread=%d decode=%d ns, want all positive",
			tr.stages[stageFetchWait].Load(), tr.stages[stagePread].Load(), tr.stages[stageDecode].Load())
	}
	after := s.Snapshot()
	served := 0
	for i, p := range wantPages {
		if i != expiredAt && i != unknownAt {
			served += p
		}
	}
	if got := after.PagesRead - before.PagesRead; got != int64(served) {
		t.Errorf("queue read %d wanted pages, its four successful requests hold %d", got, served)
	}
	if after.MergedFetches != 0 {
		t.Errorf("merged_fetches = %d, want the constant 0", after.MergedFetches)
	}
}

// TestQueryContendsWithWorkerForItsDisk holds a disk's two rules while
// queries read their own batches: one read at a time, in arrival order.
// Four goroutines act as queries on a two-disk layout where half the reads
// stall 200 µs: each round, each submits one single-bucket request per disk,
// then reads itself what it can reach (readOwn) and takes the rest from the
// disk workers, as readLeads does. Every request carries its own trace, so its
// read's start (submit + fetch_wait) and end (start + pread + decode) are
// known. Sorted by their number in the disk's queue, the reads must each
// start after the one before has ended: an overtaken request or two reads in
// flight on one disk fail. Both kinds of reader must have read batches, or
// there was no contention to hold the rules against.
func TestQueryContendsWithWorkerForItsDisk(t *testing.T) {
	const disks, queries, rounds = 2, 4, 25
	s, _ := newTestServer(t, 900, disks, Config{CacheBytes: -1, Faults: armed(t, "store.read:delay=200us:p=0.5")})
	onDisk := make([][]int32, disks)
	for _, pl := range placementsOf(s.st) {
		onDisk[pl.OwnerDisks[0]] = append(onDisk[pl.OwnerDisks[0]], pl.ID)
	}

	var mu sync.Mutex
	var sent []fetchReq // every request as submitted: disk, number, trace
	var wg sync.WaitGroup
	for g := 0; g < queries; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp := make(chan fetchResp, disks)
			for round := 0; round < rounds; round++ {
				var own []fetchReq
				for d := 0; d < disks; d++ {
					id := onDisk[d][(g*rounds+round)%len(onDisk[d])]
					b := leadBatch{ids: []int32{id}, idxs: []int{0}, out: make([]geom.Flat, 1)}
					own = append(own, s.submit(d, fetchReq{leadBatch: b, ctx: context.Background(), resp: resp, tr: new(Trace)}))
				}
				mu.Lock()
				sent = append(sent, own...)
				mu.Unlock()
				for range disks {
					var r fetchResp
					var read bool
					if own, r, read = s.readOwn(own); !read {
						r = <-resp
					}
					if r.err != nil || r.recs[0].Len() == 0 {
						t.Errorf("bucket %d on disk %d: %v, %d records", r.ids[0], r.disk, r.err, r.recs[0].Len())
					}
				}
			}
		}(g)
	}
	wg.Wait()

	type span struct {
		seq        uint64
		start, end time.Time
	}
	reads := make([][]span, disks)
	for _, req := range sent {
		start := req.enq.Add(time.Duration(req.tr.stages[stageFetchWait].Load()))
		end := start.Add(time.Duration(req.tr.stages[stagePread].Load() + req.tr.stages[stageDecode].Load()))
		reads[req.disk] = append(reads[req.disk], span{req.seq, start, end})
	}
	for d, rs := range reads {
		slices.SortFunc(rs, func(a, b span) int { return int(a.seq) - int(b.seq) })
		for i, r := range rs {
			if r.seq != uint64(i) {
				t.Fatalf("disk %d: request %d is numbered %d", d, i, r.seq)
			}
			if i == 0 {
				continue
			}
			switch prev := rs[i-1]; {
			case r.start.Before(prev.start):
				t.Errorf("disk %d: request %d was read %v before request %d: out of arrival order",
					d, r.seq, prev.start.Sub(r.start), prev.seq)
			case r.start.Before(prev.end):
				t.Errorf("disk %d: request %d started %v before request %d's read ended: two reads in flight",
					d, r.seq, prev.end.Sub(r.start), prev.seq)
			}
		}
	}
	snap := s.Snapshot()
	t.Logf("%d batches read by their query, %d by a disk worker", snap.BatchesByQuery, snap.BatchesByWorker)
	if snap.BatchesByQuery+snap.BatchesByWorker != disks*queries*rounds {
		t.Errorf("%d + %d batches read, %d submitted", snap.BatchesByQuery, snap.BatchesByWorker, disks*queries*rounds)
	}
	if snap.BatchesByQuery == 0 || snap.BatchesByWorker == 0 {
		t.Errorf("no contention: the queries read %d batches, the workers %d", snap.BatchesByQuery, snap.BatchesByWorker)
	}
}

// TestQueryReadsItsDisksInParallel holds the paper's parallel disks while a
// query reads its own batches: every read of a four-disk layout stalls
// 30 ms, and a query whose misses span the four disks, one span on each,
// must finish in under two stalls. It would take four if the query read its
// batches one after another.
func TestQueryReadsItsDisksInParallel(t *testing.T) {
	const delay = 30 * time.Millisecond
	s, f := newTestEngine(t, 300, 4, 1, Config{CacheBytes: -1, Faults: armed(t, fmt.Sprintf("store.read:delay=%v", delay))})
	fr, err := encodeRequest(Request{Verb: VerbRange, Query: f.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	start := time.Now()
	out := s.exec(nil, fr)
	elapsed := time.Since(start)
	if Verb(out[0]) != VerbPoints {
		t.Fatalf("reply verb 0x%02x: %s", out[0], out[1:])
	}
	after := s.Snapshot()
	if spans := after.SpansRead - before.SpansRead; spans != 4 {
		t.Fatalf("the query read %d spans, want one on each of the 4 disks", spans)
	}
	for d, n := range after.DiskFetches {
		if n == before.DiskFetches[d] {
			t.Fatalf("the query read nothing from disk %d", d)
		}
	}
	byQuery := after.BatchesByQuery - before.BatchesByQuery
	byWorker := after.BatchesByWorker - before.BatchesByWorker
	t.Logf("4 disks, one %v stall each: answered in %v; %d batches read by the query, %d by disk workers",
		delay, elapsed, byQuery, byWorker)
	if elapsed >= 2*delay {
		t.Errorf("answered in %v, want under %v: the query's disks were not read in parallel", elapsed, 2*delay)
	}
}
