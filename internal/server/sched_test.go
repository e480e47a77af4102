package server

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

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
	file := s.st.Manifest().Buckets
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
			var want []float64
			f.ForEachRecordInBucket(id, func(key []float64, _ []byte) { want = append(want, key...) })
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
