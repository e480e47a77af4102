package server

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWindowServesEachRequestAlone fails if sharing a window ever changes a
// request's outcome. Six fetches for disjoint buckets of one disk are put in
// the disk's ring under its lock, so the worker drains them as a single
// window: two plain ones, one whose query already expired, one naming a
// bucket the store does not hold, one traced, and one more plain one behind
// them. Each must come back with exactly its own buckets' records, its own
// page count and its own error — the expired and the failing request taking
// nobody with them — and the traced one with its own stage times.
func TestWindowServesEachRequestAlone(t *testing.T) {
	s, f := newTestServer(t, 900, 1, Config{CacheBytes: -1, FetchRetries: -1})
	file := s.st.Manifest().Buckets
	const n = 6
	if len(file) < 2*n {
		t.Fatalf("layout has %d buckets, want at least %d", len(file), 2*n)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	const expiredAt, unknownAt, tracedAt = 2, 3, 4
	tr := new(Trace)
	resps := make([]chan fetchResp, n)
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
		resps[i] = make(chan fetchResp, 1)
		reqs[i].ctx, reqs[i].resp = context.Background(), resps[i]
	}
	reqs[expiredAt].ctx = expired
	reqs[unknownAt].ids = append(reqs[unknownAt].ids, 1<<30)
	reqs[unknownAt].idxs = append(reqs[unknownAt].idxs, len(file))
	reqs[tracedAt].tr, reqs[tracedAt].enq = tr, time.Now().Add(-time.Millisecond)

	before := s.Snapshot()
	q := s.sched[0]
	q.mu.Lock()
	q.reqs = append(q.reqs, reqs...)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}

	for i, ch := range resps {
		var r fetchResp
		select {
		case r = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d was never answered", i)
		}
		if !slices.Equal(r.ids, reqs[i].ids) || !slices.Equal(r.idxs, reqs[i].idxs) || r.disk != 0 {
			t.Errorf("request %d: answer echoes ids %v idxs %v disk %d, want its own", i, r.ids, r.idxs, r.disk)
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
		t.Errorf("window read %d wanted pages, its four successful requests hold %d", got, served)
	}
	if after.MergedFetches != 0 {
		t.Errorf("merged_fetches = %d, want the constant 0", after.MergedFetches)
	}
}
