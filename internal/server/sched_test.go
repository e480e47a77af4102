package server

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// TestMergedWindowReadsThroughCachedBucket drives the scheduler and the
// store's span planner together (run it under -race): two queries queue on
// one disk behind a slow read, their window merges, and the buckets they want
// sit on either side of a bucket a third query already cached. The merged
// read must be one span through that bucket; both queries must get the right
// records and their own page counts; and the page read through must stay what
// it was — a cache hit, never re-admitted, never counted as read.
func TestMergedWindowReadsThroughCachedBucket(t *testing.T) {
	reg := fault.NewRegistry(1)
	s, f := newTestServer(t, 900, 1, Config{Faults: reg, CacheBytes: 1 << 20})

	// Three one-page, non-empty buckets at consecutive pages, and a fourth
	// somewhere else to keep the disk busy.
	file := slices.Clone(s.st.Manifest().Buckets)
	slices.SortFunc(file, func(a, b store.Placement) int { return cmp.Compare(a.Page, b.Page) })
	plain := func(pl store.Placement) bool { return pl.Pages == 1 && pl.Recs > 0 }
	at := -1
	for i := 0; i+2 < len(file) && at < 0; i++ {
		if plain(file[i]) && plain(file[i+1]) && plain(file[i+2]) {
			at = i
		}
	}
	blocker := -1
	for i, pl := range file {
		if plain(pl) && (i < at-store.ReadThroughPages-1 || i > at+2+store.ReadThroughPages) {
			blocker = i
			break
		}
	}
	if at < 0 || blocker < 0 {
		t.Fatalf("layout has no usable bucket run (run at %d, blocker at %d)", at, blocker)
	}
	keyIn := func(pl store.Placement) geom.Point {
		var key geom.Point
		f.ForEachRecordInBucket(pl.ID, func(k []float64, _ []byte) {
			if key == nil {
				key = append(geom.Point(nil), k...)
			}
		})
		return key
	}
	left, gap, right := file[at], file[at+1], file[at+2]

	point := func(c *Client, pl store.Placement) QueryInfo {
		t.Helper()
		key := keyIn(pl)
		got, info, err := c.Point(key)
		if err != nil {
			t.Errorf("point query into bucket %d: %v", pl.ID, err)
		}
		if want := len(f.Lookup(key)); len(got) != want {
			t.Errorf("point query into bucket %d: %d records, want %d", pl.ID, len(got), want)
		}
		return info
	}
	waitLoad := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); s.st.DiskLoad(0) < n; {
			if time.Now().After(deadline) {
				t.Fatalf("disk load stuck at %d, waiting for %d", s.st.DiskLoad(0), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	c0, c1, c2 := newTestClient(t, s, ClientConfig{}), newTestClient(t, s, ClientConfig{}), newTestClient(t, s, ClientConfig{})
	point(c0, gap) // the third query: caches the middle bucket
	before := s.Snapshot()

	// Every read now takes long enough for the next two queries to queue
	// behind the first: load 2 = the blocker's batch is being read, load 4 =
	// both other batches are in the ring with it.
	if err := reg.SetSpec("store.read:delay=500ms"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var leftInfo, rightInfo QueryInfo
	wg.Add(3)
	go func() { defer wg.Done(); point(c0, file[blocker]) }()
	waitLoad(2)
	go func() { defer wg.Done(); leftInfo = point(c1, left) }()
	go func() { defer wg.Done(); rightInfo = point(c2, right) }()
	waitLoad(4)
	wg.Wait()
	reg.Clear()

	after := s.Snapshot()
	if got := after.MergedFetches - before.MergedFetches; got != 2 {
		t.Fatalf("%d requests served by a merged window, want 2 (the queries did not queue together)", got)
	}
	if spans, gaps, pages := after.SpansRead-before.SpansRead, after.GapPagesRead-before.GapPagesRead, after.PagesRead-before.PagesRead; spans != 2 || gaps != 1 || pages != 3 {
		t.Errorf("blocker + merged window read %d spans, %d gap pages, %d wanted pages; want 2, 1, 3", spans, gaps, pages)
	}
	if leftInfo.Pages != 1 || rightInfo.Pages != 1 {
		t.Errorf("merged queries were charged %d and %d pages, want 1 each", leftInfo.Pages, rightInfo.Pages)
	}
	if got := after.Cache.Misses - before.Cache.Misses; got != 3 {
		t.Errorf("%d cache misses for three uncached buckets", got)
	}
	if got := after.Cache.Entries - before.Cache.Entries; got != 3 {
		t.Errorf("cache grew by %d entries, want 3 (the page read through must not be admitted)", got)
	}

	// The bucket in the gap is still the cached one: a hit, no read.
	point(c0, gap)
	last := s.Snapshot()
	if last.Cache.Hits != after.Cache.Hits+1 || last.PagesRead != after.PagesRead || last.SpansRead != after.SpansRead {
		t.Errorf("re-reading the gap bucket: hits %d -> %d, pages %d -> %d, spans %d -> %d; want one hit and no read",
			after.Cache.Hits, last.Cache.Hits, after.PagesRead, last.PagesRead, after.SpansRead, last.SpansRead)
	}
}
