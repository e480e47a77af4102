package store

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// TestPageSizeFitsFullBucket pins the page size a layout is written with on
// the paper's data sets under a 4 KiB cap: the smallest multiple of 512 B
// that holds a full bucket — 1 KiB for the 2-D sets (56 keys, 912 B), 4 KiB
// for DSMC.3d (170 keys, exactly 4 096 B), 3.5 KiB for stock.3d (146 keys,
// 3 520 B) — and the cap itself for the 4-D sets, whose full bucket (215
// keys) spans two pages. A caller's smaller size is kept, and the size
// chosen is the one the checkpoint records.
func TestPageSizeFitsFullBucket(t *testing.T) {
	for _, c := range []struct {
		ds        *synth.Dataset
		page      int
		fullPages int // pages a bucket at capacity spans
	}{
		{synth.Uniform2D(200, 1), 1024, 1},
		{synth.Hotspot2D(200, 1), 1024, 1},
		{synth.Correl2D(200, 1), 1024, 1},
		{synth.DSMC3D(200, 1), 4096, 1},
		{synth.Stock3D(4, 50, 1), 3584, 1},
		{synth.DSMC4D(2, 100, 1), 4096, 2},
		{synth.MHD4D(2, 100, 1), 4096, 2},
	} {
		f, err := c.ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		full, dims := f.BucketCapacity(), f.Dims()
		got := pageSize(f, 4096)
		if got != c.page {
			t.Errorf("%s: %d-byte pages under a 4096 cap, want %d", c.ds.Name, got, c.page)
		}
		if n := pagesFor(full, recordsPerPage(got, dims)); n != c.fullPages {
			t.Errorf("%s: a full bucket of %d keys spans %d pages of %d bytes, want %d", c.ds.Name, full, n, got, c.fullPages)
		}
		if c.fullPages == 1 && recordsPerPage(got-pageAlign, dims) >= full {
			t.Errorf("%s: %d-byte pages also hold a full bucket of %d keys", c.ds.Name, got-pageAlign, full)
		}
		for _, small := range []int{256, 512} {
			if got := pageSize(f, small); got != small {
				t.Errorf("%s: a %d-byte cap gave %d-byte pages", c.ds.Name, small, got)
			}
		}
	}

	// What the writer records: the derived size under a 4 KiB cap, a
	// caller's 512 B as given, with buckets of two pages.
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ cap, page int }{{4096, 1024}, {512, 512}} {
		dir := t.TempDir()
		pls, err := Write(dir, f, alloc, c.cap)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Manifest().PageBytes
		s.Close()
		if got != c.page {
			t.Errorf("a %d-byte cap: the checkpoint records %d-byte pages, want %d", c.cap, got, c.page)
		}
		multi := slices.ContainsFunc(pls, func(pl *Placement) bool { return pl.Pages > 1 })
		if want := c.page < 1024; multi != want {
			t.Errorf("%d-byte pages: multi-page buckets %v, want %v", c.page, multi, want)
		}
	}
}

// TestSpansIdenticalAtDerivedPageSize lays one grid and allocation out twice
// — in 4 KiB pages, as every layout was before pages were sized to a full
// bucket, and in the derived 1 KiB — and requires the same page indexes for
// every bucket and, for every per-disk batch of 1 % and 5 % range queries
// and of the whole domain (over 256 pages a disk, so the span cap binds),
// the same spans, gap pages and wanted pages from the planner, and the same
// records decoded. Only the bytes a page holds changed, so the device cost
// a span carries (a fixed delay each, in the benchmark's disk model) did not.
func TestSpansIdenticalAtDerivedPageSize(t *testing.T) {
	const disks = 8
	f, err := synth.Hotspot2D(100000, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), disks)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([][]int, len(alloc.Assign))
	for i := range alloc.Assign {
		owners[i] = alloc.Assign[i : i+1 : i+1]
	}
	fullDir, sizedDir := t.TempDir(), t.TempDir()
	fullPls, err := writeLayout(fullDir, f, owners, disks, 1, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizedPls, err := Write(sizedDir, f, alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fullPls {
		a, b := fullPls[i], sizedPls[i]
		if a.ID != b.ID || a.Pages != b.Pages || !slices.Equal(a.OwnerDisks, b.OwnerDisks) || !slices.Equal(a.OwnerPages, b.OwnerPages) {
			t.Fatalf("bucket %d sits at %v/%v (%d pages) in 4 KiB pages, at %v/%v (%d pages) in derived ones",
				a.ID, a.OwnerDisks, a.OwnerPages, a.Pages, b.OwnerDisks, b.OwnerPages, b.Pages)
		}
	}
	full, err := Open(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	sized, err := Open(sizedDir)
	if err != nil {
		t.Fatal(err)
	}
	defer sized.Close()
	if a, b := full.Manifest().PageBytes, sized.Manifest().PageBytes; a != 4096 || b != 1024 {
		t.Fatalf("page sizes %d and %d, want 4096 and 1024", a, b)
	}

	ctx := context.Background()
	idx := f.IndexByID()
	var spans, gaps, capped int
	for _, ratio := range []float64{0.01, 0.05, 1} {
		qs := []geom.Rect{f.Domain()}
		if ratio < 1 {
			qs = workload.SquareRange(f.Domain(), ratio, 200, 3)
		}
		for qi, q := range qs {
			perDisk := make([][]int32, disks)
			for _, id := range f.BucketsInRange(q) {
				d := alloc.Assign[idx[id]]
				perDisk[d] = append(perDisk[d], id)
			}
			for d, ids := range perDisk {
				if len(ids) == 0 {
					continue
				}
				outA, outB := make([]geom.Flat, len(ids)), make([]geom.Flat, len(ids))
				var tmA, tmB Timing
				pagesA, err := full.ReadFlatsFromTimed(ctx, d, ids, outA, &tmA)
				if err != nil {
					t.Fatal(err)
				}
				pagesB, err := sized.ReadFlatsFromTimed(ctx, d, ids, outB, &tmB)
				if err != nil {
					t.Fatal(err)
				}
				if pagesA != pagesB || tmA.Spans != tmB.Spans || tmA.GapPages != tmB.GapPages {
					t.Fatalf("r=%g query %d disk %d: 4 KiB pages read %d pages in %d spans through %d gap pages, derived ones %d in %d through %d",
						ratio, qi, d, pagesA, tmA.Spans, tmA.GapPages, pagesB, tmB.Spans, tmB.GapPages)
				}
				for i := range ids {
					if !slices.Equal(outA[i].Coords, outB[i].Coords) {
						t.Fatalf("r=%g query %d: bucket %d decodes differently", ratio, qi, ids[i])
					}
				}
				spans += tmA.Spans
				gaps += tmA.GapPages
				if pagesA > maxSpanPages {
					capped++
				}
			}
		}
	}
	if gaps == 0 || capped == 0 {
		t.Fatalf("%d gap pages, %d batches over the span cap: the queries do not exercise the planner", gaps, capped)
	}
	t.Logf("%d spans through %d gap pages, %d batches over the span cap, identical at both page sizes", spans, gaps, capped)
}

// TestFullPageLayoutStillServes: a layout whose checkpoint records 4 KiB
// pages for a 2-D grid — every layout written before pages were sized to a
// full bucket — is byte for byte what those commits wrote (the digests
// TestFreshLayoutBytes pinned until then), opens, passes a scrub, answers
// every bucket as the grid holds it and as the derived-size layout does, and
// takes writes in its own page size.
func TestFullPageLayoutStillServes(t *testing.T) {
	for _, c := range []struct {
		r      int
		layout string
		disks  [4]string
	}{
		{1, "5195368ac1b49c6a988831b131296268411758954a5d094549ff60df2224fa60", [4]string{
			"43ebcadf76a80174b62b65b2fb0d2e1287220983541efa2f5d73df1f5bdfd340",
			"e38ded0603668d2c46031c49571c6c40000ad16b5296c93bfa319e04de9c7f85",
			"9d2c5a593ee7bcf36fc7e5f6292db4f8e93e1200db69a32e2c1eb580764aa34a",
			"7920951941713b9e298e19e713250817ecf919755272b7034873883a9760a58b",
		}},
		{2, "04df8fcaf071de722d70ad5fad69ae058c6235b42e261791981bd7e0a6a50be4", [4]string{
			"a673c1c28eb0345feef735d70e7eee5de2bce3d8428bf3ba079991404344c230",
			"ef7478c23112777d93b7cce72e7e9c7334941e200ac3f7cdfd102948b395ceab",
			"dc761fbbd225162848d774808722cb73c0ffd92b12b35576a0da304ff6a7e91b",
			"8aeda380bd876f5761e5fdb31aa92bb3baa1fedee5e3fd97863c4dae03eca1ff",
		}},
	} {
		sizedDir, f, rm := buildReplicatedLayout(t, 4, c.r)
		dir := t.TempDir()
		if _, err := writeLayout(dir, f, rm.Owners, rm.Disks, rm.Replicas, 4096, nil); err != nil {
			t.Fatal(err)
		}
		if got := layoutDigest(t, dir); got != c.layout {
			t.Errorf("r=%d: layout digest %s, want %s", c.r, got, c.layout)
		}
		for d, want := range c.disks {
			data, err := os.ReadFile(filepath.Join(dir, DiskFileName(d)))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
				t.Errorf("r=%d: %s digest %s, want %s", c.r, DiskFileName(d), got, want)
			}
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Manifest().PageBytes; got != 4096 {
			t.Fatalf("r=%d: the checkpoint records %d-byte pages, want 4096", c.r, got)
		}
		st, err := s.Scrub(context.Background(), 0)
		if err != nil || st.Corrupt != 0 || st.Pages == 0 {
			t.Fatalf("r=%d: scrub %+v, %v; want every page clean", c.r, st, err)
		}
		verifyStoreMatchesGrid(t, s, f)
		sized, err := Open(sizedDir)
		if err != nil {
			t.Fatal(err)
		}
		ids := bucketIDs(f)
		got, gotPages, err := readPrimaries(context.Background(), s, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantPages, err := readPrimaries(context.Background(), sized, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		sized.Close()
		if gotPages != wantPages {
			t.Errorf("r=%d: %d wanted pages in 4 KiB pages, %d in derived ones", c.r, gotPages, wantPages)
		}
		for _, id := range ids {
			if !slices.Equal(got[id].Coords, want[id].Coords) {
				t.Fatalf("r=%d: bucket %d answers differently from the derived-size layout", c.r, id)
			}
		}

		for _, key := range randKeys(f.Domain(), 100, 5) {
			if _, err := s.Insert(context.Background(), key); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Manifest().PageBytes; got != 4096 {
			t.Errorf("r=%d: after writes the checkpoint records %d-byte pages, want 4096", c.r, got)
		}
		if st, err := s.Scrub(context.Background(), 0); err != nil || st.Corrupt != 0 {
			t.Errorf("r=%d: scrub after writes %+v, %v", c.r, st, err)
		}
		verifyStoreMatchesGrid(t, s, s.Grid())
		if got := s.Grid().Len(); got != f.Len()+100 {
			t.Errorf("r=%d: %d records after 100 inserts into %d", c.r, got, f.Len())
		}
		s.Close()
	}
}
