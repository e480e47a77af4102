package store

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/sfc"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// copiesOnDisk lists every bucket copy held by one disk file, in page order.
func copiesOnDisk(pls []*Placement, disk int) []Placement {
	var out []Placement
	for _, p := range pls {
		if i := slices.Index(p.OwnerDisks, disk); i >= 0 {
			pl := *p
			pl.Disk, pl.Page = disk, pl.OwnerPages[i]
			out = append(out, pl)
		}
	}
	slices.SortFunc(out, func(a, b Placement) int { return cmp.Compare(a.Page, b.Page) })
	return out
}

// TestLayoutIsOneHilbertRunPerDisk pins the within-disk clustering: in a
// freshly written layout, r=1 or r=2, every disk file's bucket copies —
// primaries and replicas alike — appear in non-decreasing Hilbert key of the
// bucket region's centre, and tile the file from page 0 to its end with no
// hole and no overlap. The key is computed here from sfc directly, not via
// LayoutOrder, so a writer that fell back to id order fails the test.
func TestLayoutIsOneHilbertRunPerDisk(t *testing.T) {
	const disks, pageBytes = 4, 512 // 31 records a page: one- and two-page buckets
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	curve := sfc.NewHilbert(2, 16)
	dom := f.Domain()
	key := make(map[int32]uint64)
	for _, v := range f.Buckets() {
		var c [2]uint32
		for d, iv := range v.Region {
			c[d] = uint32(((iv.Lo+iv.Hi)/2 - dom[d].Lo) / (dom[d].Hi - dom[d].Lo) * 65536)
		}
		key[v.ID] = curve.Key(c[:])
	}

	for _, r := range []int{1, 2} {
		dir := t.TempDir()
		var m []*Placement
		if r == 1 {
			m, err = Write(dir, f, alloc, pageBytes)
		} else {
			var rm *replica.Map
			if rm, err = (&replica.Placer{Replicas: r}).Place(g, alloc); err == nil {
				m, err = WriteReplicated(dir, f, rm, pageBytes)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		multi, ascendingIDs := false, true
		for d := 0; d < disks; d++ {
			next := int64(0)
			var prev Placement
			for i, c := range copiesOnDisk(m, d) {
				if c.Page != next {
					t.Fatalf("r=%d disk %d: bucket %d starts at page %d, previous copy ended at %d", r, d, c.ID, c.Page, next)
				}
				if i > 0 && key[c.ID] < key[prev.ID] {
					t.Fatalf("r=%d disk %d page %d: bucket %d (key %d) follows bucket %d (key %d)",
						r, d, c.Page, c.ID, key[c.ID], prev.ID, key[prev.ID])
				}
				if i > 0 && c.ID < prev.ID {
					ascendingIDs = false
				}
				multi = multi || c.Pages > 1
				next += int64(c.Pages)
				prev = c
			}
			st, err := os.Stat(filepath.Join(dir, DiskFileName(d)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != next*pageBytes {
				t.Fatalf("r=%d disk %d: copies tile %d pages, file holds %d bytes", r, d, next, st.Size())
			}
		}
		if !multi || ascendingIDs {
			t.Fatalf("r=%d: layout too plain to test (multi-page buckets %v, ids ascending on every disk %v)", r, multi, ascendingIDs)
		}
	}
}

// TestNextSpanInvariants drives the planner alone over synthetic placements
// — at the read-through of 4 KiB and of 1 KiB pages, gaps of 0 to 4 pages
// past it, buckets of 1..400 pages, so both the read-through bound and the
// span cap bind — and checks what every span must satisfy: spans partition
// the batch in order, none reads through more than the read-through between
// two wanted buckets, none exceeds maxSpanPages unless it is a single
// oversized bucket, each ends exactly on its last wanted page, and a cut is
// never taken where the next bucket would have fitted.
func TestNextSpanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 600; trial++ {
		readThrough := int64(ReadThroughPages([]int{4096, 1024}[trial%2]))
		var pls []plIdx
		page := int64(rng.Intn(5))
		for n := rng.Intn(80); n > 0; n-- {
			pages := 1 + rng.Intn(3)
			if rng.Intn(12) == 0 {
				pages = 1 + rng.Intn(400)
			}
			pls = append(pls, plIdx{pl: &Placement{ID: int32(len(pls)), Page: page, Pages: pages}, page: page})
			page += int64(pages + rng.Intn(int(readThrough)+5))
		}
		for lo := 0; lo < len(pls); {
			hi, end, gaps := nextSpan(pls, lo, readThrough)
			if hi <= lo || hi > len(pls) {
				t.Fatalf("trial %d: span [%d,%d) of %d placements", trial, lo, hi, len(pls))
			}
			first, last := pls[lo].pl, pls[hi-1].pl
			if want := last.Page + int64(last.Pages); end != want {
				t.Fatalf("trial %d: span ends at page %d, its last wanted page ends at %d", trial, end, want)
			}
			if pages := end - first.Page; pages > maxSpanPages && hi-lo > 1 {
				t.Fatalf("trial %d: span of %d buckets is %d pages", trial, hi-lo, pages)
			}
			wantGaps := int64(0)
			for i := lo + 1; i < hi; i++ {
				gap := pls[i].page - (pls[i-1].page + int64(pls[i-1].pl.Pages))
				if gap < 0 || gap > readThrough {
					t.Fatalf("trial %d: span joins %+v to %+v", trial, pls[i-1].pl, pls[i].pl)
				}
				wantGaps += gap
			}
			if gaps != wantGaps {
				t.Fatalf("trial %d: span reports %d gap pages, holds %d", trial, gaps, wantGaps)
			}
			if hi < len(pls) {
				nx := pls[hi].pl
				if nx.Page-end <= readThrough &&
					nx.Page+int64(nx.Pages)-first.Page <= maxSpanPages {
					t.Fatalf("trial %d: span stops before %+v, which fits", trial, nx)
				}
			}
			lo = hi
		}
	}
}

// bruteSpans counts, page by page over a whole disk file, the spans and gap
// pages a set of wanted buckets needs: a span starts at a wanted page and
// runs on through unwanted stretches of at most readThrough pages that lead
// to another wanted page. (No cap: the test files are far below
// maxSpanPages.)
func bruteSpans(filePages int64, wanted []Placement, readThrough int) (spans, gapPages int) {
	want := make([]bool, filePages)
	for _, pl := range wanted {
		for p := int64(0); p < int64(pl.Pages); p++ {
			want[pl.Page+p] = true
		}
	}
	unwantedRun := -1 // -1: not inside a span
	for _, w := range want {
		switch {
		case w && unwantedRun < 0:
			spans++
			unwantedRun = 0
		case w:
			gapPages += unwantedRun
			unwantedRun = 0
		case unwantedRun >= 0:
			if unwantedRun++; unwantedRun > readThrough {
				unwantedRun = -1
			}
		}
	}
	return spans, gapPages
}

// TestSpanReadsProperty reads random wanted subsets with random holes from a
// single-disk layout of 512 B pages: every bucket must decode to exactly
// what the single-bucket read returns, the wanted-page total must match the
// placements, and the planner's span and gap-page counts must equal a
// page-by-page brute-force count at the read-through of the layout's page
// size (32 pages).
func TestSpanReadsProperty(t *testing.T) {
	const pageBytes = 512
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.Allocation{Disks: 1, Assign: make([]int, f.NumBuckets())}
	dir := t.TempDir()
	m, err := Write(dir, f, alloc, pageBytes)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(m)*2 >= maxSpanPages {
		t.Fatal("test file is large enough for the span cap to bind; bruteSpans ignores the cap")
	}
	file := copiesOnDisk(m, 0)
	filePages := file[len(file)-1].Page + int64(file[len(file)-1].Pages)
	readThrough := ReadThroughPages(s.Manifest().PageBytes)
	ctx := context.Background()
	want := make(map[int32]geom.Flat, len(file))
	for _, pl := range file {
		fl, _, err := readBucket(ctx, s, pl.ID)
		if err != nil {
			t.Fatal(err)
		}
		want[pl.ID] = fl
	}

	rng := rand.New(rand.NewSource(7))
	sawGaps := false
	for trial := 0; trial < 200; trial++ {
		// A random walk along the file: stretches taken densely, stretches
		// taken sparsely, stretches skipped.
		var wanted []Placement
		for i := 0; i < len(file); {
			n := 1 + rng.Intn(12)
			p := []float64{0, 0.3, 0.7, 1}[rng.Intn(4)]
			for ; n > 0 && i < len(file); n, i = n-1, i+1 {
				if rng.Float64() < p {
					wanted = append(wanted, file[i])
				}
			}
		}
		if len(wanted) == 0 {
			continue
		}
		rng.Shuffle(len(wanted), func(i, j int) { wanted[i], wanted[j] = wanted[j], wanted[i] })
		ids := make([]int32, len(wanted))
		wantPages := 0
		for i, pl := range wanted {
			ids[i] = pl.ID
			wantPages += pl.Pages
		}
		out := make([]geom.Flat, len(ids))
		var tm Timing
		pages, err := s.ReadFlatsFromTimed(ctx, 0, ids, out, &tm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pages != wantPages {
			t.Fatalf("trial %d: %d wanted pages reported, placements hold %d", trial, pages, wantPages)
		}
		for i, pl := range wanted {
			if !slices.Equal(out[i].Coords, want[pl.ID].Coords) || out[i].Dims != want[pl.ID].Dims {
				t.Fatalf("trial %d: bucket %d decoded differently in a span than alone", trial, pl.ID)
			}
		}
		spans, gaps := bruteSpans(filePages, wanted, readThrough)
		if tm.Spans != spans || tm.GapPages != gaps {
			t.Fatalf("trial %d: planner read %d spans through %d gap pages, brute force counts %d and %d",
				trial, tm.Spans, tm.GapPages, spans, gaps)
		}
		sawGaps = sawGaps || gaps > 0
	}
	if !sawGaps {
		t.Fatal("no trial exercised read-through")
	}
}

// TestTornReadOfGapBearingSpan pins that read-through keeps torn-read
// injection meaningful: a span that reads through unwanted pages still ends
// on a wanted page, so the torn final page fails a wanted bucket's decode
// and surfaces as a transient injected fault, not as success.
func TestTornReadOfGapBearingSpan(t *testing.T) {
	dir, _, _ := buildLayout(t, 1, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	file := copiesOnDisk(mustLive(t, s), 0)
	readThrough := ReadThroughPages(s.Manifest().PageBytes)
	ids := []int32{file[0].ID, file[1+readThrough].ID} // readThrough one-page buckets between them
	out := make([]geom.Flat, len(ids))
	var tm Timing
	if _, err := s.ReadFlatsFromTimed(context.Background(), 0, ids, out, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.Spans != 1 || tm.GapPages != readThrough {
		t.Fatalf("read %d spans through %d gap pages, want 1 span through %d", tm.Spans, tm.GapPages, readThrough)
	}
	reg := fault.NewRegistry(1)
	if err := reg.SetSpec("store.read:torn"); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(reg)
	tm = Timing{}
	if _, err := s.ReadFlatsFromTimed(context.Background(), 0, ids, out, &tm); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn gap-bearing span: err=%v, want an injected-fault error", err)
	}
	if tm.Spans != 0 || tm.GapPages != 0 {
		t.Fatalf("failed read counted %d spans, %d gap pages", tm.Spans, tm.GapPages)
	}
}

// TestReadThroughBoundary pins the read-through to its byte budget: a span
// reads through a gap of exactly ReadThroughBytes of unwanted pages — 16
// pages of 1 KiB, 4 of 4 KiB — and ends before a gap one page longer.
func TestReadThroughBoundary(t *testing.T) {
	for _, c := range []struct{ pageBytes, pages int }{{512, 32}, {1024, 16}, {3584, 4}, {4096, 4}} {
		if got := ReadThroughPages(c.pageBytes); got != c.pages {
			t.Errorf("%d-byte pages: read through %d pages, want %d", c.pageBytes, got, c.pages)
		}
	}
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.Allocation{Disks: 1, Assign: make([]int, f.NumBuckets())}
	for _, c := range []struct{ pageBytes, readThrough int }{{1024, 16}, {4096, 4}} {
		dir := t.TempDir()
		writeAtPageSize(t, dir, f, alloc, c.pageBytes)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		file := copiesOnDisk(mustLive(t, s), 0)
		for _, gap := range []int{c.readThrough, c.readThrough + 1} {
			next := file[1+gap]
			if next.Page != int64(1+gap) {
				t.Fatalf("%d-byte pages: bucket %d of the file starts at page %d; the test needs one-page buckets", c.pageBytes, 1+gap, next.Page)
			}
			ids := []int32{file[0].ID, next.ID}
			var tm Timing
			if _, err := s.ReadFlatsFromTimed(context.Background(), 0, ids, make([]geom.Flat, len(ids)), &tm); err != nil {
				t.Fatal(err)
			}
			wantSpans, wantGaps := 1, gap
			if gap > c.readThrough {
				wantSpans, wantGaps = 2, 0
			}
			if tm.Spans != wantSpans || tm.GapPages != wantGaps {
				t.Errorf("%d-byte pages, a %d-page gap: %d spans through %d gap pages, want %d through %d",
					c.pageBytes, gap, tm.Spans, tm.GapPages, wantSpans, wantGaps)
			}
		}
		s.Close()
	}
}

// writeAtPageSize writes alloc's layout of f into dir in pages of exactly
// pageBytes, larger than Write would choose if need be, and returns the
// placements in f.Buckets() order.
func writeAtPageSize(t *testing.T, dir string, f *gridfile.File, alloc core.Allocation, pageBytes int) []*Placement {
	t.Helper()
	owners := make([][]int, len(alloc.Assign))
	for i := range alloc.Assign {
		owners[i] = alloc.Assign[i : i+1 : i+1]
	}
	m, err := writeLayout(dir, f, owners, alloc.Disks, 1, pageBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// manifestLayout restates a written layout's primary copies over disks in
// the simulator's terms (the writer returns its placements in f.Buckets()
// order).
func manifestLayout(m []*Placement, disks int) (core.Allocation, sim.DiskLayout) {
	alloc := core.Allocation{Disks: disks, Assign: make([]int, len(m))}
	lay := sim.DiskLayout{Page: make([]int64, len(m)), Pages: make([]int, len(m))}
	for i, pl := range m {
		alloc.Assign[i], lay.Page[i], lay.Pages[i] = pl.Disk, pl.Page, pl.Pages
	}
	return alloc, lay
}

// TestClusteringHalvesSpansOnBusiestDisk is the deterministic gate on the
// within-disk clustering: on a seeded 100 k-record hot.2d over 8 disks with
// minimax, 1 % range queries need at most half as many positioned reads on
// their busiest disk from the layout the writer produces, read with the
// planner's read-through, as from a bucket-id-order layout read with exact
// adjacency (what the store did before it clustered): 5.65 -> 1.41 in 1 KiB
// pages (a 16-page read-through), 5.65 -> 1.95 in 4 KiB ones (4 pages).
// (At 20 k records the same queries touch ~10 buckets, 2.0 on the busiest
// disk; the floor is 1, so the ratio cannot reach a half there.) The counts
// are exact — no timing — and at both page sizes the model is checked
// against the real planner on the real files, so neither the writer's
// order, the planner's rule nor the page size it reads through by can rot
// silently.
func TestClusteringHalvesSpansOnBusiestDisk(t *testing.T) {
	const disks = 8
	f, err := synth.Hotspot2D(100000, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	minimax, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), disks)
	if err != nil {
		t.Fatal(err)
	}
	idx := f.IndexByID()
	qs := workload.SquareRange(f.Domain(), 0.01, 500, 1)
	for _, pageBytes := range []int{1024, 4096} {
		dir := t.TempDir()
		m := writeAtPageSize(t, dir, f, minimax, pageBytes)
		alloc, written := manifestLayout(m, disks)
		idOrder := make([]int, len(m))
		for i := range idOrder {
			idOrder[i] = i
		}
		byID := sim.LayoutInOrder(alloc, idOrder, written.Pages)

		before, err := sim.ReplaySpans(f, alloc, idx, qs, byID, 0)
		if err != nil {
			t.Fatal(err)
		}
		after, err := sim.ReplaySpans(f, alloc, idx, qs, written, ReadThroughPages(pageBytes))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d-byte pages, mean spans on the busiest disk: id order %.3f, written layout with read-through %.3f (%.1f -> %.1f spans per query, %.1f gap pages)",
			pageBytes, before.MeanResponseSpans, after.MeanResponseSpans, before.MeanSpans, after.MeanSpans, after.MeanGapPages)
		if after.MeanResponseSpans > 0.5*before.MeanResponseSpans {
			t.Errorf("%d-byte pages: written layout needs %.3f spans on the busiest disk, id order %.3f: want at most half",
				pageBytes, after.MeanResponseSpans, before.MeanResponseSpans)
		}

		// The model against the planner: replay the same queries through the
		// store, one batch per disk as the server submits them.
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var busiest, total, gapPages int
		for _, q := range qs {
			perDisk := make([][]int32, disks)
			for _, id := range f.BucketsInRange(q) {
				d := alloc.Assign[idx[id]]
				perDisk[d] = append(perDisk[d], id)
			}
			most := 0
			for d, ids := range perDisk {
				if len(ids) == 0 {
					continue
				}
				var tm Timing
				if _, err := s.ReadFlatsFromTimed(context.Background(), d, ids, make([]geom.Flat, len(ids)), &tm); err != nil {
					t.Fatal(err)
				}
				most = max(most, tm.Spans)
				total += tm.Spans
				gapPages += tm.GapPages
			}
			busiest += most
		}
		s.Close()
		n := float64(len(qs))
		if got := float64(busiest) / n; got != after.MeanResponseSpans {
			t.Errorf("%d-byte pages: planner read %.4f spans on the busiest disk per query, the model says %.4f",
				pageBytes, got, after.MeanResponseSpans)
		}
		if float64(total)/n != after.MeanSpans || float64(gapPages)/n != after.MeanGapPages {
			t.Errorf("%d-byte pages: planner read %.4f spans and %.4f gap pages per query, the model says %.4f and %.4f",
				pageBytes, float64(total)/n, float64(gapPages)/n, after.MeanSpans, after.MeanGapPages)
		}
	}
}
