package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// buildLayout writes a declustered hot.2d layout into a temp dir.
func buildLayout(t *testing.T, disks, pageBytes int) (string, *gridfile.File, core.Allocation) {
	t.Helper()
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Write(dir, f, alloc, pageBytes); err != nil {
		t.Fatal(err)
	}
	return dir, f, alloc
}

// readPrimaries is the tests' view of the store's one read call: it fetches
// ids from their primary disks — one ReadFlatsFromTimed batch per disk, in
// disk order — and returns the decoded buckets by id with the wanted-page
// total. An id the store does not know goes to disk 0, so the store's own
// error comes back.
func readPrimaries(ctx context.Context, s *Store, ids []int32, tm *Timing) (map[int32]geom.Flat, int, error) {
	perDisk := make([][]int32, s.Manifest().Disks)
	for _, id := range ids {
		pl, _ := s.Placement(id)
		perDisk[pl.Disk] = append(perDisk[pl.Disk], id)
	}
	got := make(map[int32]geom.Flat, len(ids))
	pages := 0
	for d, batch := range perDisk {
		if len(batch) == 0 {
			continue
		}
		out := make([]geom.Flat, len(batch))
		n, err := s.ReadFlatsFromTimed(ctx, d, batch, out, tm)
		if err != nil {
			return nil, 0, err
		}
		pages += n
		for i, id := range batch {
			got[id] = out[i]
		}
	}
	return got, pages, nil
}

// readBucket reads one bucket's primary copy: a batch of one.
func readBucket(ctx context.Context, s *Store, id int32) (geom.Flat, int, error) {
	got, pages, err := readPrimaries(ctx, s, []int32{id}, nil)
	return got[id], pages, err
}

func TestWriteAndReadBackAllBuckets(t *testing.T) {
	dir, f, _ := buildLayout(t, 8, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	totalRecs := 0
	for _, v := range f.Buckets() {
		fl, pages, err := readBucket(context.Background(), s, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if fl.Len() != v.Records {
			t.Fatalf("bucket %d: read %d records, want %d", v.ID, fl.Len(), v.Records)
		}
		if pages < 1 {
			t.Fatalf("bucket %d: %d pages", v.ID, pages)
		}
		totalRecs += fl.Len()
		// Every key read back must exist in the in-memory bucket.
		want := map[[2]float64]int{}
		f.ForEachRecordInBucket(v.ID, func(key []float64, _ []byte) {
			want[[2]float64{key[0], key[1]}]++
		})
		for i := 0; i < fl.Len(); i++ {
			p := fl.Row(i)
			k := [2]float64{p[0], p[1]}
			if want[k] == 0 {
				t.Fatalf("bucket %d: unexpected key %v", v.ID, p)
			}
			want[k]--
		}
	}
	if totalRecs != f.Len() {
		t.Fatalf("layout holds %d records, file has %d", totalRecs, f.Len())
	}
}

func TestDiskSizesMatchPlacement(t *testing.T) {
	dir, f, alloc := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sizes, err := s.DiskSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 4 {
		t.Fatalf("%d disks", len(sizes))
	}
	var totalPages int64
	for _, n := range sizes {
		if n == 0 {
			t.Error("a disk file is empty despite balanced declustering")
		}
		totalPages += n
	}
	// Every bucket occupies at least one page.
	if totalPages < int64(f.NumBuckets()) {
		t.Errorf("%d pages for %d buckets", totalPages, f.NumBuckets())
	}
	// Minimax balance should keep per-disk pages within ~2x of each other.
	var min, max int64 = sizes[0], sizes[0]
	for _, n := range sizes {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max > 2*min {
		t.Errorf("page counts unbalanced: %v (alloc loads %v)", sizes, alloc.DiskLoads())
	}
}

func TestMultiPageBuckets(t *testing.T) {
	// A tiny page forces every bucket to span multiple pages.
	dir, f, _ := buildLayout(t, 4, 256)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	multi := 0
	for _, v := range f.Buckets() {
		fl, pages, err := readBucket(context.Background(), s, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if fl.Len() != v.Records {
			t.Fatalf("bucket %d: %d records, want %d", v.ID, fl.Len(), v.Records)
		}
		if pages > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-page buckets with a 256-byte page")
	}
}

func TestWriteValidation(t *testing.T) {
	f, err := synth.Hotspot2D(200, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 2)
	if _, err := Write(t.TempDir(), f, alloc, 16); err == nil {
		t.Error("page smaller than one record accepted")
	}
	bad := core.Allocation{Disks: 2, Assign: []int{0}}
	if _, err := Write(t.TempDir(), f, bad, 4096); err == nil {
		t.Error("truncated allocation accepted")
	}
}

func TestOpenRejectsBadLayouts(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "layout.grd"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("broken checkpoint file accepted")
	}
}

// TestOneOpenerPerLayout: while a Store holds a layout, a second Open and
// the layout writer are refused with an error naming the directory — a
// second opener would replay and checkpoint the first one's journals and
// rewrite pages it still serves. Once the first lets go without a
// checkpoint, as a crash would, Open succeeds and replays its writes.
func TestOneOpenerPerLayout(t *testing.T) {
	dir, f, alloc := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointEvery(0)
	const n = 20
	for _, key := range randKeys(f.Domain(), n, 3) {
		if _, err := s.Insert(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	if s2, err := Open(dir); err == nil {
		s2.Close()
		t.Fatal("a second Open of a live layout succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Errorf("the refusal does not name the directory: %v", err)
	}
	if _, err := Write(dir, f, alloc, 4096); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("the layout writer over a live layout: %v, want a refusal naming the directory", err)
	}
	s.CloseNoCheckpoint()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after the first store let go: %v", err)
	}
	defer s2.Close()
	if got := s2.WriteCounters().JournalReplays; got != n {
		t.Errorf("%d operations replayed, want %d", got, n)
	}
	if got := s2.Grid().Len(); got != f.Len()+n {
		t.Errorf("%d records after the reopen, want %d", got, f.Len()+n)
	}
}

// TestPageCodecAllocatesNothing: checksumming and encoding a page — once per
// page written, read and scrubbed — allocate nothing.
func TestPageCodecAllocatesNothing(t *testing.T) {
	page := make([]byte, 4096)
	keys := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() { pageChecksum(page) }); n != 0 {
		t.Errorf("pageChecksum: %v allocations per page", n)
	}
	if n := testing.AllocsPerRun(100, func() { encodePage(page, 7, keys, 2) }); n != 0 {
		t.Errorf("encodePage: %v allocations per page", n)
	}
}

func TestReadUnknownBucket(t *testing.T) {
	dir, _, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := readBucket(context.Background(), s, 99999); err == nil || !strings.Contains(err.Error(), "unknown bucket") {
		t.Errorf("unknown bucket: err=%v", err)
	}
}

func TestDomainRoundTrip(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Grid().Domain()
	want := f.Domain()
	for d := range want {
		if got[d] != want[d] {
			t.Errorf("domain dim %d = %v, want %v", d, got[d], want[d])
		}
	}
}

// TestConcurrentReaders hammers single-bucket reads from many goroutines at once;
// under -race this is the regression test for the store's documented
// concurrent-reader safety (the server's per-disk I/O goroutines depend
// on it).
func TestConcurrentReaders(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	views := f.Buckets()
	want := make(map[int32]int, len(views))
	for _, v := range views {
		want[v.ID] = v.Records
	}

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for j := range views {
					v := views[(j+r)%len(views)] // stagger the access order
					fl, _, err := readBucket(context.Background(), s, v.ID)
					if err != nil {
						errs <- err
						return
					}
					if fl.Len() != want[v.ID] {
						errs <- fmt.Errorf("bucket %d: %d records, want %d",
							v.ID, fl.Len(), want[v.ID])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchMatchesSingleReads proves a whole-layout batch per disk returns
// exactly what batches of one do, and charges the same page count.
func TestBatchMatchesSingleReads(t *testing.T) {
	for _, pageBytes := range []int{4096, 256} { // 256 forces multi-page buckets
		dir, f, _ := buildLayout(t, 4, pageBytes)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ids := bucketIDs(f)
		got, pages, err := readPrimaries(context.Background(), s, ids, nil)
		if err != nil {
			t.Fatalf("page=%d: %v", pageBytes, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("page=%d: %d buckets decoded, want %d", pageBytes, len(got), len(ids))
		}
		wantPages := 0
		for _, id := range ids {
			want, p, err := readBucket(context.Background(), s, id)
			if err != nil {
				t.Fatal(err)
			}
			wantPages += p
			if got[id].Dims != want.Dims || !slices.Equal(got[id].Coords, want.Coords) {
				t.Fatalf("page=%d bucket %d: batch and single reads differ", pageBytes, id)
			}
		}
		if pages != wantPages {
			t.Errorf("page=%d: batch read charged %d pages, single reads %d",
				pageBytes, pages, wantPages)
		}
		if _, _, err := readPrimaries(context.Background(), s, []int32{ids[0], 99999}, nil); err == nil {
			t.Error("unknown bucket id accepted")
		}
		s.Close()
	}
}

// TestTruncatedPageFile proves a disk file cut short under an open store
// surfaces as an I/O error, never as partial data, for a batch of one and
// for a whole-disk batch alike — and that Open then refuses the layout,
// because its checkpoint places buckets past the end of the file.
func TestTruncatedPageFile(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Truncate disk 0 to one page: any multi-bucket read on it must fail.
	if err := os.Truncate(filepath.Join(dir, DiskFileName(0)), int64(s.Manifest().PageBytes)); err != nil {
		t.Fatal(err)
	}

	var onDisk0 []int32
	victim, last := int32(-1), int64(-1)
	for _, v := range f.Buckets() {
		if pl, ok := s.Placement(v.ID); ok && pl.Disk == 0 {
			onDisk0 = append(onDisk0, v.ID)
			if pl.Page > last {
				victim, last = v.ID, pl.Page
			}
		}
	}
	if len(onDisk0) < 2 {
		t.Fatal("layout put fewer than 2 buckets on disk 0")
	}
	// The bucket past the surviving page must fail either way.
	if _, _, err := readBucket(context.Background(), s, victim); err == nil {
		t.Error("single read returned data from a truncated file")
	}
	if _, _, err := readPrimaries(context.Background(), s, onDisk0, nil); err == nil {
		t.Error("batch read returned data from a truncated file")
	}
	if s2, err := Open(dir); err == nil {
		s2.Close()
		t.Error("Open accepted a checkpoint that places buckets past the end of a disk file")
	}
}

// TestCorruptPageHeader flips a page's bucket-id header on disk and proves
// the read detects the mismatch (the defence against a placement map that
// disagrees with the page files).
func TestCorruptPageHeader(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := f.Buckets()[0].ID
	pl, ok := s.Placement(victim)
	if !ok {
		t.Fatal("placement missing")
	}
	off := pl.Page * int64(s.Manifest().PageBytes)
	s.Close()

	// Overwrite the page's bucket-id header with a different id.
	path := filepath.Join(dir, DiskFileName(pl.Disk))
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(victim)+100000)
	if _, err := fh.WriteAt(hdr[:], off); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readBucket(context.Background(), s, victim); err == nil {
		t.Error("read accepted a page holding another bucket")
	}
	s.Close()

	// An implausible record count must be rejected too.
	fh, err = os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(victim))
	if _, err := fh.WriteAt(hdr[:], off); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := fh.WriteAt(hdr[:], off+4); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := readBucket(context.Background(), s2, victim); err == nil {
		t.Error("read accepted an implausible record count")
	}
}

// TestConcurrentBatchReaders hammers batch reads (whose pooled buffers are
// the shared-state risk) from many goroutines under -race, interleaved with
// single-bucket reads.
func TestConcurrentBatchReaders(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 512) // small pages: multi-page buckets in play
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	views := f.Buckets()
	ids := make([]int32, 0, len(views))
	want := make(map[int32]int, len(views))
	for _, v := range views {
		ids = append(ids, v.ID)
		want[v.ID] = v.Records
	}

	const readers = 12
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if r%2 == 0 {
					got, _, err := readPrimaries(context.Background(), s, ids, nil)
					if err != nil {
						errs <- err
						return
					}
					for id, fl := range got {
						if fl.Len() != want[id] {
							errs <- fmt.Errorf("bucket %d: %d records, want %d",
								id, fl.Len(), want[id])
							return
						}
					}
				} else {
					for _, id := range ids {
						fl, _, err := readBucket(context.Background(), s, id)
						if err != nil {
							errs <- err
							return
						}
						if fl.Len() != want[id] {
							errs <- fmt.Errorf("bucket %d: %d records, want %d",
								id, fl.Len(), want[id])
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReadTiming proves a Timing splits a read's cost into pread and decode,
// accumulates across calls, and that a nil Timing returns the same data.
func TestReadTiming(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := bucketIDs(f)

	var tm Timing
	got, pages, err := readPrimaries(context.Background(), s, ids, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) || pages < len(ids) {
		t.Fatalf("timed batch read: %d buckets / %d pages", len(got), pages)
	}
	if tm.Pread <= 0 || tm.Decode <= 0 || tm.Spans <= 0 {
		t.Errorf("batch Timing not populated: %+v", tm)
	}

	// A batch of one accumulates into the same Timing.
	before := tm
	one, _, err := readPrimaries(context.Background(), s, ids[:1], &tm)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one[ids[0]].Coords, got[ids[0]].Coords) {
		t.Error("timed single read returned different records than the batch")
	}
	if tm.Pread <= before.Pread || tm.Decode <= before.Decode || tm.Spans != before.Spans+1 {
		t.Errorf("single-read Timing did not accumulate: %+v -> %+v", before, tm)
	}

	// CountsOnly: the planner's counts without the clock reads.
	counts := Timing{CountsOnly: true}
	if _, _, err := readPrimaries(context.Background(), s, ids, &counts); err != nil {
		t.Fatal(err)
	}
	if counts.Pread != 0 || counts.Decode != 0 || counts.Spans != before.Spans || counts.GapPages != before.GapPages {
		t.Errorf("CountsOnly Timing = %+v, want the counts of %+v and no durations", counts, before)
	}

	// nil Timing: same data, no timing requirement.
	got2, pages2, err := readPrimaries(context.Background(), s, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got) || pages2 != pages {
		t.Errorf("nil-Timing read diverged: %d buckets / %d pages, want %d / %d",
			len(got2), pages2, len(got), pages)
	}
}

// TestOpenGrid proves the grid file in the checkpoint Write commits
// round-trips — Open loads it — and every bucket of it has a placement whose
// record count is the bucket's.
func TestOpenGrid(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Grid()
	if g == nil {
		t.Fatal("read-only store has no grid")
	}
	if g.Len() != f.Len() || g.NumBuckets() != f.NumBuckets() {
		t.Fatalf("embedded grid: %d recs / %d buckets, want %d / %d",
			g.Len(), g.NumBuckets(), f.Len(), f.NumBuckets())
	}
	for _, v := range g.Buckets() {
		pl, ok := s.Placement(v.ID)
		if !ok {
			t.Fatalf("embedded grid bucket %d has no placement", v.ID)
		}
		if pl.Recs != v.Records {
			t.Fatalf("bucket %d: placement has %d records, grid %d", v.ID, pl.Recs, v.Records)
		}
	}
	if err := os.Remove(filepath.Join(dir, "layout.grd")); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir); err == nil {
		s2.Close()
		t.Error("Open succeeded on a layout without its checkpoint file")
	}
}

// TestDecodeBucketFlatBox: every decoded bucket carries the bounding box a
// brute-force pass over its rows gives (buckets spanning several pages
// included), carved from the arena's own allocation; an empty bucket and one
// holding a NaN coordinate carry none. PagesFor, which the server uses in
// place of a second Placement lookup, agrees with every placement written.
func TestDecodeBucketFlatBox(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 256)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range f.Buckets() {
		fl, _, err := readBucket(context.Background(), s, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if pl, _ := s.Placement(v.ID); s.PagesFor(fl.Len()) != pl.Pages {
			t.Errorf("bucket %d: PagesFor(%d) = %d, placement has %d pages", v.ID, fl.Len(), s.PagesFor(fl.Len()), pl.Pages)
		}
		if fl.Len() == 0 {
			if fl.Box != nil {
				t.Errorf("bucket %d: empty, yet Box = %v", v.ID, fl.Box)
			}
			continue
		}
		want := []float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
		for i := 0; i < fl.Len(); i++ {
			for d, x := range fl.Row(i) {
				want[2*d] = min(want[2*d], x)
				want[2*d+1] = max(want[2*d+1], x)
			}
		}
		if !slices.Equal(fl.Box, want) {
			t.Errorf("bucket %d: Box = %v, brute force says %v", v.ID, fl.Box, want)
		}
		if cap(fl.Coords) != len(fl.Coords) {
			t.Errorf("bucket %d: an append to Coords (cap %d, len %d) would write into Box", v.ID, cap(fl.Coords), len(fl.Coords))
		}
	}

	page := make([]byte, 256)
	decode := func(keys ...float64) geom.Flat {
		t.Helper()
		encodePage(page, 7, keys, 2)
		fl, err := s.decodeBucketFlat(page, &Placement{ID: 7, Pages: 1, Recs: len(keys) / 2})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	if fl := decode(3, 9, 1, 12, 2, 10); !slices.Equal(fl.Box, []float64{1, 3, 9, 12}) {
		t.Errorf("Box = %v, want [1 3 9 12]", fl.Box)
	}
	if n := testing.AllocsPerRun(100, func() { s.decodeBucketFlat(page, &Placement{ID: 7, Pages: 1, Recs: 3}) }); n != 1 {
		t.Errorf("%v allocations per decoded bucket, want 1: the box must share the arena's", n)
	}
	if fl := decode(3, 9, math.NaN(), 12, 2, 10); fl.Box != nil || fl.Len() != 3 {
		t.Errorf("NaN coordinate: Box = %v over %d rows, want no box over 3", fl.Box, fl.Len())
	}
	if fl := decode(); fl.Box != nil || fl.Dims != 2 {
		t.Errorf("empty bucket: Box = %v, Dims = %d, want no box and Dims 2", fl.Box, fl.Dims)
	}
}
