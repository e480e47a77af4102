package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// writeReplicatedDir lays out f at replication factor r under a 4 KiB page
// cap and returns the layout directory, the placements the writer chose,
// which locate every page copy on disk, and the page size the layout's
// checkpoint records, which addresses their bytes.
func writeReplicatedDir(t *testing.T, f *gridfile.File, r int) (string, []*store.Placement, int) {
	t.Helper()
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var m []*store.Placement
	if r == 1 {
		m, err = store.Write(dir, f, alloc, 4096)
	} else {
		var rm *replica.Map
		if rm, err = (&replica.Placer{Replicas: r}).Place(g, alloc); err == nil {
			m, err = store.WriteReplicated(dir, f, rm, 4096)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return dir, m, st.Manifest().PageBytes
}

// copyPage overwrites page to of disk toDisk with page from of disk
// fromDisk: a write that landed on the wrong page.
func copyPage(t *testing.T, dir string, fromDisk int, from int64, toDisk int, to int64, pageBytes int) {
	t.Helper()
	page := make([]byte, pageBytes)
	src, err := os.Open(filepath.Join(dir, store.DiskFileName(fromDisk)))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.ReadAt(page, from*int64(pageBytes)); err != nil {
		t.Fatal(err)
	}
	dst, err := os.OpenFile(filepath.Join(dir, store.DiskFileName(toDisk)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.WriteAt(page, to*int64(pageBytes)); err != nil {
		t.Fatal(err)
	}
}

// flipPage XOR-damages one byte in the middle of a page file's page.
func flipPage(t *testing.T, dir string, disk int, page int64, pageBytes int) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("disk%03d.dat", disk))
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	off := page*int64(pageBytes) + int64(pageBytes)/2
	var b [1]byte
	if _, err := fh.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x08
	if _, err := fh.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// pageHeaderBytes is the store's page header: a page's records start there.
const pageHeaderBytes = 16

// flipRecordBit flips the lowest bit of the k-th coordinate stored in a page
// file's page, at pageHeaderBytes + 8·k: the coordinate moves by one unit in
// the last place, so its record stays inside the domain but is no longer
// the grid's. (flipPage's mid-page byte is a key or padding, depending on how
// full the bucket is; only the checksum is sure to see that flip.)
func flipRecordBit(t *testing.T, dir string, disk int, page int64, pageBytes, k int) {
	t.Helper()
	fh, err := os.OpenFile(filepath.Join(dir, store.DiskFileName(disk)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	off := page*int64(pageBytes) + pageHeaderBytes + 8*int64(k)
	var b [1]byte
	if _, err := fh.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := fh.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// recordSet is the grid's records, each counted as often as it occurs.
func recordSet(f *gridfile.File) map[string]int {
	set := make(map[string]int, f.Len())
	f.Scan(func(key []float64, _ []byte) bool {
		set[fmt.Sprint(key)]++
		return true
	})
	return set
}

// missingFrom returns how many of pts are not records of set, taking each
// record once.
func missingFrom(set map[string]int, pts []geom.Point) int {
	left, missing := maps.Clone(set), 0
	for _, p := range pts {
		k := fmt.Sprint([]float64(p))
		if left[k] == 0 {
			missing++
			continue
		}
		left[k]--
	}
	return missing
}

// TestChecksumFailoverAndScrubRepair is the end-to-end integrity story on a
// replicated layout served with the zero Config: a query that hits a
// corrupt primary copy — a flipped bit mid-page or in one of its records,
// or another bucket's intact page written where this bucket's
// should be — fails over to the intact replica and still serves a complete
// (non-degraded) answer of exactly the grid's records; a scrub pass then
// detects and repairs all three, the counters surface all of it, and a
// second pass finds the layout clean.
func TestChecksumFailoverAndScrubRepair(t *testing.T) {
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir, m, pageBytes := writeReplicatedDir(t, f, 2)

	// Corrupt the primary copy of the first bucket: reads take the first
	// whole copy in owner order, the primary, so queries will hit it.
	victim := m[0]
	flipPage(t, dir, victim.OwnerDisks[0], victim.OwnerPages[0], pageBytes)
	misdirected, source := m[1], m[2]
	copyPage(t, dir, source.OwnerDisks[0], source.OwnerPages[0],
		misdirected.OwnerDisks[0], misdirected.OwnerPages[0], pageBytes)
	flipped := m[3]
	flipRecordBit(t, dir, flipped.OwnerDisks[0], flipped.OwnerPages[0], pageBytes, 0)

	s, err := OpenDir(dir, Config{Degraded: true, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := newTestClient(t, s, ClientConfig{})
	want := recordSet(f)

	for i := 0; i < 3; i++ {
		pts, info, err := cl.RangeCtx(context.Background(), f.Domain())
		if err != nil || info.Degraded {
			t.Fatalf("range %d over corrupt primaries: degraded=%v err=%v", i, info.Degraded, err)
		}
		if len(pts) != f.Len() || missingFrom(want, pts) != 0 {
			t.Fatalf("range %d = %d points, %d of them not the grid's; want the grid's %d records",
				i, len(pts), missingFrom(want, pts), f.Len())
		}
		n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
		if err != nil {
			t.Fatalf("query %d over corrupt primary: %v", i, err)
		}
		if info.Degraded {
			t.Fatalf("query %d degraded despite an intact replica", i)
		}
		if n != f.Len() {
			t.Fatalf("query %d count = %d, want %d", i, n, f.Len())
		}
	}
	snap := s.Snapshot()
	if snap.ReplicaFailover < 9 {
		t.Errorf("%d failovers, want >= 9 (three condemned copies, three ranges) — did a read miss one?", snap.ReplicaFailover)
	}
	if snap.Errors != 0 || snap.Degraded != 0 {
		t.Errorf("errors=%d degraded=%d, want 0/0", snap.Errors, snap.Degraded)
	}

	st, err := s.ScrubNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 3 || st.Repaired != 3 {
		t.Fatalf("scrub corrupt=%d repaired=%d, want 3/3", st.Corrupt, st.Repaired)
	}
	snap = s.Snapshot()
	if snap.ScrubPages == 0 || snap.ScrubCorrupt != 3 || snap.ScrubRepaired != 3 {
		t.Fatalf("snapshot scrub counters pages=%d corrupt=%d repaired=%d, want >0/3/3",
			snap.ScrubPages, snap.ScrubCorrupt, snap.ScrubRepaired)
	}

	st, err = s.ScrubNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 0 {
		t.Fatalf("layout still corrupt after repair: %+v", st)
	}
	// The repaired primaries serve again without failover or degradation.
	if n, info, err := cl.RangeCountCtx(context.Background(), f.Domain()); err != nil || info.Degraded || n != f.Len() {
		t.Fatalf("post-repair query: n=%d degraded=%v err=%v", n, info.Degraded, err)
	}
}

// TestChecksumCorruptionDegradesUnreplicated pins the r=1 contract on a
// layout served with the zero Config, damaged by one flipped bit inside a
// stored record: the page's checksum catches it on the read, and it cannot
// be healed or rerouted. With degraded mode on the answer is partial and
// flagged — never an error, never a record the grid does not hold; with it
// off the query fails with a server error. A disk file truncated under the
// server is the same story for every bucket on it.
func TestChecksumCorruptionDegradesUnreplicated(t *testing.T) {
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir, m, pageBytes := writeReplicatedDir(t, f, 1)
	victim := m[0]
	if victim.Recs < 2 {
		t.Fatalf("bucket %d holds %d records, want a second one to damage", victim.ID, victim.Recs)
	}
	// The second record's second coordinate.
	const flipAt = 3
	flipRecordBit(t, dir, victim.Disk, victim.Page, pageBytes, flipAt)

	s, err := OpenDir(dir, Config{Degraded: true, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := newTestClient(t, s, ClientConfig{})
	want := recordSet(f)
	pts, info, err := cl.RangeCtx(context.Background(), f.Domain())
	if err != nil || !info.Degraded || info.MissedDisks != 1 {
		t.Fatalf("range over a flipped record: degraded=%v missed=%d err=%v, want true/1",
			info.Degraded, info.MissedDisks, err)
	}
	if len(pts) > f.Len()-victim.Recs || missingFrom(want, pts) != 0 {
		t.Fatalf("degraded range = %d points, %d of them not the grid's; want at most the %d records off bucket %d",
			len(pts), missingFrom(want, pts), f.Len()-victim.Recs, victim.ID)
	}
	n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
	if err != nil {
		t.Fatalf("query over corrupt page errored despite degraded mode: %v", err)
	}
	if !info.Degraded {
		t.Fatal("corrupt page served without the degraded flag")
	}
	if n >= f.Len() {
		t.Fatalf("degraded count %d not a strict subset of %d", n, f.Len())
	}
	// Detection without replication: counted, not hidden — and not repaired.
	st, err := s.ScrubNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || st.Repaired != 0 {
		t.Fatalf("scrub corrupt=%d repaired=%d, want 1/0", st.Corrupt, st.Repaired)
	}

	// A layout has one server at a time: the strict one serves a second,
	// identical layout with the same damage.
	strictDir, _, _ := writeReplicatedDir(t, f, 1)
	flipRecordBit(t, strictDir, victim.Disk, victim.Page, pageBytes, flipAt)
	strict, err := OpenDir(strictDir, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	strictCl := newTestClient(t, strict, ClientConfig{})
	var se *ServerError
	if pts, _, err := strictCl.RangeCtx(context.Background(), f.Domain()); !errors.As(err, &se) {
		t.Fatalf("strict range over a flipped record: %d points (%d not the grid's), err %v; want a server error",
			len(pts), missingFrom(want, pts), err)
	}
	gone := (victim.Disk + 1) % 4
	loseDisk(t, dir, gone)
	loseDisk(t, strictDir, gone)
	lost, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
	if err != nil || !info.Degraded || info.MissedDisks != 2 || lost >= n {
		t.Fatalf("disk %d truncated: count %d (was %d), degraded=%v missed=%d, err %v, want fewer, 2 disks missed",
			gone, lost, n, info.Degraded, info.MissedDisks, err)
	}
	if _, _, err := strictCl.RangeCountCtx(context.Background(), f.Domain()); err == nil {
		t.Fatal("a truncated disk with degraded mode off did not fail the query")
	}
}

// TestBackgroundScrubLoopRepairs proves the ScrubInterval loop heals
// corruption without any explicit call: arm a fast interval, damage a page,
// and the counters show detection and repair shortly after.
func TestBackgroundScrubLoopRepairs(t *testing.T) {
	f, err := synth.Uniform2D(600, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir, m, pageBytes := writeReplicatedDir(t, f, 2)
	victim := m[0]
	flipPage(t, dir, victim.OwnerDisks[0], victim.OwnerPages[0], pageBytes)

	s, err := OpenDir(dir, Config{
		ScrubInterval: 5 * time.Millisecond,
		CacheBytes:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.ScrubRepaired >= 1 {
			if snap.ScrubCorrupt < 1 || snap.ScrubPages == 0 {
				t.Fatalf("inconsistent scrub counters: %+v", snap)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrub never repaired the page: %+v", s.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
