package store

import (
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// randKeys draws n in-domain keys from a seeded PRNG.
func randKeys(dom geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		p := make(geom.Point, len(dom))
		for d, iv := range dom {
			p[d] = iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
		}
		out[i] = p
	}
	return out
}

// verifyStoreMatchesGrid proves every live grid bucket is readable from the
// store and holds exactly the grid's records, and that every replica copy
// is byte-identical to the primary with valid checksums.
func verifyStoreMatchesGrid(t *testing.T, s *Store, f *gridfile.File) {
	t.Helper()
	total := 0
	for _, v := range f.Buckets() {
		fl, _, err := readBucket(context.Background(), s, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if fl.Len() != v.Records {
			t.Fatalf("bucket %d: read %d records, grid has %d", v.ID, fl.Len(), v.Records)
		}
		total += fl.Len()
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
		verifyReplicaIdentity(t, s, v.ID)
	}
	if total != f.Len() {
		t.Fatalf("store holds %d records, grid has %d", total, f.Len())
	}
}

// verifyReplicaIdentity reads every owner copy's raw pages and requires
// byte-identical content with valid CRCs.
func verifyReplicaIdentity(t *testing.T, s *Store, id int32) {
	t.Helper()
	pl, ok := s.Placement(id)
	if !ok {
		t.Fatalf("bucket %d has no placement", id)
	}
	pageBytes := s.Manifest().PageBytes
	var primary []byte
	for i, d := range pl.OwnerDisks {
		buf := make([]byte, pl.Pages*pageBytes)
		if _, err := s.files[d].ReadAt(buf, pl.OwnerPages[i]*int64(pageBytes)); err != nil {
			t.Fatalf("bucket %d copy on disk %d: %v", id, d, err)
		}
		for p := 0; p < pl.Pages; p++ {
			page := buf[p*pageBytes : (p+1)*pageBytes]
			if got, want := binary.LittleEndian.Uint32(page[8:]), pageChecksum(page); got != want {
				t.Fatalf("bucket %d copy on disk %d page %d: checksum %08x, want %08x", id, d, p, got, want)
			}
		}
		if i == 0 {
			primary = buf
			continue
		}
		if string(buf) != string(primary) {
			t.Fatalf("bucket %d: copy on disk %d differs from primary", id, d)
		}
	}
}

func TestWritableInsertSplitReadBack(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grid := s.Grid()
	if grid == nil {
		t.Fatal("writable store has no grid")
	}

	buckets0 := grid.NumBuckets()
	for _, key := range randKeys(grid.Domain(), 2000, 7) {
		if _, err := s.Insert(context.Background(), key); err != nil {
			t.Fatalf("insert %v: %v", key, err)
		}
	}
	wc := s.WriteCounters()
	if wc.Inserts != 2000 {
		t.Fatalf("inserts counter %d, want 2000", wc.Inserts)
	}
	if wc.BucketSplits == 0 || grid.NumBuckets() <= buckets0 {
		t.Fatalf("expected splits (counter %d, buckets %d -> %d)", wc.BucketSplits, buckets0, grid.NumBuckets())
	}
	if wc.JournalAppends != 2*2000 {
		t.Fatalf("journal appends %d, want %d (r=2)", wc.JournalAppends, 2*2000)
	}
	if f.Len()+2000 != grid.Len() {
		t.Fatalf("grid holds %d records, want %d", grid.Len(), f.Len()+2000)
	}
	verifyStoreMatchesGrid(t, s, grid)

	// Close checkpoints: it truncates the journals, and a reopen sees the
	// mutated state with nothing to replay.
	s.Close()
	for d := 0; d < s.Manifest().Disks; d++ {
		st, err := os.Stat(filepath.Join(dir, JournalFileName(d)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("journal %d holds %d bytes after checkpoint", d, st.Size())
		}
	}
	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if n := ro.WriteCounters().JournalReplays; n != 0 {
		t.Fatalf("reopen after the checkpoint replayed %d operations", n)
	}
	g2 := ro.Grid()
	if g2.Len() != f.Len()+2000 {
		t.Fatalf("reopened grid holds %d records, want %d", g2.Len(), f.Len()+2000)
	}
	if ro.w.checkpointLSN == 0 {
		t.Fatal("checkpoint LSN not recorded")
	}
	verifyStoreMatchesGrid(t, ro, g2)
}

func TestWritableDeleteAndMerge(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grid := s.Grid()

	// Delete most of the dataset: forces buddy merges.
	var keys []geom.Point
	for _, v := range f.Buckets() {
		f.ForEachRecordInBucket(v.ID, func(key []float64, _ []byte) {
			keys = append(keys, append(geom.Point(nil), key...))
		})
	}
	removed := 0
	for i, key := range keys {
		if i%5 == 4 {
			continue // keep every fifth record
		}
		res, err := s.Delete(context.Background(), key)
		if err != nil {
			t.Fatalf("delete %v: %v", key, err)
		}
		if !res.Applied {
			t.Fatalf("delete %v: record not found", key)
		}
		removed++
	}
	if got := s.WriteCounters().Deletes; got != int64(removed) {
		t.Fatalf("deletes counter %d, want %d", got, removed)
	}
	if grid.Len() != f.Len()-removed {
		t.Fatalf("grid holds %d records, want %d", grid.Len(), f.Len()-removed)
	}
	if grid.NumBuckets() >= f.NumBuckets() {
		t.Fatalf("expected merges: %d buckets still %d", f.NumBuckets(), grid.NumBuckets())
	}
	verifyStoreMatchesGrid(t, s, grid)

	// Deleting a missing key is a clean no-op.
	res, err := s.Delete(context.Background(), geom.Point{-0.5, -0.5})
	if err == nil && res.Applied {
		t.Fatal("deleting an out-of-domain key removed something")
	}

	// After close + reopen the merged state round-trips, from the checkpoint
	// Close wrote.
	s.Close()
	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if n := ro.WriteCounters().JournalReplays; n != 0 {
		t.Fatalf("reopen after Close replayed %d operations", n)
	}
	g2 := ro.Grid()
	if g2.Len() != f.Len()-removed {
		t.Fatalf("reopened grid holds %d records, want %d", g2.Len(), f.Len()-removed)
	}
	verifyStoreMatchesGrid(t, ro, g2)
}

func TestReplayAfterAbandon(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointEvery(0) // keep everything in the journals
	keys := randKeys(f.Domain(), 500, 11)
	for _, key := range keys {
		if _, err := s.Insert(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseNoCheckpoint() // crash stand-in: layout.grd is stale

	// The stale committed grid must not see the inserts...
	stale, err := openCommitted(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	g := stale.Grid()
	stale.Close()
	if g.Len() != f.Len() {
		t.Fatalf("stale grid holds %d records, want %d", g.Len(), f.Len())
	}

	// ...but replay must recover every acknowledged one.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WriteCounters().JournalReplays; got != int64(len(keys)) {
		t.Fatalf("replayed %d ops, want %d", got, len(keys))
	}
	grid := s2.Grid()
	if grid.Len() != f.Len()+len(keys) {
		t.Fatalf("replayed grid holds %d records, want %d", grid.Len(), f.Len()+len(keys))
	}
	for _, key := range keys {
		if len(grid.Lookup(key)) == 0 {
			t.Fatalf("acknowledged insert %v lost after replay", key)
		}
	}
	verifyStoreMatchesGrid(t, s2, grid)

	// Replay checkpointed: a second reopen replays nothing.
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.WriteCounters().JournalReplays; got != 0 {
		t.Fatalf("second reopen replayed %d ops, want 0", got)
	}
	if s3.Grid().Len() != f.Len()+len(keys) {
		t.Fatalf("second reopen lost records: %d, want %d", s3.Grid().Len(), f.Len()+len(keys))
	}
}
