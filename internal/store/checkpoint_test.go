package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// TestCheckpointKilledBeforeCommit is the regression test for the checkpoint
// that had two commit points: the store is killed after the new state is
// durable but before its one rename. While the grid file was renamed over
// grid.grd ahead of a separate manifest, reopening paired the new grid with
// the old placements and replayed the journals on top of it — 3 inserts came
// back as 6 records, and 200 inserts (with splits) left a layout OpenWritable
// refused with "live bucket … has no placement". Here the kill comes after the
// data fsyncs, and the directory is left holding what the rename would have
// committed, complete and synced, as the temporary: reopening must remove it
// and replay the journals onto the last committed checkpoint, each insert
// exactly once.
func TestCheckpointKilledBeforeCommit(t *testing.T) {
	for _, n := range []int{3, 200} {
		for _, r := range []int{1, 2} {
			t.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(t *testing.T) {
				dir, f, _ := buildReplicatedLayout(t, 4, r)
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				s.SetCheckpointEvery(0)
				keys := randKeys(f.Domain(), n, 5)
				for _, key := range keys {
					if _, err := s.Insert(context.Background(), key); err != nil {
						t.Fatal(err)
					}
				}
				if n == 200 && s.WriteCounters().BucketSplits == 0 {
					t.Fatal("200 inserts split no bucket")
				}
				// The checkpoint's crash points: 1 after the data fsyncs, 2
				// after the commit rename.
				calls := 0
				s.w.crash = func() bool { calls++; return calls == 1 }
				if err := s.Checkpoint(); !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("checkpoint: %v, want the simulated crash", err)
				}
				tmp, err := os.Create(filepath.Join(dir, ".layout.grd.tmp"))
				if err != nil {
					t.Fatal(err)
				}
				if err := writeCheckpoint(tmp, s.Grid(), s.Manifest(), s.w.nextLSN-1, mustLive(t, s)); err != nil {
					t.Fatal(err)
				}
				if err := tmp.Close(); err != nil {
					t.Fatal(err)
				}
				s.CloseNoCheckpoint()

				s2, err := Open(dir)
				if err != nil {
					t.Fatalf("reopen after the torn checkpoint: %v", err)
				}
				defer s2.Close()
				grid := s2.Grid()
				if grid.Len() != f.Len()+n {
					t.Fatalf("%d records after reopen, want %d+%d", grid.Len(), f.Len(), n)
				}
				for _, key := range keys {
					if got := len(grid.Lookup(key)); got != 1 {
						t.Fatalf("inserted key %v found %d times", key, got)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, ".layout.grd.tmp")); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("the uncommitted checkpoint survived the reopen: %v", err)
				}
				verifyStoreMatchesGrid(t, s2, grid)
				if st, err := s2.Scrub(context.Background(), 0); err != nil || st.Corrupt != 0 {
					t.Fatalf("scrub after reopen: %+v, %v", st, err)
				}
			})
		}
	}
}

// TestReplayMatchesLive runs one seeded insert/delete sequence — enough
// inserts to split buckets, enough deletes to merge some — down both ends of
// the write path: applied live and checkpointed, and applied live, dropped
// without a checkpoint and recovered by journal replay. The two must end in
// the same grid file, byte for byte, and the same records in every copy of
// every bucket. The live store, checkpointed and reopened, must find free
// exactly the pages it would have reused itself.
func TestReplayMatchesLive(t *testing.T) {
	base, f, _ := buildReplicatedLayoutOf(t, 600, 4, 2)
	var ops []crashOp
	for _, key := range randKeys(f.Domain(), 500, 21) {
		ops = append(ops, crashOp{key: key})
	}
	for i, v := range f.Buckets() { // empty three buckets in four of the original
		if i%4 != 0 {
			f.ForEachRecordInBucket(v.ID, func(key []float64, _ []byte) {
				ops = append(ops, crashOp{del: true, key: slices.Clone(key)})
			})
		}
	}
	for i := 0; i < 500; i += 2 { // and drop half of the inserted
		ops = append(ops, crashOp{del: true, key: ops[i].key})
	}

	// apply runs the sequence against a copy of the base layout and reports
	// how many buddy merges it saw (a delete that retired a bucket reports
	// two stale buckets: the survivor and the retired one). Every live bucket
	// an op reports stale must read back, rewritten, straight after the op,
	// and a retired one must have no placement left — and after a merge every
	// bucket must read back, in case the report named the wrong ones.
	apply := func() (s *Store, merges int) {
		s, err := Open(copyLayout(t, base))
		if err != nil {
			t.Fatal(err)
		}
		s.SetCheckpointEvery(0)
		for i, op := range ops {
			mutate := s.Insert
			if op.del {
				mutate = s.Delete
			}
			m, err := mutate(context.Background(), op.key)
			if err != nil || !m.Applied {
				t.Fatalf("op %d: applied=%v err=%v", i, m.Applied, err)
			}
			stale := m.Stale
			if op.del && len(stale) == 2 { // the survivor, then the bucket merged away
				if pl, ok := s.Placement(stale[1]); ok {
					t.Fatalf("op %d: bucket %d merged away, placement %+v left", i, stale[1], pl)
				}
				stale = stale[:1]
				merges++
				for _, v := range s.Grid().Buckets() {
					checkBucketCopies(t, s, v.ID)
				}
			}
			for _, id := range stale {
				checkBucketCopies(t, s, id)
			}
		}
		return s, merges
	}

	live, merges := apply()
	if splits := live.WriteCounters().BucketSplits; splits == 0 || merges == 0 {
		t.Fatalf("sequence caused %d splits and %d merges, want some of each", splits, merges)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	free := reusablePages(live)
	live.Close()
	live, err := Open(live.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if got := reusablePages(live); !maps.EqualFunc(got, free, slices.Equal) {
		t.Fatalf("free pages after reopen %v, the live store's %v", got, free)
	}
	if len(free) == 0 {
		t.Fatal("the live run left no page to reuse")
	}

	crashed, _ := apply()
	crashed.CloseNoCheckpoint()
	replayed, err := Open(crashed.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got := replayed.WriteCounters().JournalReplays; got != int64(len(ops)) {
		t.Fatalf("replayed %d ops, want %d", got, len(ops))
	}

	var a, b bytes.Buffer
	if _, err := live.Grid().WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := replayed.Grid().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("grid after replay (%d bytes) differs from grid after the live run (%d bytes)", b.Len(), a.Len())
	}
	for _, v := range live.Grid().Buckets() {
		checkBucketCopies(t, live, v.ID)
		checkBucketCopies(t, replayed, v.ID)
	}
}

// checkBucketCopies reads one bucket of a writable store from every disk that
// owns a copy and requires each to decode to the multiset of records the
// store's grid holds for it.
func checkBucketCopies(t *testing.T, s *Store, id int32) {
	t.Helper()
	var want [][2]float64
	if !s.Grid().ForEachRecordInBucket(id, func(key []float64, _ []byte) {
		want = append(want, [2]float64{key[0], key[1]})
	}) {
		t.Fatalf("bucket %d is not a live bucket of the grid", id)
	}
	slices.SortFunc(want, cmpRow)
	pl, ok := s.Placement(id)
	if !ok {
		t.Fatalf("bucket %d has no placement", id)
	}
	for _, d := range pl.OwnerDisks {
		out := make([]geom.Flat, 1)
		if _, err := s.ReadFlatsFromTimed(context.Background(), d, []int32{id}, out, nil); err != nil {
			t.Fatalf("bucket %d on disk %d: %v", id, d, err)
		}
		var got [][2]float64
		for i := 0; i < out[0].Len(); i++ {
			got = append(got, [2]float64{out[0].Row(i)[0], out[0].Row(i)[1]})
		}
		slices.SortFunc(got, cmpRow)
		if !slices.Equal(got, want) {
			t.Fatalf("bucket %d on disk %d: read %d records, the grid holds %d (or they differ)", id, d, len(got), len(want))
		}
	}
}

func cmpRow(a, b [2]float64) int { return slices.Compare(a[:], b[:]) }

// TestOpenRemovesStrays plants what a kill inside a checkpoint can
// leave in a layout directory — atomicWriteFile's temporary — beside files
// that are none of the store's business, the files of older layout
// generations among them, and checks Open removes the former and only
// the former.
func TestOpenRemovesStrays(t *testing.T) {
	dir, _, _ := buildReplicatedLayout(t, 4, 2)
	bystanders := []string{"NOTES.txt", ".hidden", "layout.grd.bak", "grid.grd", "grid.1024.grd"}
	strays := []string{".layout.grd.tmp", ".manifest.json.tmp"}
	want := map[string]bool{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		want[e.Name()] = true
	}
	for d := 0; d < 4; d++ {
		want[JournalFileName(d)] = true // Open creates the journals
	}
	for _, name := range bystanders {
		want[name] = true
	}
	for _, name := range append(bystanders, strays...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CloseNoCheckpoint()
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Errorf("%s survived Open", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("%s was removed by Open", name)
	}
}

// writeMixLayout writes a layout the size of the repo benchmark's write-mix
// layout — 400 000 hot.2d records, so about 10 000 buckets, minimax over 8
// disks at r=2.
func writeMixLayout(b testing.TB) string {
	f, err := synth.Hotspot2D(400_000, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: 2}).Place(g, alloc)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := WriteReplicated(dir, f, rm, 4096); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkCheckpoint times one forced checkpoint of a write-mix sized
// layout: the data fsyncs, the checkpoint file written, synced and
// renamed, the journals truncated. It guards the checkpoint's cost below the
// served benchmark, where it shows as store.checkpoint_s.
func BenchmarkCheckpoint(b *testing.B) {
	s, err := Open(writeMixLayout(b))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Grid().NumBuckets()), "buckets")
}

// BenchmarkOpen times Open of a write-mix sized layout: the checkpoint file
// decoded, the disk files opened, every placement checked against them, the
// free pages derived and the (empty) journals opened.
// It shows in the served benchmark as store.open_s, and inside setup_s.
func BenchmarkOpen(b *testing.B) {
	dir := writeMixLayout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
