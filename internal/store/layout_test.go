package store

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"pgridfile/internal/gridfile"
)

// layoutDigest hashes a layout directory: its files in name order (as
// os.ReadDir lists them), each as the line "name len\n" followed by its bytes.
func layoutDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// abandonAfterInserts gives a layout directory a writable life that ends
// without a checkpoint: n inserts, all of them still in the journals.
func abandonAfterInserts(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointEvery(0)
	for _, key := range randKeys(s.Grid().Domain(), n, 17) {
		if _, err := s.Insert(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseNoCheckpoint()
}

// TestFreshLayoutBytes pins what a fresh layout is, byte for byte: the uniform
// 1 200-record file, minimax seed 1, 4 disks, a 4096-byte cap — so 1 024-byte
// pages, the smallest that hold a full bucket — at r=1 and r=2. The disk
// files' and the whole directory's digests were re-recorded when pages were
// sized to a full bucket; the 4 KiB pages every earlier layout has are pinned,
// with the digests recorded before, by TestFullPageLayoutStillServes. The
// checkpoint file opens with the grid file that layouts kept as grid.grd
// before the checkpoint file held it. So they hold LayoutOrder, the page size
// and the page format to what they are, and the checkpoint encoding too. A
// change that means to move them re-records the constants and says so.
func TestFreshLayoutBytes(t *testing.T) {
	const gridDigest = "8512d862e28865aa3b47a95eaea7e6d1d77eb8bef3921d4531999be517619f5b"
	for _, c := range []struct {
		r      int
		layout string
		disks  [4]string
	}{
		{1, "fe1063a8b51a6b15a5559412ad4511aecd63acc31f0013be76918341d3382485", [4]string{
			"4ace8efb0866c6b0a2fc5652e97a2cef44d7c71ecd5c56cd40f269b35824b55d",
			"4877761bafff736cb3bdc784a947e44be91a80ffd5c3a82eb3c076fb21c9f749",
			"71c94d72d15494530a5dacd33be3c5f5d9f1de4e84b1ae3a6e518a1fb7d16c47",
			"178c0b0340fa6ee312e07ba39984515cec102c323b256b23125278e421972d57",
		}},
		{2, "9aeb4d76eec8a1010f3e5c6c5da94cb8b0526645528186b83f2bd978eadda7fb", [4]string{
			"151cecad4f0296fb3b62372c182c873d952888d7ce9cc9b4fd3076548922087e",
			"80cb09d6dc3259b304c89e2326578b4281924ad314e83a5f5c59aa26f6292d7e",
			"bc82fe84779d17b7b18c945b7a3e93c7e7c1b1859bd8b7b44faf9e57100d22f4",
			"2c1113f866252306be2f4642d4173d8c17160959544afb1226f2e6fb8559ef7f",
		}},
	} {
		dir, _, _ := buildReplicatedLayout(t, 4, c.r)
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
		ckpt, err := os.ReadFile(filepath.Join(dir, "layout.grd"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(ckpt[:min(len(ckpt), 20154)])); got != gridDigest {
			t.Errorf("r=%d: layout.grd's first 20154 bytes have digest %s; want the grid file's, %s", c.r, got, gridDigest)
		}
	}
}

// TestRelayoutOverUncheckpointedDirectory is the regression test for a fresh
// layout inheriting the journals of the directory's previous life: a writable
// store takes 50 inserts and dies without a checkpoint, the original file is
// laid out again over the same directory, and the next writable open replayed
// the dead store's journals into the new layout (1 250 records, not 1 200).
// A fresh layout clears what the earlier life left, strays included.
func TestRelayoutOverUncheckpointedDirectory(t *testing.T) {
	dir, f, rm := buildReplicatedLayout(t, 4, 2)
	abandonAfterInserts(t, dir, 50)
	// What a kill inside a checkpoint would have added to the leftovers.
	for _, name := range []string{".layout.grd.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".tmp") {
			t.Errorf("%s survived the re-layout", n)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WriteCounters().JournalReplays; got != 0 {
		t.Errorf("the fresh layout replayed %d operations of the directory's previous life", got)
	}
	if got := s2.Grid().Len(); got != f.Len() {
		t.Errorf("%d records after the re-layout, the file laid out has %d", got, f.Len())
	}
	verifyStoreMatchesGrid(t, s2, s2.Grid())
}

// TestBuildCrashAtEveryFailpoint extends the crash matrix to the build: a
// fresh layout is killed at every crash point it passes — before and after
// each page write, and after each step of the commit — into an empty
// directory and over a used one: the same file with two buckets of equal size
// on each other's disks, left with journals by a store that died without a
// checkpoint. A directory under construction is not a layout: Open refuses it
// for want of a checkpoint file until the commit's rename, and from then on
// opens the complete new layout, every copy reading, with nothing of the
// earlier life replayed into it. The used directory is the hard case: its
// grid is the new one byte for byte and its disk files are as long as the new
// ones, so were the old checkpoint still there while the new pages go in,
// Open would accept the old placements over them.
func TestBuildCrashAtEveryFailpoint(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			_, f, rm := buildReplicatedLayoutOf(t, 300, 3, r)
			build := func(dir string, owners [][]int, crash func() bool) error {
				_, err := writeLayout(dir, f, owners, rm.Disks, rm.Replicas, 1024, crash)
				return err
			}
			moved := slices.Clone(rm.Owners)
			views := f.Buckets()
			perPage := recordsPerPage(1024, f.Dims())
			j := slices.IndexFunc(views, func(v gridfile.BucketView) bool {
				return pagesFor(v.Records, perPage) == pagesFor(views[0].Records, perPage) &&
					!slices.Equal(moved[v.Index], moved[0])
			})
			if j < 0 {
				t.Fatal("no bucket the size of bucket 0 on other disks")
			}
			moved[0], moved[j] = moved[j], moved[0]
			used := t.TempDir()
			if err := build(used, moved, nil); err != nil {
				t.Fatal(err)
			}
			abandonAfterInserts(t, used, 20)

			total := 0
			if err := build(t.TempDir(), rm.Owners, func() bool { total++; return false }); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d crash points", total)
			if total <= 2 { // the commit's own: data fsyncs, the rename
				t.Fatalf("%d crash points: the build's page writes passed none", total)
			}
			for _, base := range []string{"", used} {
				for k := 1; k <= total; k++ {
					dir := t.TempDir()
					if base != "" {
						dir = copyLayout(t, base)
					}
					calls := 0
					err := build(dir, rm.Owners, func() bool { calls++; return calls == k })
					if !errors.Is(err, errSimulatedCrash) {
						t.Fatalf("k=%d: build returned %v, want the simulated crash", k, err)
					}
					s, err := Open(dir)
					if k < total {
						if err == nil {
							s.Close()
						}
						if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "layout.grd") {
							t.Fatalf("k=%d (used=%v): Open of a half-built directory: %v, want no checkpoint file", k, base != "", err)
						}
						continue
					}
					// Killed after the rename: the layout is committed.
					if err != nil {
						t.Fatalf("k=%d (used=%v): Open after the commit: %v", k, base != "", err)
					}
					if n := s.WriteCounters().JournalReplays; n != 0 || s.Grid().Len() != f.Len() {
						t.Fatalf("k=%d (used=%v): %d replays, %d records; want 0 and %d", k, base != "", n, s.Grid().Len(), f.Len())
					}
					verifyStoreMatchesGrid(t, s, f)
					s.Close()
				}
			}
		})
	}
}

// TestBuildFailsOnPageWriteError: the write path absorbs a failed page write
// (the journal keeps the redo) and withholds checkpoints; a build has no
// journal, so the withheld checkpoint zero is the build failing — with the
// write's own error, and without a checkpoint file. Disk 1's file is
// /dev/full.
func TestBuildFailsOnPageWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	_, f, rm := buildReplicatedLayoutOf(t, 300, 3, 2)
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, DiskFileName(1))); err != nil {
		t.Fatal(err)
	}
	_, err := WriteReplicated(dir, f, rm, 1024)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("build over a full disk: %v, want ENOSPC", err)
	}
	if _, err := Open(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open after the failed build: %v, want no checkpoint file", err)
	}
}
