package store

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// scrubAllocators is one of each allocator family, mirroring the failure
// matrices elsewhere: the three weight-based engines plus one index-based
// scheme per construction style.
func scrubAllocators(t *testing.T) map[string]core.Allocator {
	t.Helper()
	m := map[string]core.Allocator{
		"minimax": &core.Minimax{Seed: 1},
		"ssp":     &core.SSP{Seed: 1},
		"mst":     &core.MST{Seed: 1},
	}
	for _, name := range []struct{ scheme, resolver string }{
		{"DM", "D"}, {"FX", "R"}, {"HCAM", "F"},
	} {
		a, err := core.NewIndexBased(name.scheme, name.resolver, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", name.scheme, name.resolver, err)
		}
		m[name.scheme+"/"+name.resolver] = a
	}
	return m
}

// pageCopy addresses one physical copy of one bucket page on disk.
type pageCopy struct {
	bucket int32
	disk   int
	page   int64 // absolute page index within the disk file
}

// layoutPageCopies enumerates every physical page copy the placements name.
func layoutPageCopies(pls []*Placement) []pageCopy {
	var out []pageCopy
	for _, pl := range pls {
		for i, d := range pl.OwnerDisks {
			for p := 0; p < pl.Pages; p++ {
				out = append(out, pageCopy{bucket: pl.ID, disk: d, page: pl.OwnerPages[i] + int64(p)})
			}
		}
	}
	return out
}

// TestScrubRepairsEveryPage is the scrubber's acceptance property: for every
// allocator family, corrupt each physical page copy of an r=2 layout in turn
// — rotating a mid-page bit flip, a torn (tail-zeroed) write and a
// misdirected write (another bucket's intact page, checksum and all) — and
// the scrubber must detect exactly that copy, repair it from the intact
// replica, and leave every disk file byte-identical to its pristine state,
// after which every bucket reads back clean, each page's checksum checked.
func TestScrubRepairsEveryPage(t *testing.T) {
	const disks, r, pageBytes = 4, 2, 1024
	for name, alloc := range scrubAllocators(t) {
		t.Run(name, func(t *testing.T) {
			f, err := synth.Uniform2D(300, 3).Build()
			if err != nil {
				t.Fatal(err)
			}
			g := core.FromGridFile(f)
			a, err := alloc.Decluster(g, disks)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := (&replica.Placer{Replicas: r}).Place(g, a)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m, err := WriteReplicated(dir, f, rm, pageBytes)
			if err != nil {
				t.Fatal(err)
			}
			pristine := make(map[int][]byte, disks)
			for d := 0; d < disks; d++ {
				data, err := os.ReadFile(filepath.Join(dir, DiskFileName(d)))
				if err != nil {
					t.Fatal(err)
				}
				pristine[d] = data
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			copies := layoutPageCopies(m)
			if len(copies) == 0 {
				t.Fatal("layout has no pages")
			}
			total := int64(len(copies))
			ctx := context.Background()
			for i, pc := range copies {
				if i%3 == 2 {
					from := copies[slices.IndexFunc(copies, func(c pageCopy) bool { return c.bucket != pc.bucket })]
					misdirectPage(t, dir, pc, from, pageBytes)
				} else {
					corruptPage(t, dir, pc, pageBytes, i%3 == 0)
				}
				st, err := s.Scrub(ctx, 0)
				if err != nil {
					t.Fatalf("page copy %v: scrub: %v", pc, err)
				}
				if st.Pages != total {
					t.Fatalf("page copy %v: scrub verified %d copies, want %d", pc, st.Pages, total)
				}
				if st.Corrupt != 1 || st.Repaired != 1 {
					t.Fatalf("page copy %v: corrupt=%d repaired=%d, want 1/1", pc, st.Corrupt, st.Repaired)
				}
				for d := 0; d < disks; d++ {
					got, err := os.ReadFile(filepath.Join(dir, DiskFileName(d)))
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(pristine[d]) {
						t.Fatalf("page copy %v: disk %d not byte-identical after repair", pc, d)
					}
				}
				if _, _, err := readBucket(ctx, s, pc.bucket); err != nil {
					t.Fatalf("page copy %v: verified read after repair: %v", pc, err)
				}
			}

			// A clean pass over the healed layout finds nothing.
			st, err := s.Scrub(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Corrupt != 0 || st.Repaired != 0 {
				t.Fatalf("clean scrub reported corrupt=%d repaired=%d", st.Corrupt, st.Repaired)
			}
		})
	}
}

// corruptPage damages one physical page copy in place: a one-byte bit flip
// mid-page, or a torn write that zeroes the page's tail.
func corruptPage(t *testing.T, dir string, pc pageCopy, pageBytes int, flip bool) {
	t.Helper()
	fh, err := os.OpenFile(filepath.Join(dir, DiskFileName(pc.disk)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	off := pc.page * int64(pageBytes)
	if flip {
		var b [1]byte
		if _, err := fh.ReadAt(b[:], off+int64(pageBytes)/2); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := fh.WriteAt(b[:], off+int64(pageBytes)/2); err != nil {
			t.Fatal(err)
		}
	} else {
		// Torn write: the page's tail holds stale garbage. XOR rather than
		// zero-fill so the damage is guaranteed even where the tail is
		// padding.
		tail := make([]byte, pageBytes/3)
		if _, err := fh.ReadAt(tail, off+int64(pageBytes-len(tail))); err != nil {
			t.Fatal(err)
		}
		for i := range tail {
			tail[i] ^= 0xA5
		}
		if _, err := fh.WriteAt(tail, off+int64(pageBytes-len(tail))); err != nil {
			t.Fatal(err)
		}
	}
}

// misdirectPage overwrites page copy pc with page copy from — a write that
// landed on the wrong page: intact in itself, but another bucket's.
func misdirectPage(t *testing.T, dir string, pc, from pageCopy, pageBytes int) {
	t.Helper()
	if pc.bucket == from.bucket {
		t.Fatalf("misdirecting bucket %d's page onto itself", pc.bucket)
	}
	page := make([]byte, pageBytes)
	src, err := os.Open(filepath.Join(dir, DiskFileName(from.disk)))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.ReadAt(page, from.page*int64(pageBytes)); err != nil {
		t.Fatal(err)
	}
	dst, err := os.OpenFile(filepath.Join(dir, DiskFileName(pc.disk)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.WriteAt(page, pc.page*int64(pageBytes)); err != nil {
		t.Fatal(err)
	}
}

// TestScrubWithoutReplicaDetectsButCannotRepair pins r=1 behavior: the
// scrubber still finds the corruption (and keeps finding it) but has no
// intact sibling to heal from, so the damage is counted, not hidden.
func TestScrubWithoutReplicaDetectsButCannotRepair(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 1024)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pl, ok := s.Placement(f.Buckets()[0].ID)
	if !ok {
		t.Fatal("placement missing")
	}
	corruptPage(t, dir, pageCopy{bucket: pl.ID, disk: pl.Disk, page: pl.Page}, 1024, true)
	for pass := 0; pass < 2; pass++ {
		st, err := s.Scrub(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Corrupt != 1 || st.Repaired != 0 {
			t.Fatalf("pass %d: corrupt=%d repaired=%d, want 1/0", pass, st.Corrupt, st.Repaired)
		}
	}
}

// TestVerifiedReadReportsChecksum pins what a read does with the corruption
// the scrubber has not reached yet: a flipped bit in the record area fails
// the read — alone or inside a batch — with an error that wraps errChecksum
// and that is not mistaken for an injected fault.
func TestVerifiedReadReportsChecksum(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	victim := f.Buckets()[0].ID
	pl, _ := s.Placement(victim)
	corruptPage(t, dir, pageCopy{bucket: victim, disk: pl.Disk, page: pl.Page}, s.Manifest().PageBytes, false)

	ctx := context.Background()
	for name, ids := range map[string][]int32{"alone": {victim}, "in a batch": bucketIDs(f)} {
		if _, _, err := readPrimaries(ctx, s, ids, nil); !errors.Is(err, errChecksum) || errors.Is(err, fault.ErrInjected) {
			t.Errorf("corrupt bucket read %s: err=%v, want a checksum mismatch", name, err)
		}
	}
}

// TestScrubPauseHonorsContext pins the low-priority throttle: a scrub with
// a between-bucket pause stops promptly when its context is cancelled.
func TestScrubPauseHonorsContext(t *testing.T) {
	dir, _, _ := buildLayout(t, 2, 1024)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Scrub(ctx, time.Hour); err == nil {
		t.Fatal("cancelled scrub ran to completion")
	}
}

// errAfterCtx is a context whose Err() starts reporting Canceled after the
// first n calls — a deterministic stand-in for "the caller cancelled midway
// through the pass" without racing a timer against the scrubber.
type errAfterCtx struct {
	context.Context
	calls, n int
}

func (c *errAfterCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestScrubCancelledPassSyncsRepairs pins the durability fix: a pass that
// exits early (here: cancellation after the first bucket) must still fsync
// the repairs it already wrote — the sync runs in a deferred block on every
// exit path, not only at the natural end of the pass. The test corrupts one
// copy in the first bucket, cancels before the second, and requires the
// repair to be both counted and intact on disk afterwards.
func TestScrubCancelledPassSyncsRepairs(t *testing.T) {
	dir, _, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, pls := s.Manifest(), mustLive(t, s)
	// Corrupt the primary copy of the bucket the sweep starts at: the lowest
	// primary page on the lowest disk.
	first := pls[0]
	for _, pl := range pls {
		if pl.Disk < first.Disk || (pl.Disk == first.Disk && pl.Page < first.Page) {
			first = pl
		}
	}
	target := pageCopy{bucket: first.ID, disk: first.Disk, page: first.Page}
	path := filepath.Join(dir, DiskFileName(target.disk))
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := target.page*int64(m.PageBytes) + 100
	if _, err := fh.WriteAt([]byte{0xAB}, off); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	ctx := &errAfterCtx{Context: context.Background(), n: 1}
	st, serr := s.Scrub(ctx, 0)
	if serr == nil {
		t.Fatal("cancelled pass ran to completion")
	}
	if st.Corrupt != 1 || st.Repaired != 1 {
		t.Fatalf("partial pass: corrupt=%d repaired=%d, want 1/1", st.Corrupt, st.Repaired)
	}
	// The repair must be on disk — reread through a fresh handle.
	buf := make([]byte, m.PageBytes)
	fh, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if _, err := fh.ReadAt(buf, target.page*int64(m.PageBytes)); err != nil {
		t.Fatal(err)
	}
	if got, want := binary.LittleEndian.Uint32(buf[8:]), pageChecksum(buf); got != want {
		t.Fatalf("repaired page checksum %08x, want %08x — repair lost on early exit", got, want)
	}
}

// TestScrubSweepsDisksSequentially pins the visiting order: buckets are
// scrubbed by (primary disk, primary page), one sequential sweep per disk
// file, not by id — ids are in split-history order, and the layout writer
// places buckets along a curve, so id order would walk every file at random.
// A pass cancelled after k buckets must have verified exactly the first k
// placements of the sweep: damage at sweep position k-1 is found, damage at
// position k is not.
func TestScrubSweepsDisksSequentially(t *testing.T) {
	dir, _, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, sweep := s.Manifest(), mustLive(t, s)
	slices.SortFunc(sweep, cmpDiskPage)
	byID := true
	for i := 1; i < len(sweep); i++ {
		byID = byID && sweep[i-1].ID < sweep[i].ID
	}
	if byID {
		t.Fatal("sweep order equals id order on this layout; the test cannot tell them apart")
	}
	for _, k := range []int{1, len(sweep) / 2, len(sweep)} {
		pl := sweep[k-1]
		corruptPage(t, dir, pageCopy{bucket: pl.ID, disk: pl.Disk, page: pl.Page}, m.PageBytes, true)
		st, _ := s.Scrub(&errAfterCtx{Context: context.Background(), n: k - 1}, 0)
		if st.Corrupt != 0 {
			t.Fatalf("k=%d: a pass of %d buckets reached sweep position %d", k, k-1, k-1)
		}
		st, _ = s.Scrub(&errAfterCtx{Context: context.Background(), n: k}, 0)
		if st.Corrupt != 1 || st.Repaired != 1 {
			t.Fatalf("k=%d: a pass of %d buckets found corrupt=%d repaired=%d at sweep position %d, want 1/1",
				k, k, st.Corrupt, st.Repaired, k-1)
		}
	}
}
