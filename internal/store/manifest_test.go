package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// doctorable is a small valid layout's checkpoint file and where its sections
// start, for the cases to edit: r=2 over 3 disks, so bucket 0 has two owners
// to collide, and 64-byte pages, so it spans several — but only two buckets of
// 60 records, because the fuzzer minimises every input that finds new
// coverage, at a cost that grows with the square of its length.
type doctorable struct {
	dir   string
	valid []byte
	slots int     // offset of the grid section's bucket slot count
	hdr   int     // offset of the header: the grid section's length
	pls   int     // offset of the placements
	sizes []int64 // disk file sizes in pages
	pages int     // pages of the first bucket placed
	last  int     // offset of the last bucket slot's reserved byte
	lastN int     // records in that bucket
}

func doctorableLayout(t testing.TB) *doctorable {
	t.Helper()
	f, err := synth.Uniform2D(60, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: 2}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteReplicated(dir, f, rm, 64); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "layout.grd"))
	if err != nil {
		t.Fatal(err)
	}
	var grid bytes.Buffer
	if _, err := f.WriteTo(&grid); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(valid, grid.Bytes()) {
		t.Fatal("the checkpoint file does not open with the grid file")
	}
	d := &doctorable{dir: dir, valid: valid, slots: 16 + 16*f.Dims(), hdr: grid.Len(), pls: grid.Len() + checkpointHeaderBytes}
	for dim := range f.Dims() {
		d.slots += 4 + 8*len(f.Scales(dim))
	}
	// The directory follows the last slot; a live one ends in its reserved
	// byte.
	d.last = grid.Len() - 4*(1+f.NumCells()) - 1
	lastID := int32(-1)
	f.ForEachBucket(func(id int32, records int) { lastID, d.lastN = id, records })
	if slots := binary.LittleEndian.Uint32(valid[d.slots:]); lastID != int32(slots)-1 {
		t.Fatalf("the last of %d bucket slots is dead; the payload case edits a live one", slots)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d.sizes, err = s.DiskSizes(); err != nil {
		t.Fatal(err)
	}
	if d.pages = mustLive(t, s)[0].Pages; d.pages < 2 || f.NumBuckets() < 2 {
		t.Fatalf("bucket 0 spans %d pages of %d buckets; the cases need two of each", d.pages, f.NumBuckets())
	}
	return d
}

// copyAt is the offset of copy c of the i-th placement (bucket order, r=2).
func (d *doctorable) copyAt(i, c int) int { return d.pls + (2*i+c)*checkpointCopyBytes }

func put32(b []byte, off int, v uint32) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
func put64(b []byte, off int, v uint64) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }

// checkpointCase is one doctored checkpoint file: edit rewrites a copy of the
// valid one.
type checkpointCase struct {
	name    string
	vintage bool // another generation: the refusal must name gridtool layout
	edit    func(d *doctorable, b []byte) []byte
}

// checkpointCases is every checkpoint file Open must refuse: other
// generations, truncation at and inside each section, and headers and
// placements that would send the read path out of bounds or size something
// from an unchecked count.
var checkpointCases = []checkpointCase{
	{name: "bad magic", vintage: true, edit: func(d *doctorable, b []byte) []byte { copy(b[d.hdr:], "JSON"); return b }},
	{name: "page format 1", vintage: true, edit: func(d *doctorable, b []byte) []byte { return put32(b, d.hdr+4, 1) }},
	{name: "page format 3", vintage: true, edit: func(d *doctorable, b []byte) []byte { return put32(b, d.hdr+4, 3) }},
	{name: "not a grid file", edit: func(_ *doctorable, b []byte) []byte { b[0] = '{'; return b }},

	{name: "empty", edit: func(_ *doctorable, b []byte) []byte { return b[:0] }},
	{name: "truncated inside the grid", edit: func(d *doctorable, b []byte) []byte { return b[:d.hdr/2] }},
	{name: "truncated after the grid", edit: func(d *doctorable, b []byte) []byte { return b[:d.hdr] }},
	{name: "truncated inside the header", edit: func(d *doctorable, b []byte) []byte { return b[:d.hdr+20] }},
	{name: "truncated after the header", edit: func(d *doctorable, b []byte) []byte { return b[:d.pls] }},
	{name: "truncated inside a placement", edit: func(d *doctorable, b []byte) []byte { return b[:d.pls+6] }},
	{name: "a copy short", edit: func(_ *doctorable, b []byte) []byte { return b[:len(b)-checkpointCopyBytes] }},
	{name: "a byte short", edit: func(_ *doctorable, b []byte) []byte { return b[:len(b)-1] }},
	{name: "a trailing byte", edit: func(_ *doctorable, b []byte) []byte { return append(b, 0) }},
	{name: "a trailing copy", edit: func(d *doctorable, b []byte) []byte { return append(b, b[d.pls:d.pls+checkpointCopyBytes]...) }},

	{name: "owner out of range", edit: func(d *doctorable, b []byte) []byte { return put32(b, d.copyAt(0, 1), 3) }},
	{name: "owner 2^32-1", edit: func(d *doctorable, b []byte) []byte { return put32(b, d.copyAt(0, 1), 1<<32-1) }},
	{name: "owner twice", edit: func(d *doctorable, b []byte) []byte {
		return put32(b, d.copyAt(0, 1), binary.LittleEndian.Uint32(b[d.copyAt(0, 0):]))
	}},
	{name: "copy past end of file", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.copyAt(0, 1)+4, 1<<30) }},
	{name: "copy at end of file", edit: func(d *doctorable, b []byte) []byte {
		return put64(b, d.copyAt(0, 0)+4, uint64(d.sizes[binary.LittleEndian.Uint32(b[d.copyAt(0, 0):])]))
	}},
	{name: "copy straddles end of file", edit: func(d *doctorable, b []byte) []byte {
		size := d.sizes[binary.LittleEndian.Uint32(b[d.copyAt(0, 0):])]
		return put64(b, d.copyAt(0, 0)+4, uint64(size-int64(d.pages)+1))
	}},
	{name: "two copies share a page", edit: func(d *doctorable, b []byte) []byte {
		// Bucket 1's copy on the disk of bucket 0's primary — or its primary,
		// when it has none there — moves onto the primary's first page; its
		// owners stay distinct and its pages inside the file.
		primary := b[d.copyAt(0, 0) : d.copyAt(0, 0)+checkpointCopyBytes]
		c := 0
		if binary.LittleEndian.Uint32(b[d.copyAt(1, 1):]) == binary.LittleEndian.Uint32(primary) {
			c = 1
		}
		copy(b[d.copyAt(1, c):], primary)
		return b
	}},
	{name: "first page 2^63", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.copyAt(1, 0)+4, 1<<63) }},
	{name: "first page 2^64-1", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.copyAt(1, 1)+4, 1<<64-1) }},

	{name: "more replicas than disks", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+24, 4) }},
	{name: "replicas 0", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+24, 0) }},
	{name: "replicas 1 on an r=2 file", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+24, 1) }},
	{name: "disks 0", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+8, 0) }},
	{name: "more disks than files", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+8, 4) }},
	{name: "disks 2^40", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+8, 1<<40) }},
	{name: "page smaller than a record", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+16, pageHeaderBytes+8) }},
	{name: "page 2^40 bytes", edit: func(d *doctorable, b []byte) []byte { return put64(b, d.hdr+16, 1<<40) }},
	{name: "grid of 2^31 buckets", edit: func(d *doctorable, b []byte) []byte { return put32(b, d.slots, 1<<31) }},
	// The last bucket's reserved byte set and a one-byte payload per record
	// behind it, as the grid file once encoded a bucket with payloads.
	{name: "record payloads", edit: func(d *doctorable, b []byte) []byte {
		return slices.Concat(b[:d.last], []byte{1}, bytes.Repeat([]byte{1, 0, 0, 0, 'x'}, d.lastN), b[d.last+1:])
	}},
}

func (c checkpointCase) render(d *doctorable) []byte {
	if c.edit == nil {
		return bytes.Clone(d.valid)
	}
	return c.edit(d, bytes.Clone(d.valid))
}

// mustLive returns s's live placements in the grid's Buckets() order, as the
// checkpoint writer takes them.
func mustLive(t testing.TB, s *Store) []*Placement {
	t.Helper()
	live, err := s.livePlacements()
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// readEverything reads every copy of every bucket, singly and as one batch
// per disk. Errors are the caller's business; the point is that a store Open
// accepted can be read without a panic.
func readEverything(s *Store) (failed int) {
	ctx := context.Background()
	perDisk := make([][]int32, s.Manifest().Disks)
	one := make([]geom.Flat, 1)
	live, _ := s.livePlacements()
	for _, pl := range live {
		for _, d := range pl.OwnerDisks {
			perDisk[d] = append(perDisk[d], pl.ID)
			if _, err := s.ReadFlatsFromTimed(ctx, d, []int32{pl.ID}, one, nil); err != nil {
				failed++
			}
		}
	}
	for d, ids := range perDisk {
		if _, err := s.ReadFlatsFromTimed(ctx, d, ids, make([]geom.Flat, len(ids)), &Timing{}); err != nil {
			failed++
		}
	}
	return failed
}

// TestOpenRefusals walks the table: Open returns an error on every doctored
// checkpoint file — naming the way to regenerate where the file is of another
// generation — and never panics. The untouched file, written back, still
// opens and reads clean, so a refusal is the edit's doing. Last, a directory
// of the generation before the checkpoint file — manifest.json beside
// grid.grd — is refused with the same advice.
func TestOpenRefusals(t *testing.T) {
	d := doctorableLayout(t)
	path := filepath.Join(d.dir, "layout.grd")
	for _, c := range append([]checkpointCase{{name: "untouched"}}, checkpointCases...) {
		if err := os.WriteFile(path, c.render(d), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(d.dir)
		switch {
		case c.name == "untouched":
			if err != nil {
				t.Fatalf("valid checkpoint refused: %v", err)
			}
			if n := readEverything(s); n != 0 {
				t.Errorf("valid layout: %d reads failed", n)
			}
			s.Close()
		case err == nil:
			s.Close()
			t.Errorf("%s: Open accepted it", c.name)
		case c.vintage && !strings.Contains(err.Error(), "gridtool layout"):
			t.Errorf("%s: refusal does not say how to regenerate: %v", c.name, err)
		case c.name == "record payloads" && !strings.Contains(err.Error(), "record payloads are not supported"):
			t.Errorf("%s: refused for another reason: %v", c.name, err)
		}
	}

	if err := os.Rename(path, filepath.Join(d.dir, "grid.grd")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.dir, "manifest.json"), []byte(`{"version": 3, "layout": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(d.dir); err == nil {
		s.Close()
		t.Error("a manifest.json layout: Open accepted it")
	} else if !strings.Contains(err.Error(), "manifest.json") || !strings.Contains(err.Error(), "gridtool layout") {
		t.Errorf("a manifest.json layout: refusal names neither the file nor gridtool layout: %v", err)
	}
}

// TestHostileIDSizesNothing: a checkpoint file's counts size the grid's
// bucket table, the disk handles and the placements, so a grid claiming 2³¹
// bucket slots (a 16 GiB table of pointers) or a header claiming 2⁴⁰ disks
// must be refused before either can size anything. What Open allocates on the
// way to each refusal stays far below one such table.
func TestHostileIDSizesNothing(t *testing.T) {
	d := doctorableLayout(t)
	want := map[string]string{"grid of 2^31 buckets": "2147483648", "disks 2^40": "1099511627776"}
	for _, c := range checkpointCases {
		count, ok := want[c.name]
		if !ok {
			continue
		}
		delete(want, c.name)
		if err := os.WriteFile(filepath.Join(d.dir, "layout.grd"), c.render(d), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(d.dir)
		runtime.ReadMemStats(&after)
		if err == nil {
			s.Close()
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), count) {
			t.Errorf("%s: refusal does not name the count: %v", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, alloc)
		}
	}
	for name := range want {
		t.Errorf("no checkpoint case %q", name)
	}
}

// FuzzManifest decodes arbitrary bytes as the checkpoint file beside a valid
// layout's disk files, seeded with the real encoder's file and every row of
// the refusal table: the result must be an error or a store whose every
// bucket copy can be read — successfully or not — without a panic, no two of
// whose copies share a page, and whose layout, encoded again by the writer,
// decodes to the same Manifest.
func FuzzManifest(f *testing.F) {
	d := doctorableLayout(f)
	f.Add(d.valid)
	for _, c := range checkpointCases {
		f.Add(c.render(d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openCheckpoint(d.dir, data)
		if err != nil {
			return
		}
		defer s.Close()
		readEverything(s)
		pls := mustLive(t, s)
		type diskPage struct{ disk, page int64 }
		holder := map[diskPage]int32{}
		for _, pl := range pls {
			for i, disk := range pl.OwnerDisks {
				for p := range int64(pl.Pages) {
					at := diskPage{int64(disk), pl.OwnerPages[i] + p}
					if id, ok := holder[at]; ok {
						t.Fatalf("buckets %d and %d both hold page %d of disk %d", id, pl.ID, at.page, disk)
					}
					holder[at] = pl.ID
				}
			}
		}
		var again bytes.Buffer
		if err := writeCheckpoint(&again, s.Grid(), s.Manifest(), s.w.checkpointLSN, pls); err != nil {
			t.Fatal(err)
		}
		s2, err := openCheckpoint(d.dir, again.Bytes())
		if err != nil {
			t.Fatalf("the writer's encoding of an accepted checkpoint is refused: %v", err)
		}
		defer s2.Close()
		if m, m2 := s.Manifest(), s2.Manifest(); m != m2 || s.w.checkpointLSN != s2.w.checkpointLSN || !reflect.DeepEqual(pls, mustLive(t, s2)) {
			t.Fatalf("re-encoded checkpoint decodes to another layout:\n%+v LSN %d %+v\n%+v LSN %d %+v",
				m, s.w.checkpointLSN, pls, m2, s2.w.checkpointLSN, mustLive(t, s2))
		}
	})
}
