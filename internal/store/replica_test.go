package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// buildReplicatedLayout writes an r-way minimax layout of a uniform 2-D
// dataset under t.TempDir.
func buildReplicatedLayout(t testing.TB, disks, r int) (string, *gridfile.File, *replica.Map) {
	return buildReplicatedLayoutOf(t, 1200, disks, r)
}

// buildReplicatedLayoutOf is buildReplicatedLayout over n records.
func buildReplicatedLayoutOf(t testing.TB, n, disks, r int) (string, *gridfile.File, *replica.Map) {
	t.Helper()
	f, err := synth.Uniform2D(n, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	return dir, f, rm
}

// TestWriteReplicatedRoundTrip proves every copy of every bucket is
// independently readable and identical to the primary: the layout the
// failover path depends on actually holds r intact copies.
func TestWriteReplicatedRoundTrip(t *testing.T) {
	const disks, r = 4, 2
	dir, f, rm := buildReplicatedLayout(t, disks, r)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Manifest().Replicas; got != r {
		t.Fatalf("Manifest().Replicas = %d, want %d", got, r)
	}
	ctx := context.Background()
	for i, v := range f.Buckets() {
		own := s.placement(v.ID).OwnerDisks
		if len(own) != r {
			t.Fatalf("bucket %d: %d owners, want %d", v.ID, len(own), r)
		}
		if want := rm.Owners[i]; own[0] != want[0] || own[1] != want[1] {
			t.Fatalf("bucket %d: owners %v, placer said %v", v.ID, own, want)
		}
		primary, _, err := readBucket(ctx, s, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		one := make([]geom.Flat, 1)
		for _, d := range own {
			if _, err := s.ReadFlatsFromTimed(ctx, d, []int32{v.ID}, one, nil); err != nil {
				t.Fatalf("bucket %d copy on disk %d: %v", v.ID, d, err)
			}
			if !slices.Equal(one[0].Coords, primary.Coords) {
				t.Fatalf("bucket %d copy on disk %d differs from the primary", v.ID, d)
			}
		}
		// A non-owner disk must refuse, not misread another bucket's pages.
		for d := 0; d < disks; d++ {
			if d == own[0] || d == own[1] {
				continue
			}
			if _, err := s.ReadFlatsFromTimed(ctx, d, []int32{v.ID}, one, nil); err == nil || !strings.Contains(err.Error(), "no copy on disk") {
				t.Fatalf("bucket %d read from non-owner disk %d: err=%v", v.ID, d, err)
			}
		}
	}

	// r=1: every tool lays out through Placer.Place and WriteReplicated, and
	// Write stays for callers holding a bare allocation. The two routes must
	// leave the same directory, byte for byte: the checkpoint file and every
	// disk file.
	viaPlacer, f, rm := buildReplicatedLayout(t, disks, 1)
	alloc := core.Allocation{Disks: disks, Assign: make([]int, len(rm.Owners))}
	for i, own := range rm.Owners {
		alloc.Assign[i] = own[0]
	}
	direct := t.TempDir()
	if _, err := Write(direct, f, alloc, 4096); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(direct)
	if err != nil {
		t.Fatal(err)
	}
	if others, err := os.ReadDir(viaPlacer); err != nil || len(others) != len(names) || len(names) != disks+1 {
		t.Fatalf("Write left %d files, Place+WriteReplicated %d (%v), want the checkpoint file and %d disk files",
			len(names), len(others), err, disks)
	}
	for _, e := range names {
		a, err := os.ReadFile(filepath.Join(direct, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(viaPlacer, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between Write and Place+WriteReplicated at r=1", e.Name())
		}
	}
}

// TestOwnerDirectedBatch checks a whole disk's copies — primaries and
// secondaries — read as one batch (the shape the server's disk workers
// submit) against batches of one.
func TestOwnerDirectedBatch(t *testing.T) {
	const disks, r = 4, 2
	dir, f, _ := buildReplicatedLayout(t, disks, r)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for d := 0; d < disks; d++ {
		var ids []int32
		for _, v := range f.Buckets() {
			for _, o := range s.placement(v.ID).OwnerDisks {
				if o == d {
					ids = append(ids, v.ID)
					break
				}
			}
		}
		got := make([]geom.Flat, len(ids))
		if _, err := s.ReadFlatsFromTimed(ctx, d, ids, got, nil); err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
		want := make([]geom.Flat, 1)
		for i, id := range ids {
			if _, err := s.ReadFlatsFromTimed(ctx, d, []int32{id}, want, nil); err != nil {
				t.Fatal(err)
			}
			if got[i].Dims != want[0].Dims || !slices.Equal(got[i].Coords, want[0].Coords) {
				t.Fatalf("disk %d bucket %d: batched and single reads differ", d, id)
			}
		}
		// One foreign id must fail the whole batch with a clear error.
		for _, v := range f.Buckets() {
			owned := false
			for _, o := range s.placement(v.ID).OwnerDisks {
				if o == d {
					owned = true
				}
			}
			if owned {
				continue
			}
			if _, err := s.ReadFlatsFromTimed(ctx, d, append([]int32{v.ID}, ids...), make([]geom.Flat, len(ids)+1), nil); err == nil {
				t.Fatalf("disk %d: batch containing foreign bucket %d succeeded", d, v.ID)
			}
			break
		}
	}
}

// TestManifestVersioning pins what the writer emits: every new layout,
// replicated or not, is one checkpoint file — the grid file, which any grid
// file reader reads, then the header with page format 2, the disk and replica
// counts, and an owner disk and first page per copy — beside its disk files,
// with no manifest.json or grid.grd. (What Open refuses is TestOpenRefusals'
// table.)
func TestManifestVersioning(t *testing.T) {
	r2, _, _ := buildReplicatedLayout(t, 4, 2)
	r1, _, _ := buildLayout(t, 2, 4096)
	for _, c := range []struct {
		dir             string
		disks, replicas uint64
	}{{r1, 2, 1}, {r2, 4, 2}} {
		raw, err := os.ReadFile(filepath.Join(c.dir, "layout.grd"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := gridfile.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: the checkpoint file does not read as a grid file: %v", c.dir, err)
		}
		var grid bytes.Buffer
		if _, err := g.WriteTo(&grid); err != nil {
			t.Fatal(err)
		}
		h := raw[grid.Len():]
		le := binary.LittleEndian
		if len(h) != checkpointHeaderBytes+g.NumBuckets()*int(c.replicas)*checkpointCopyBytes ||
			string(h[:4]) != "PGLY" || le.Uint32(h[4:]) != 2 || le.Uint64(h[8:]) != c.disks || le.Uint64(h[24:]) != c.replicas {
			t.Errorf("%s: header % x and %d bytes behind the grid; want PGLY, format 2, %d disks, %d replicas and a copy per replica per bucket",
				c.dir, h[:min(len(h), checkpointHeaderBytes)], len(h), c.disks, c.replicas)
		}
		for _, old := range []string{"manifest.json", "grid.grd"} {
			if _, err := os.Stat(filepath.Join(c.dir, old)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: %s: %v, want none", c.dir, old, err)
			}
		}
	}
}

// TestPickOwnerTakesOwnersInOrder pins read selection: a read goes to the
// primary, each failover to the next owner in OwnerDisks order, and after the
// last owner — or after a disk that owns no copy — there is none.
func TestPickOwnerTakesOwnersInOrder(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 3)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := f.Buckets()[0].ID
	own := s.placement(id).OwnerDisks

	after := -1
	for i, want := range own {
		d, ok := s.PickOwner(id, after)
		if !ok || d != want {
			t.Fatalf("pick %d after disk %d = %d/%v, want owner %d", i, after, d, ok, want)
		}
		after = d
	}
	if _, ok := s.PickOwner(id, after); ok {
		t.Fatal("pick after the last owner reported a live disk")
	}
	for d := 0; d < 4; d++ {
		if !slices.Contains(own, d) {
			if _, ok := s.PickOwner(id, d); ok {
				t.Fatalf("pick after disk %d, which owns no copy, reported a live disk", d)
			}
		}
	}
	if _, ok := s.PickOwner(-7, -1); ok {
		t.Fatal("pick of an unknown bucket reported a live disk")
	}
}
