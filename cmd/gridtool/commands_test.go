package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

func TestParseDomain(t *testing.T) {
	r, err := parseDomain("0:10, 5:20")
	if err != nil {
		t.Fatal(err)
	}
	want := geom.NewRect([]float64{0, 5}, []float64{10, 20})
	for d := range want {
		if r[d] != want[d] {
			t.Errorf("dim %d = %v, want %v", d, r[d], want[d])
		}
	}
	for _, bad := range []string{"", "10", "a:b", "1:2,3"} {
		if _, err := parseDomain(bad); err == nil {
			t.Errorf("parseDomain(%q) accepted", bad)
		}
	}
}

func TestInferDomainPadding(t *testing.T) {
	pts := []geom.Point{{0, 100}, {10, 200}}
	dom := inferDomain(pts)
	if dom[0].Lo >= 0 || dom[0].Hi <= 10 {
		t.Errorf("dim 0 not padded: %v", dom[0])
	}
	if dom[1].Lo >= 100 || dom[1].Hi <= 200 {
		t.Errorf("dim 1 not padded: %v", dom[1])
	}
	// Degenerate axis gets unit padding.
	same := []geom.Point{{5, 5}, {5, 7}}
	dom = inferDomain(same)
	if dom[0].Length() <= 0 {
		t.Errorf("degenerate axis not padded: %v", dom[0])
	}
}

func TestReadPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	if err := os.WriteFile(path, []byte("1,2\n3.5,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pts, err := readPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1][0] != 3.5 {
		t.Fatalf("parsed %v", pts)
	}

	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(bad); err == nil {
		t.Error("ragged CSV accepted")
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(empty); err == nil {
		t.Error("empty CSV accepted")
	}
	nonnum := filepath.Join(dir, "nn.csv")
	if err := os.WriteFile(nonnum, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPoints(nonnum); err == nil {
		t.Error("non-numeric CSV accepted")
	}
}

// TestLoadFileReadsCheckpoint holds loadFile to reading a layout's
// checkpoint file, layout.grd, as the grid file at its front: `gridtool
// stats -file <dir>/layout.grd` works on any layout. The grid it returns
// encodes to the bytes of the grid that was written.
func TestLoadFileReadsCheckpoint(t *testing.T) {
	f, err := synth.Hotspot2D(3000, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.Write(dir, f, alloc, 4096); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(filepath.Join(dir, "layout.grd"))
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if _, err := f.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have.Bytes(), want.Bytes()) {
		t.Fatalf("loadFile(layout.grd) returned a %d-bucket grid encoding to %d bytes, want the written %d-bucket grid's %d bytes",
			got.NumBuckets(), have.Len(), f.NumBuckets(), want.Len())
	}
}
