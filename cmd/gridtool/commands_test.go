package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/sim"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
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

// TestPrintResponseReadsThroughAtLayoutPageSize holds gridtool layout's span
// figure to the planner's read-through at the layout's own page size: on a
// 1 KiB-page layout it is the model's at 16 pages, not at 4.
func TestPrintResponseReadsThroughAtLayoutPageSize(t *testing.T) {
	const disks, seed = 8, 1
	f, err := synth.Hotspot2D(20000, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: seed}).Decluster(core.FromGridFile(f), disks)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pls, err := store.Write(dir, f, alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pageBytes := s.Manifest().PageBytes
	s.Close()
	if pageBytes != 1024 {
		t.Fatalf("layout written in %d-byte pages, want 1024", pageBytes)
	}
	var out bytes.Buffer
	if err := printResponse(&out, f, pls, disks, pageBytes, seed); err != nil {
		t.Fatal(err)
	}

	lay := sim.DiskLayout{Page: make([]int64, len(pls)), Pages: make([]int, len(pls))}
	for i, pl := range pls {
		lay.Page[i], lay.Pages[i] = pl.OwnerPages[0], pl.Pages
	}
	qs := workload.SquareRange(f.Domain(), 0.01, 1000, seed)
	figure := func(readThrough int) string {
		sr, err := sim.ReplaySpans(f, alloc, f.IndexByID(), qs, lay, readThrough)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("= %.3f spans on the busiest disk", sr.MeanResponseSpans)
	}
	want, old := figure(16), figure(4)
	if want == old {
		t.Fatalf("16 and 4 pages of read-through both read %q: the test cannot tell them apart", want)
	}
	for _, line := range []string{"span read-through: 16 KiB = 16 pages of 1024 B", want} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("printResponse wrote\n%s\nwant a line with %q", out.String(), line)
		}
	}
}
