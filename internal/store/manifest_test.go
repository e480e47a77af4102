package store

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/synth"
)

// manifestCase is one doctored manifest.json: edit rewrites a valid layout's
// envelope and layout in place; flat, when set, drops the envelope and writes
// the layout as the whole document (the pre-replication shape).
type manifestCase struct {
	name    string
	vintage bool // a retired generation: the refusal must name gridtool layout
	flat    bool
	edit    func(env *manifestVersion, m *Manifest)
}

// manifestCases is every manifest Open must refuse: the retired on-disk
// generations, and placements that would send the read path out of bounds.
// The base layout (doctorableLayout) is r=2, so bucket 0 has two owners to
// disagree.
var manifestCases = []manifestCase{
	{name: "no envelope", vintage: true, flat: true},
	{name: "version 2", vintage: true, edit: func(env *manifestVersion, _ *Manifest) { env.Version = 2 }},
	{name: "version 4", vintage: true, edit: func(env *manifestVersion, _ *Manifest) { env.Version = 4 }},
	{name: "page_format 0", vintage: true, edit: func(_ *manifestVersion, m *Manifest) { m.PageFormat = 0 }},
	{name: "page_format 1", vintage: true, edit: func(_ *manifestVersion, m *Manifest) { m.PageFormat = 1 }},

	{name: "recs -1", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Recs = -1 }},
	{name: "recs beyond the pages", edit: func(_ *manifestVersion, m *Manifest) {
		m.Buckets[0].Recs = m.Buckets[0].Pages*recordsPerPage(m.PageBytes, m.Dims) + 1
	}},
	{name: "pages 0", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Pages = 0 }},
	{name: "pages -1", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Pages = -1 }},
	{name: "pages huge", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Pages = 1 << 40 }},
	{name: "pages overflow", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Pages = 1<<63 - 1 }},
	{name: "primary page -1", edit: func(_ *manifestVersion, m *Manifest) {
		m.Buckets[0].Page, m.Buckets[0].OwnerPages[0] = -1, -1
	}},
	{name: "copy past end of file", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].OwnerPages[1] = 1 << 30 }},
	{name: "copy straddles end of file", edit: func(_ *manifestVersion, m *Manifest) {
		m.Buckets[0].Pages, m.Buckets[0].Recs = 1<<20, 0
	}},
	{name: "duplicate id", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[1].ID = m.Buckets[0].ID }},
	{name: "id 2^31-1", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].ID = math.MaxInt32 }},
	{name: "id -1", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].ID = -1 }},
	{name: "no owner lists", edit: func(_ *manifestVersion, m *Manifest) {
		m.Buckets[0].OwnerDisks, m.Buckets[0].OwnerPages = nil, nil
	}},
	{name: "primary disagrees with owner 0", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].Page++ }},
	{name: "owner disk out of range", edit: func(_ *manifestVersion, m *Manifest) { m.Buckets[0].OwnerDisks[1] = m.Disks }},
	{name: "owner disk twice", edit: func(_ *manifestVersion, m *Manifest) {
		m.Buckets[0].OwnerDisks[1] = m.Buckets[0].OwnerDisks[0]
	}},
	{name: "more disks than files", edit: func(_ *manifestVersion, m *Manifest) { m.Disks = 1 << 40 }},
	{name: "dims disagree with domain", edit: func(_ *manifestVersion, m *Manifest) { m.Dims = 1 << 61 }},
	{name: "page smaller than a record", edit: func(_ *manifestVersion, m *Manifest) { m.PageBytes = pageHeaderBytes + 8 }},
	{name: "more replicas than disks", edit: func(_ *manifestVersion, m *Manifest) { m.Replicas = m.Disks + 1 }},
}

// doctorableLayout writes the small r=2 layout the cases edit: a handful of
// buckets, so its manifest is a seed the fuzzer can minimise quickly.
func doctorableLayout(t testing.TB) (dir string, manifest []byte) {
	t.Helper()
	dir, f, _ := buildReplicatedLayoutOf(t, 150, 3, 2)
	if f.NumBuckets() < 2 {
		t.Fatalf("layout has %d buckets, the cases need two", f.NumBuckets())
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, manifest
}

// render applies the case to a valid manifest.json and returns the doctored
// document.
func (c manifestCase) render(t testing.TB, valid []byte) []byte {
	t.Helper()
	var env manifestVersion
	var m Manifest
	if err := json.Unmarshal(valid, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Layout, &m); err != nil {
		t.Fatal(err)
	}
	if c.edit != nil {
		c.edit(&env, &m)
	}
	layout, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if c.flat {
		return layout
	}
	env.Layout = layout
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readEverything reads every copy of every bucket, singly and as one batch
// per disk. Errors are the caller's business; the point is that a store Open
// accepted can be read without a panic.
func readEverything(s *Store) (failed int) {
	ctx := context.Background()
	m := s.Manifest()
	perDisk := make([][]int32, m.Disks)
	one := make([]geom.Flat, 1)
	for _, pl := range m.Buckets {
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

// TestOpenRefusals walks the table: Open returns an error on every retired
// vintage (naming the way to regenerate) and every malformed placement, and
// never panics. The untouched manifest, re-encoded the same way, still opens
// and reads clean, so a refusal is the edit's doing. Last, under that valid
// manifest, the grid file is swapped for another dataset's: Open loads and
// checks the grid itself, so it refuses that too, whoever the caller is.
func TestOpenRefusals(t *testing.T) {
	dir, valid := doctorableLayout(t)
	path := filepath.Join(dir, "manifest.json")
	for _, c := range append([]manifestCase{{name: "untouched"}}, manifestCases...) {
		if err := os.WriteFile(path, c.render(t, valid), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		switch {
		case c.name == "untouched":
			if err != nil {
				t.Fatalf("re-encoded valid manifest refused: %v", err)
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
		}
	}

	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := synth.Uniform2D(500, 99).Build()
	if err != nil {
		t.Fatal(err)
	}
	var grid bytes.Buffer
	if _, err := other.WriteTo(&grid); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, gridFileName(0)), grid.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir); err == nil {
		s.Close()
		t.Error("another dataset's grid.grd: Open accepted it")
	} else if !strings.Contains(err.Error(), "grid file") {
		t.Errorf("another dataset's grid.grd: refusal does not name the grid file: %v", err)
	}
}

// TestHostileIDSizesNothing: the placement table is indexed by bucket id, so
// a manifest that claims bucket 2³¹−1 must be refused before that id can
// size it — a 16 GiB table of pointers otherwise. Open checks every claimed
// id against the grid file's buckets first; what it allocates on the way to
// the refusal stays far below one such table.
func TestHostileIDSizesNothing(t *testing.T) {
	dir, valid := doctorableLayout(t)
	for _, c := range manifestCases {
		if c.name != "id 2^31-1" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), c.render(t, valid), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		runtime.ReadMemStats(&after)
		if err == nil {
			s.Close()
			t.Fatal("a manifest placing bucket 2147483647 was accepted")
		}
		if !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("refusal does not name the id: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("refusing the manifest allocated %d bytes", alloc)
		}
		return
	}
	t.Fatal("no manifest case places bucket 2147483647")
}

// FuzzManifest opens arbitrary bytes as the manifest.json beside a valid
// layout's disk files: the result must be an error or a store whose every
// bucket copy can be read — successfully or not — without a panic, and whose
// manifest marshalManifest encodes to the bytes referenceMarshalManifest does.
func FuzzManifest(f *testing.F) {
	dir, valid := doctorableLayout(f)
	f.Add(valid)
	for _, c := range manifestCases {
		f.Add(c.render(f, valid))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		s, err := openManifest(dir, manifest, false)
		if err != nil {
			return
		}
		defer s.Close()
		readEverything(s)
		m := s.Manifest()
		got, err := marshalManifest(&m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMarshalManifest(&m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("marshalManifest gave %d bytes, the reference encoder %d (or they differ)", len(got), len(want))
		}
	})
}

// TestMarshalManifestMatchesReference holds marshalManifest to the reference
// encoder where FuzzManifest cannot take it, since Open refuses such layouts:
// nil and empty lists, zero omitted fields, extreme ids and pages, floats that
// encoding/json writes in exponent form — and both refuse a bound that is not
// a JSON number.
func TestMarshalManifestMatchesReference(t *testing.T) {
	cases := []Manifest{
		{},
		{Disks: 2, Dims: 1, PageBytes: 4096, Replicas: 2, PageFormat: 2, CheckpointLSN: 1<<64 - 1,
			Domain: [][2]float64{}, Buckets: []Placement{}},
		{Domain: [][2]float64{{math.Copysign(0, -1), 1e-7}, {1e21, -123.456}, {5e-324, math.MaxFloat64}, {-1e-6, 999999999999999999999}},
			Buckets: []Placement{
				{ID: math.MinInt32, OwnerDisks: []int{}},
				{ID: 3, Disk: 1, Page: 1 << 62, Pages: 2, Recs: -9, OwnerDisks: []int{1, 0}, OwnerPages: []int64{1 << 62, -5}},
			}},
	}
	for i, m := range cases {
		got, err := marshalManifest(&m)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := referenceMarshalManifest(&m)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: got\n%s\nwant\n%s", i, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		m := Manifest{Domain: [][2]float64{{0, bad}}}
		if _, err := marshalManifest(&m); err == nil {
			t.Errorf("domain bound %v encoded", bad)
		}
		if _, err := referenceMarshalManifest(&m); err == nil {
			t.Errorf("the reference encoded domain bound %v", bad)
		}
	}
}

// referenceMarshalManifest is the encoder marshalManifest replaced — the
// layout indented on its own, then indented again inside the envelope — kept
// as the byte-for-byte reference the fuzzer holds marshalManifest to.
func referenceMarshalManifest(m *Manifest) ([]byte, error) {
	layout, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(manifestVersion{
		Version: manifestVersionCurrent,
		Layout:  layout,
	}, "", "  ")
}
