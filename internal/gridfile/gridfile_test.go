package gridfile

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pgridfile/internal/geom"
)

func domain2D() geom.Rect {
	return geom.NewRect([]float64{0, 0}, []float64{2000, 2000})
}

func newTestFile(t *testing.T, dims, capacity int) *File {
	t.Helper()
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for i := range hi {
		hi[i] = 2000
	}
	f, err := New(Config{Dims: dims, Domain: geom.NewRect(lo, hi), BucketCapacity: capacity})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func insertUniform(t *testing.T, f *File, n int, seed int64) []geom.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := f.Dims()
	dom := f.Domain()
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			p[d] = dom[d].Lo + rng.Float64()*dom[d].Length()
		}
		if err := f.Insert(Record{Key: p}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		pts = append(pts, p)
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Dims: 0, Domain: domain2D(), BucketCapacity: 4},
		{Dims: 2, Domain: geom.NewRect([]float64{0}, []float64{1}), BucketCapacity: 4},
		{Dims: 2, Domain: domain2D(), BucketCapacity: 1},
		{Dims: 2, Domain: geom.NewRect([]float64{0, 5}, []float64{10, 5}), BucketCapacity: 4},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestDimsCapMatchesDecode: New refuses what Decode refuses, so every grid
// file written decodes. At maxDims a file builds, takes records and
// round-trips; one dimension more is an error, not a file the decoder (or
// the layout writer's one-bit-per-dimension Hilbert order) cannot take.
func TestDimsCapMatchesDecode(t *testing.T) {
	unit := func(dims int) geom.Rect {
		r := make(geom.Rect, dims)
		for d := range r {
			r[d] = geom.Interval{Lo: 0, Hi: 1}
		}
		return r
	}
	if _, err := New(Config{Dims: maxDims + 1, Domain: unit(maxDims + 1), BucketCapacity: 4}); err == nil {
		t.Fatalf("New accepted %d dims, which Decode refuses", maxDims+1)
	}
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 20)
	for i := range recs {
		recs[i].Key = make(geom.Point, maxDims)
		for d := range recs[i].Key {
			recs[i].Key[d] = rng.Float64()
		}
	}
	f, err := BulkLoad(Config{Dims: maxDims, Domain: unit(maxDims), BucketCapacity: 4}, recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, _, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode of a %d-D file: %v", maxDims, err)
	}
	if g.Len() != len(recs) || g.NumBuckets() != f.NumBuckets() {
		t.Fatalf("decoded %d records in %d buckets, want %d in %d", g.Len(), g.NumBuckets(), len(recs), f.NumBuckets())
	}
}

func TestInsertRejectsBadKeys(t *testing.T) {
	f := newTestFile(t, 2, 4)
	if err := f.Insert(Record{Key: geom.Point{1}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := f.Insert(Record{Key: geom.Point{-1, 5}}); err == nil {
		t.Error("out-of-domain key accepted")
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts", f.Len())
	}
}

func TestInsertAndLookup(t *testing.T) {
	f := newTestFile(t, 2, 4)
	pts := insertUniform(t, f, 500, 1)
	if f.Len() != 500 {
		t.Fatalf("Len = %d, want 500", f.Len())
	}
	for _, p := range pts {
		got := f.Lookup(p)
		if len(got) != 1 {
			t.Fatalf("Lookup(%v) returned %d records, want 1", p, len(got))
		}
	}
	if got := f.Lookup(geom.Point{1234.5, 987.6}); len(got) != 0 {
		t.Errorf("Lookup of absent key returned %d records", len(got))
	}
}

func TestInvariantsAfterInserts(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 4} {
		f := newTestFile(t, dims, 8)
		insertUniform(t, f, 2000, int64(dims))
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		st := f.Stats()
		if st.Records != 2000 {
			t.Errorf("dims=%d: Stats.Records = %d", dims, st.Records)
		}
		if st.OverfullBuckets != 0 {
			t.Errorf("dims=%d: %d overfull buckets on distinct keys", dims, st.OverfullBuckets)
		}
		if st.MaxOccupancy > 8 {
			t.Errorf("dims=%d: MaxOccupancy %d > capacity", dims, st.MaxOccupancy)
		}
	}
}

func TestCapacityRespected(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 1000, 7)
	dims := f.Dims()
	for id, b := range f.bkts {
		if b == nil {
			continue
		}
		if n := b.count(dims); n > 4 {
			t.Errorf("bucket %d holds %d records, capacity 4", id, n)
		}
	}
}

func TestMergedBucketsAppearUnderSkew(t *testing.T) {
	// Clustered data makes scales dense around the cluster; buckets away
	// from it span many cells. This is the merged-subspace phenomenon the
	// paper's conflict resolution exists for.
	f := newTestFile(t, 2, 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		p := geom.Point{
			clamp(1000+rng.NormFloat64()*100, 0, 2000),
			clamp(1000+rng.NormFloat64()*100, 0, 2000),
		}
		if err := f.Insert(Record{Key: p}); err != nil {
			t.Fatal(err)
		}
	}
	// A few uniform points force cells far from the hotspot.
	insertUniform(t, f, 200, 4)
	st := f.Stats()
	if st.MergedBuckets == 0 {
		t.Error("skewed dataset produced no merged buckets")
	}
	if st.Cells <= st.Buckets {
		t.Errorf("cells %d should exceed buckets %d under skew", st.Cells, st.Buckets)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	f := newTestFile(t, 3, 6)
	pts := insertUniform(t, f, 1500, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		q := randomQuery(rng, f.Domain())
		got := f.RangeSearch(q)
		want := 0
		for _, p := range pts {
			if q.ContainsPoint(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: RangeSearch returned %d records, brute force %d (q=%v)",
				trial, len(got), want, q)
		}
		for _, r := range got {
			if !q.ContainsPoint(r.Key) {
				t.Fatalf("trial %d: record %v outside query %v", trial, r.Key, q)
			}
		}
		if n := f.RangeCount(q); n != want {
			t.Fatalf("trial %d: RangeCount = %d, want %d", trial, n, want)
		}
	}
}

func randomQuery(rng *rand.Rand, dom geom.Rect) geom.Rect {
	q := make(geom.Rect, len(dom))
	for d := range dom {
		a := dom[d].Lo + rng.Float64()*dom[d].Length()
		w := rng.Float64() * dom[d].Length() * 0.3
		q[d] = geom.Interval{Lo: a, Hi: math.Min(a+w, dom[d].Hi)}
	}
	return q
}

func TestBucketsInRangeDeduplicates(t *testing.T) {
	f := newTestFile(t, 2, 8)
	insertUniform(t, f, 800, 21)
	full := f.Domain()
	ids := f.BucketsInRange(full)
	if len(ids) != f.NumBuckets() {
		t.Fatalf("full-domain query touched %d buckets, file has %d", len(ids), f.NumBuckets())
	}
	seen := make(map[int32]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate bucket id %d", id)
		}
		seen[id] = true
	}
	// Repeat to exercise the visit-generation path.
	ids2 := f.BucketsInRange(full)
	if len(ids2) != len(ids) {
		t.Fatalf("second query returned %d buckets, want %d", len(ids2), len(ids))
	}
}

func TestRangeSearchOutsideDomain(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 100, 31)
	q := geom.NewRect([]float64{3000, 3000}, []float64{4000, 4000})
	if got := f.RangeSearch(q); len(got) != 0 {
		t.Errorf("query outside domain returned %d records", len(got))
	}
	if ids := f.BucketsInRange(q); len(ids) != 0 {
		t.Errorf("query outside domain touched %d buckets", len(ids))
	}
}

func TestPartialMatch(t *testing.T) {
	f := newTestFile(t, 2, 4)
	// Grid of integer points so exact matching is meaningful.
	for x := 0.0; x < 20; x++ {
		for y := 0.0; y < 20; y++ {
			if err := f.Insert(Record{Key: geom.Point{x * 100, y * 100}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	nan := math.NaN()
	got := f.PartialMatch([]float64{500, nan})
	if len(got) != 20 {
		t.Fatalf("partial match x=500 returned %d records, want 20", len(got))
	}
	for _, r := range got {
		if r.Key[0] != 500 {
			t.Errorf("partial match returned key %v", r.Key)
		}
	}
	exact := f.PartialMatch([]float64{500, 700})
	if len(exact) != 1 {
		t.Fatalf("fully-specified partial match returned %d records", len(exact))
	}
	all := f.PartialMatch([]float64{nan, nan})
	if len(all) != 400 {
		t.Fatalf("all-unspecified match returned %d records, want 400", len(all))
	}
}

func TestDeleteAndMerge(t *testing.T) {
	f := newTestFile(t, 2, 4)
	pts := insertUniform(t, f, 600, 41)
	before := f.NumBuckets()
	// Delete everything.
	for i, p := range pts {
		if !f.Delete(p) {
			t.Fatalf("Delete(%v) failed at %d", p, i)
		}
		if i%50 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", f.Len())
	}
	if f.NumBuckets() >= before {
		t.Errorf("no buckets merged: before %d, after %d", before, f.NumBuckets())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleting again fails cleanly.
	if f.Delete(pts[0]) {
		t.Error("Delete of absent key returned true")
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	f := newTestFile(t, 2, 4)
	pts := insertUniform(t, f, 300, 51)
	for _, p := range pts[:150] {
		if !f.Delete(p) {
			t.Fatalf("Delete(%v) failed", p)
		}
	}
	insertUniform(t, f, 300, 52)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 450 {
		t.Fatalf("Len = %d, want 450", f.Len())
	}
}

func TestDuplicateKeysOverflowGracefully(t *testing.T) {
	f := newTestFile(t, 2, 4)
	p := geom.Point{1000, 1000}
	for i := 0; i < 50; i++ {
		if err := f.Insert(Record{Key: p.Clone()}); err != nil {
			t.Fatalf("duplicate insert %d: %v", i, err)
		}
	}
	if got := f.Lookup(p); len(got) != 50 {
		t.Fatalf("Lookup returned %d duplicates, want 50", len(got))
	}
	st := f.Stats()
	if st.OverfullBuckets == 0 {
		t.Error("expected an overfull bucket with 50 duplicate keys and capacity 4")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBucketViews(t *testing.T) {
	f := newTestFile(t, 2, 8)
	insertUniform(t, f, 1000, 71)
	views := f.Buckets()
	if len(views) != f.NumBuckets() {
		t.Fatalf("Buckets returned %d views, want %d", len(views), f.NumBuckets())
	}
	totalRecords := 0
	totalSpan := 0
	for i, v := range views {
		if v.Index != i {
			t.Errorf("view %d has Index %d", i, v.Index)
		}
		totalRecords += v.Records
		totalSpan += v.CellSpan()
		for d := 0; d < 2; d++ {
			if v.CellLo[d] > v.CellHi[d] {
				t.Errorf("view %d: inverted cell bounds", i)
			}
		}
	}
	if totalRecords != f.Len() {
		t.Errorf("views account for %d records, file has %d", totalRecords, f.Len())
	}
	if totalSpan != f.NumCells() {
		t.Errorf("views cover %d cells, grid has %d", totalSpan, f.NumCells())
	}
	// IndexByID must agree with the view enumeration.
	table := f.IndexByID()
	for _, v := range views {
		if table[v.ID] != v.Index {
			t.Errorf("IndexByID[%d] = %d, want %d", v.ID, table[v.ID], v.Index)
		}
	}
}

func TestClear(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 500, 81)
	cells := f.NumCells()
	f.Clear()
	if f.Len() != 0 {
		t.Fatalf("Len = %d after Clear", f.Len())
	}
	if f.NumCells() != cells {
		t.Errorf("Clear changed grid structure: %d cells, want %d", f.NumCells(), cells)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	insertUniform(t, f, 100, 82)
	if f.Len() != 100 {
		t.Fatalf("Len = %d after reload", f.Len())
	}
}

func TestBoundaryKeys(t *testing.T) {
	f := newTestFile(t, 2, 4)
	corners := []geom.Point{
		{0, 0}, {2000, 0}, {0, 2000}, {2000, 2000}, {1000, 2000}, {2000, 1000},
	}
	for _, p := range corners {
		if err := f.Insert(Record{Key: p.Clone()}); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
	}
	insertUniform(t, f, 500, 91)
	for _, p := range corners {
		if got := f.Lookup(p); len(got) != 1 {
			t.Errorf("Lookup(%v) returned %d records", p, len(got))
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
