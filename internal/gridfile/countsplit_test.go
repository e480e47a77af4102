package gridfile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pgridfile/internal/geom"
)

// checkCountSplit holds CountSplitAppend(q) to its contract on f: the border
// buckets it appends and the inside buckets it counts are disjoint and
// together are BucketsInRange(q); every inside bucket's region lies in q;
// and the inside records plus the border buckets' records in q are
// RangeCount(q). It returns the number of inside buckets.
func checkCountSplit(t *testing.T, f *File, q geom.Rect) int {
	t.Helper()
	prefix := []int32{-7} // ids already in the slice are left alone
	ids, insideBuckets, insideRecords := f.CountSplitAppend(q, slices.Clone(prefix))
	if !slices.Equal(ids[:1], prefix) {
		t.Fatalf("q=%v: the slice's first id became %d", q, ids[0])
	}
	border := ids[1:]
	inRange := f.BucketsInRange(q)
	views := map[int32]BucketView{}
	for _, v := range f.Buckets() {
		views[v.ID] = v
	}

	isBorder := map[int32]bool{}
	for _, id := range border {
		if isBorder[id] {
			t.Fatalf("q=%v: border bucket %d appended twice", q, id)
		}
		isBorder[id] = true
		if _, ok := slices.BinarySearch(inRange, id); !ok {
			t.Fatalf("q=%v: border bucket %d is not in BucketsInRange", q, id)
		}
	}
	inside, records := 0, 0
	for _, id := range inRange {
		if isBorder[id] {
			continue
		}
		inside++
		v := views[id]
		records += v.Records
		for d, iv := range v.Region {
			if !(q[d].Lo <= iv.Lo && iv.Hi <= q[d].Hi) {
				t.Fatalf("q=%v: inside bucket %d has region %v, outside q along dimension %d", q, id, v.Region, d)
			}
		}
	}
	if inside != insideBuckets || records != insideRecords {
		t.Fatalf("q=%v: %d inside buckets holding %d records, BucketsInRange leaves %d holding %d",
			q, insideBuckets, insideRecords, inside, records)
	}

	rows := 0
	for _, id := range border {
		f.ForEachRecordInBucket(id, func(key []float64, _ []byte) {
			if rectContains(q, key) {
				rows++
			}
		})
	}
	if want := f.RangeCount(q); insideRecords+rows != want {
		t.Fatalf("q=%v: %d inside records + %d border rows, RangeCount %d", q, insideRecords, rows, want)
	}
	return insideBuckets
}

// edgeBoxes are the boxes every grid of TestCountSplitMatchesRangeCount is
// asked about besides random ones: the whole domain and past it, bounds on
// split points, partial-match lines, NaN and inverted bounds, a box outside
// the domain and one of the wrong dimensionality.
func edgeBoxes(f *File) []geom.Rect {
	dom := f.Domain()
	dims := len(dom)
	box := func(set func(d int) geom.Interval) geom.Rect {
		q := make(geom.Rect, dims)
		for d := range q {
			q[d] = set(d)
		}
		return q
	}
	// A split point a third and two thirds of the way along each scale.
	split := func(d int, at float64) float64 {
		if s := f.Scales(d); len(s) > 0 {
			return s[int(at*float64(len(s)-1))]
		}
		return dom[d].Lo + at*dom[d].Length()
	}
	qs := []geom.Rect{
		dom,
		box(func(d int) geom.Interval { return geom.Interval{Lo: dom[d].Lo - 5, Hi: dom[d].Hi + 5} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: split(d, 1.0/3), Hi: split(d, 2.0/3)} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: dom[d].Lo, Hi: split(d, 2.0/3)} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: dom[d].Hi + 1, Hi: dom[d].Hi + 2} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: split(d, 2.0/3), Hi: split(d, 1.0/3)} }),
		box(func(d int) geom.Interval { return geom.Interval{Lo: dom[d].Hi, Hi: dom[d].Lo} }),
		dom[:dims-1],
		append(dom.Clone(), geom.Interval{Lo: 0, Hi: 1}),
	}
	for d := 0; d < dims; d++ {
		line := func(v float64) geom.Rect {
			q := dom.Clone()
			q[d] = geom.Interval{Lo: v, Hi: v}
			return q
		}
		qs = append(qs, line(split(d, 0.5)), line(split(d, 0.5)+0.25), line(dom[d].Lo), line(dom[d].Hi))
		for _, nan := range []geom.Interval{
			{Lo: math.NaN(), Hi: dom[d].Hi}, {Lo: dom[d].Lo, Hi: math.NaN()}, {Lo: math.NaN(), Hi: math.NaN()},
		} {
			q := dom.Clone()
			q[d] = nan
			qs = append(qs, q)
		}
	}
	return qs
}

// insertHot inserts n keys clustered around the domain's centre, which
// leaves buckets away from it spanning many cells.
func insertHot(t *testing.T, f *File, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := f.Domain()
	for i := 0; i < n; i++ {
		p := make(geom.Point, len(dom))
		for d, iv := range dom {
			p[d] = clamp(iv.Lo+iv.Length()/2+rng.NormFloat64()*iv.Length()/20, iv.Lo, iv.Hi)
		}
		if err := f.Insert(Record{Key: p}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCountSplitMatchesRangeCount holds the count translation to its
// contract (checkCountSplit) on uniform and hot 2-D grids, a 3-D grid and a
// grid whose buckets seeded inserts and deletes have split and merged, over
// random boxes of several sizes and the edge cases of edgeBoxes.
func TestCountSplitMatchesRangeCount(t *testing.T) {
	grids := []struct {
		name  string
		build func(t *testing.T) *File
	}{
		{"uniform.2d", func(t *testing.T) *File {
			f := newTestFile(t, 2, 8)
			insertUniform(t, f, 4000, 1)
			return f
		}},
		{"hot.2d", func(t *testing.T) *File {
			f := newTestFile(t, 2, 8)
			insertHot(t, f, 4000, 2)
			insertUniform(t, f, 300, 3)
			return f
		}},
		{"uniform.3d", func(t *testing.T) *File {
			f := newTestFile(t, 3, 8)
			insertUniform(t, f, 4000, 4)
			return f
		}},
		{"split+merge.2d", func(t *testing.T) *File {
			f := newTestFile(t, 2, 6)
			pts := insertUniform(t, f, 3000, 5)
			insertHot(t, f, 1500, 6)
			rng := rand.New(rand.NewSource(7))
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			for _, p := range pts[:2400] {
				if !f.Delete(p) {
					t.Fatalf("delete of %v found nothing", p)
				}
			}
			insertUniform(t, f, 500, 8)
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			f := g.build(t)
			if f.Stats().MergedBuckets == 0 {
				t.Fatal("no bucket spans more than one cell: the grid does not test merged regions")
			}
			inside := 0
			for _, q := range edgeBoxes(f) {
				checkCountSplit(t, f, q)
			}
			rng := rand.New(rand.NewSource(11))
			dom := f.Domain()
			for i := 0; i < 300; i++ {
				q := make(geom.Rect, len(dom))
				for d, iv := range dom {
					w := iv.Length() * []float64{0.02, 0.1, 0.3, 0.7}[i%4]
					lo := iv.Lo - w/4 + rng.Float64()*(iv.Length()+w/4)
					q[d] = geom.Interval{Lo: lo, Hi: lo + w}
				}
				inside += checkCountSplit(t, f, q)
			}
			if inside == 0 {
				t.Error("no random box has an inside bucket: the split is never exercised")
			}
		})
	}
}

// FuzzCountSplit is TestCountSplitMatchesRangeCount's oracle on a 2-D grid
// of up to 600 keys a seed picks — uniform, clustered or a mix, with a share
// deleted again — and any query box. Without -fuzz its seeds run as tests;
// `go test -fuzz=FuzzCountSplit ./internal/gridfile` fuzzes.
func FuzzCountSplit(f *testing.F) {
	f.Add(int64(1), uint16(400), 0.0, 2000.0, 0.0, 2000.0)
	f.Add(int64(2), uint16(600), 500.0, 1500.0, 900.0, 1100.0)
	f.Add(int64(3), uint16(300), 1000.0, 1000.0, -1.0, 3000.0)
	f.Add(int64(4), uint16(500), 1500.0, 500.0, 0.0, 2000.0)
	f.Add(int64(5), uint16(50), math.NaN(), 1000.0, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lo0, hi0, lo1, hi1 float64) {
		g := newTestFile(t, 2, 4)
		rng := rand.New(rand.NewSource(seed))
		var keys []geom.Point
		for i := 0; i < int(n%601); i++ {
			p := geom.Point{rng.Float64() * 2000, rng.Float64() * 2000}
			if seed%3 != 0 && i%2 == 0 {
				p = geom.Point{clamp(1000+rng.NormFloat64()*80, 0, 2000), clamp(1000+rng.NormFloat64()*80, 0, 2000)}
			}
			if err := g.Insert(Record{Key: p}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, p)
		}
		for i, p := range keys {
			if int64(i)%5 == seed%5 {
				g.Delete(p)
			}
		}
		checkCountSplit(t, g, geom.Rect{{Lo: lo0, Hi: hi0}, {Lo: lo1, Hi: hi1}})
	})
}
