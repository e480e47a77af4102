package gridfile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pgridfile/internal/geom"
)

// Equivalence tests for the two kernels of point location and directory
// growth: locate's scale search against a linear count of split points, and
// refineScale's block copy against the per-cell remap it replaced.

// refCell is the reference cell search: the number of split points <= v,
// counted one by one.
func refCell(scale []float64, v float64) int32 {
	n := int32(0)
	for _, s := range scale {
		if s <= v {
			n++
		}
	}
	return n
}

// growSkewed inserts n records into f, half uniform and half packed around
// one hot corner so that regions merge and some splits refine a scale while
// others only divide a region. It calls after with the result of every insert.
func growSkewed(t *testing.T, f *File, n int, seed int64, after func(InsertResult)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := f.Domain()
	for i := 0; i < n; i++ {
		p := make(geom.Point, f.Dims())
		for d := range p {
			u := rng.Float64()
			if i%2 == 1 {
				u = 0.2 + 0.05*rng.NormFloat64()
			}
			p[d] = clamp(dom[d].Lo+u*dom[d].Length(), dom[d].Lo, dom[d].Hi)
		}
		res, err := f.InsertTracked(Record{Key: p})
		if err != nil {
			t.Fatalf("Insert %v: %v", p, err)
		}
		after(res)
	}
}

func TestLocateMatchesCellSearch(t *testing.T) {
	for dims := 1; dims <= 4; dims++ {
		f := newTestFile(t, dims, 4)
		growSkewed(t, f, 600*dims, int64(dims), func(InsertResult) {})
		rng := rand.New(rand.NewSource(int64(dims)))
		dom := f.Domain()
		random := func() geom.Point {
			p := make(geom.Point, dims)
			for d := range p {
				p[d] = dom[d].Lo + rng.Float64()*dom[d].Length()
			}
			return p
		}
		var probes []geom.Point
		for i := 0; i < 2000; i++ {
			probes = append(probes, random())
		}
		// Every split value itself, and the float just below it, along each
		// dimension: where a > turned into >= would pick the other cell.
		for d := 0; d < dims; d++ {
			for _, s := range f.scales[d] {
				for _, v := range []float64{s, math.Nextafter(s, math.Inf(-1))} {
					p := random()
					p[d] = v
					probes = append(probes, p)
				}
			}
		}
		// Both domain bounds: the corners, and each bound along each
		// dimension alone.
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := range lo {
			lo[d], hi[d] = dom[d].Lo, dom[d].Hi
			for _, v := range []float64{dom[d].Lo, dom[d].Hi} {
				p := random()
				p[d] = v
				probes = append(probes, p)
			}
		}
		probes = append(probes, lo, hi)

		want, got := make([]int32, dims), make([]int32, dims)
		for _, p := range probes {
			for d := range want {
				want[d] = refCell(f.scales[d], p[d])
			}
			f.locateCell(p, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d-D: locateCell(%v) = %v, want %v", dims, p, got, want)
			}
			id, err := f.locate(p)
			if err != nil {
				t.Fatalf("%d-D: locate(%v): %v", dims, p, err)
			}
			if wantID := f.dir[f.cellIndex(want)]; id != wantID {
				t.Fatalf("%d-D: locate(%v) = bucket %d, want %d (cell %v)", dims, p, id, wantID, want)
			}
		}
	}
}

// refineScaleReference is the per-cell directory remap refineScale used
// before it copied blocks: every new cell is unflattened, moved back across
// the new hyperplane, and flattened into the old directory.
func refineScaleReference(f *File, d, at int, split float64) {
	s := f.scales[d]
	pos := 0
	for pos < len(s) && s[pos] < split {
		pos++
	}
	f.scales[d] = slices.Insert(s, pos, split)

	oldSizes := slices.Clone(f.sizes)
	f.sizes[d]++
	for _, b := range f.bkts {
		if b == nil {
			continue
		}
		if int(b.lo[d]) > at {
			b.lo[d]++
		}
		if int(b.hi[d]) >= at {
			b.hi[d]++
		}
	}

	flatten := func(cell, sizes []int32) int {
		idx := 0
		for k, c := range cell {
			idx = idx*int(sizes[k]) + int(c)
		}
		return idx
	}
	newDir := make([]int32, totalCells(f.sizes))
	newCell := make([]int32, f.cfg.Dims)
	oldCell := make([]int32, f.cfg.Dims)
	for i := range newDir {
		unflatten(i, f.sizes, newCell)
		copy(oldCell, newCell)
		if int(newCell[d]) > at {
			oldCell[d] = newCell[d] - 1
		}
		newDir[i] = f.dir[flatten(oldCell, oldSizes)]
	}
	f.dir = newDir
}

// cloneStructure copies f's scales, directory and bucket regions, which a
// refinement rewrites; the records are shared, as a refinement moves none.
func cloneStructure(f *File) *File {
	g := &File{cfg: f.cfg, live: f.live, nrec: f.nrec}
	for _, s := range f.scales {
		g.scales = append(g.scales, slices.Clone(s))
	}
	g.sizes = slices.Clone(f.sizes)
	g.dir = slices.Clone(f.dir)
	g.bkts = make([]*bucket, len(f.bkts))
	for id, b := range f.bkts {
		if b != nil {
			g.bkts[id] = &bucket{lo: slices.Clone(b.lo), hi: slices.Clone(b.hi), keys: b.keys, data: b.data}
		}
	}
	return g
}

func sameStructure(a, b *File) bool {
	if !slices.Equal(a.sizes, b.sizes) || !slices.Equal(a.dir, b.dir) {
		return false
	}
	for d := range a.scales {
		if !slices.Equal(a.scales[d], b.scales[d]) {
			return false
		}
	}
	for id := range a.bkts {
		x, y := a.bkts[id], b.bkts[id]
		if (x == nil) != (y == nil) {
			return false
		}
		if x != nil && (!slices.Equal(x.lo, y.lo) || !slices.Equal(x.hi, y.hi)) {
			return false
		}
	}
	return true
}

// TestRefineScaleMatchesPerCellRemap grows 2-, 3- and 4-D files, checks
// every invariant after every split, and after each split refines a copy of
// the file both ways — block copy and per-cell remap — in a random cell and
// in the first and last cell of a random dimension, requiring the same
// scales, directory and regions.
func TestRefineScaleMatchesPerCellRemap(t *testing.T) {
	for dims := 2; dims <= 4; dims++ {
		f := newTestFile(t, dims, 5)
		rng := rand.New(rand.NewSource(int64(10 + dims)))
		splits := 0
		growSkewed(t, f, 800, int64(dims), func(res InsertResult) {
			if res.Splits == 0 {
				return
			}
			splits += res.Splits
			if err := f.checkInvariants(); err != nil {
				t.Fatalf("%d-D after split %d: %v", dims, splits, err)
			}
			d := rng.Intn(dims)
			for _, at := range []int{rng.Intn(int(f.sizes[d])), 0, int(f.sizes[d]) - 1} {
				iv := f.cellInterval(d, int32(at))
				mid := iv.Lo + iv.Length()/2
				got, want := cloneStructure(f), cloneStructure(f)
				got.refineScale(d, at, mid)
				refineScaleReference(want, d, at, mid)
				if !sameStructure(got, want) {
					t.Fatalf("%d-D after split %d: refining dim %d at cell %d: block copy and per-cell remap differ",
						dims, splits, d, at)
				}
				if err := got.checkInvariants(); err != nil {
					t.Fatalf("%d-D after split %d: refining dim %d at cell %d: %v", dims, splits, d, at, err)
				}
			}
		})
		if splits < 100 {
			t.Fatalf("%d-D: only %d splits: the stream does not exercise refinement", dims, splits)
		}
		t.Logf("%d-D: %d splits, %d cells, %d buckets", dims, splits, f.NumCells(), f.NumBuckets())
	}
}
