package gridfile

import (
	"slices"
	"sort"
)

// minCellFraction is the smallest cell width, as a fraction of the domain
// extent, that a scale refinement may produce. Below this the file stops
// splitting and lets the bucket overflow (this only happens with heavily
// duplicated keys).
const minCellFraction = 1e-9

// Insert adds one record. The amortized cost is O(log s) scale searches plus
// occasional bucket splits; a split that needs a new split point rebuilds the
// directory in O(#cells), as one pair of block copies per index of the
// dimensions before the refined one, with no per-cell index arithmetic.
func (f *File) Insert(rec Record) error {
	_, err := f.InsertTracked(rec)
	return err
}

// InsertAll adds a batch of records, stopping at the first error.
func (f *File) InsertAll(recs []Record) error {
	for i := range recs {
		if err := f.Insert(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// splitWhileOverfull splits bucket id (and any overfull bucket produced by
// the split) until all affected buckets are within capacity or cannot be
// split further.
func (f *File) splitWhileOverfull(id int32) {
	pending := []int32{id}
	for len(pending) > 0 {
		cur := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		b := f.bkts[cur]
		if b == nil || b.count(f.cfg.Dims) <= f.cfg.BucketCapacity {
			continue
		}
		newID, ok := f.splitBucket(cur)
		if !ok {
			// Unsplittable overfull bucket (duplicate-heavy keys at the
			// minimum cell width); reported via Stats.OverfullBuckets.
			continue
		}
		pending = append(pending, cur, newID)
	}
}

// splitBucket splits bucket id in two, returning the id of the new bucket.
// If the bucket's region is a single cell, a linear scale is refined first
// (the classic grid-file directory split). Returns ok=false when no further
// refinement is possible.
func (f *File) splitBucket(id int32) (int32, bool) {
	b := f.bkts[id]
	d, ok := f.chooseSplitDim(b)
	if !ok {
		return 0, false
	}
	if b.lo[d] == b.hi[d] {
		// Single cell along the chosen dimension: refine the scale at the
		// midpoint of that cell, which stretches b's region (and that of
		// every other bucket crossing the hyperplane) to two cells.
		iv := f.cellInterval(d, b.lo[d])
		mid := iv.Lo + iv.Length()/2
		f.refineScale(d, int(b.lo[d]), mid)
	}
	return f.divideRegion(id, d), true
}

// chooseSplitDim picks the dimension along which to split bucket b: the one
// where its region is widest relative to the domain, which keeps cells
// square-ish (the policy behind the paper-like grid shapes). Dimensions
// refined down to the minimum cell width are excluded. ok=false means the
// bucket cannot be split at all.
func (f *File) chooseSplitDim(b *bucket) (int, bool) {
	region := f.bucketRegion(b)
	splittable := func(d int) bool {
		rel := region[d].Length() / f.cfg.Domain[d].Length()
		return b.hi[d] > b.lo[d] || rel/2 >= minCellFraction
	}

	// At equal extent prefer a multi-cell region: splitting it needs no
	// directory rebuild.
	best, bestScore := -1, -1.0
	bestMulti := false
	for d := 0; d < f.cfg.Dims; d++ {
		if !splittable(d) {
			continue
		}
		rel := region[d].Length() / f.cfg.Domain[d].Length()
		multi := b.hi[d] > b.lo[d]
		if rel > bestScore || (rel == bestScore && multi && !bestMulti) {
			best, bestScore, bestMulti = d, rel, multi
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// refineScale inserts a new split point inside cell `at` of dimension d and
// rebuilds the directory by block copies. Every bucket region crossing the
// new hyperplane is stretched by one cell; regions beyond it shift by one.
func (f *File) refineScale(d, at int, split float64) {
	s := f.scales[d]
	pos := sort.SearchFloat64s(s, split)
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = split
	f.scales[d] = s

	// The directory is row-major, so it is a sequence of blocks, one per
	// index of the dimensions before d, each holding sizes[d] rows of
	// `inner` cells (the product of the sizes after d).
	inner := 1
	for _, n := range f.sizes[d+1:] {
		inner *= int(n)
	}
	oldBlock := int(f.sizes[d]) * inner
	f.sizes[d]++

	// Remap bucket regions. Cell `at` becomes cells at and at+1.
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

	// Rebuild the directory in place: new row j along d is old row j if
	// j <= at, else old row j-1. Per block that is two copies: rows at..end,
	// then rows 0..at, so row at appears twice. Every block moves up, so
	// going from the last block to the first never overwrites a row still to
	// be moved. The directory grows geometrically (append's growth), so a
	// build does not reallocate it at every refinement; mutations exclude
	// readers, so none sees it half moved.
	blocks := len(f.dir) / oldBlock
	newBlock := oldBlock + inner
	f.dir = slices.Grow(f.dir, blocks*inner)[:blocks*newBlock]
	for b := blocks - 1; b >= 0; b-- {
		o, n := b*oldBlock, b*newBlock
		copy(f.dir[n+(at+1)*inner:n+newBlock], f.dir[o+at*inner:o+oldBlock])
		copy(f.dir[n:n+(at+1)*inner], f.dir[o:o+(at+1)*inner])
	}
}

// divideRegion splits bucket id's region in half along dimension d (which
// must span at least two cells), moves the records on the upper side to a
// new bucket, and updates the directory. Returns the new bucket's id.
func (f *File) divideRegion(id int32, d int) int32 {
	b := f.bkts[id]
	mid := (b.lo[d] + b.hi[d]) / 2 // upper side starts at mid+1

	nb := &bucket{
		lo: make([]int32, f.cfg.Dims),
		hi: make([]int32, f.cfg.Dims),
	}
	copy(nb.lo, b.lo)
	copy(nb.hi, b.hi)
	nb.lo[d] = mid + 1
	b.hi[d] = mid

	newID := int32(len(f.bkts))
	f.bkts = append(f.bkts, nb)
	f.live++

	// The split boundary in domain coordinates: records with key >= bound
	// along d move to the new (upper) bucket.
	bound := f.cellInterval(d, mid+1).Lo

	dims := f.cfg.Dims
	n := b.count(dims)
	for i := 0; i < n; {
		if b.keys[i*dims+d] >= bound {
			nb.keys = append(nb.keys, b.keys[i*dims:(i+1)*dims]...)
			b.removeRecord(i, dims)
			n--
		} else {
			i++
		}
	}

	// Update directory entries for the new bucket's region.
	f.forEachCellIn(nb.lo, nb.hi, make([]int32, dims), func(idx int) {
		f.dir[idx] = newID
	})
	return newID
}

// forEachCellIn invokes fn with the flat index of every cell in the box
// [lo,hi] (inclusive), walking with cell (len(lo)) as its cursor.
func (f *File) forEachCellIn(lo, hi, cell []int32, fn func(idx int)) {
	copy(cell, lo)
	for {
		fn(f.cellIndex(cell))
		d := len(cell) - 1
		for d >= 0 {
			cell[d]++
			if cell[d] <= hi[d] {
				break
			}
			cell[d] = lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

func totalCells(sizes []int32) int {
	n := 1
	for _, s := range sizes {
		n *= int(s)
	}
	return n
}

func unflatten(idx int, sizes []int32, cell []int32) {
	for d := len(sizes) - 1; d >= 0; d-- {
		cell[d] = int32(idx % int(sizes[d]))
		idx /= int(sizes[d])
	}
}
