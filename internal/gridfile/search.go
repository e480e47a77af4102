package gridfile

import (
	"math"
	"slices"
	"sort"

	"pgridfile/internal/geom"
)

// locate returns the id of the bucket owning the cell that contains p: the
// key check, the scale search and the directory lookup every insert, delete,
// BucketAt and Lookup starts with. It folds each dimension's cell into the
// row-major directory index as it goes, so it takes no scratch and allocates
// nothing; it reads only structures that are immutable between mutations, so
// it is safe for concurrent readers.
func (f *File) locate(p geom.Point) (int32, error) {
	if err := f.checkKey(p); err != nil {
		return 0, err
	}
	idx := 0
	for d, n := range f.sizes {
		idx = idx*int(n) + int(f.scaleCell(d, p[d]))
	}
	return f.dir[idx], nil
}

// Lookup returns all records whose key equals p exactly (duplicate keys are
// permitted). Returned keys are copies and safe to retain. Lookup is safe
// for concurrent readers.
func (f *File) Lookup(p geom.Point) []Record {
	id, err := f.locate(p)
	if err != nil {
		return nil
	}
	b := f.bkts[id]
	dims := f.cfg.Dims
	var out []Record
	for i, n := 0, b.count(dims); i < n; i++ {
		if key := b.keys[i*dims : (i+1)*dims]; pointEqual(key, p) {
			out = append(out, copyRecord(key))
		}
	}
	return out
}

// BucketAt returns the id of the bucket owning the cell that contains p,
// or ok=false when p is not a key of this file (wrong dimensionality or
// outside the domain). This is the coordinator-side translation a point query
// or a mutation needs before touching the page store; it is safe for
// concurrent readers.
func (f *File) BucketAt(p geom.Point) (id int32, ok bool) {
	id, err := f.locate(p)
	return id, err == nil
}

func pointEqual(a []float64, b geom.Point) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// copyRecord is the record of key, a view into bucket storage, with a key of
// its own that the caller may keep.
func copyRecord(key []float64) Record {
	return Record{Key: geom.Point(key).Clone()}
}

// cellRange computes the inclusive cell-index range [lo,hi] intersected by
// the closed query interval q along dimension d. A query interval touching a
// cell boundary includes both adjacent cells, matching the paper's counting
// of buckets "retrieved to process" a query.
func (f *File) cellRange(d int, q geom.Interval) (int32, int32, bool) {
	dom := f.cfg.Domain[d]
	if q.Hi < dom.Lo || q.Lo > dom.Hi {
		return 0, 0, false
	}
	s := f.scales[d]
	// lo: first cell whose upper boundary is >= q.Lo. Cell c covers
	// [s[c-1], s[c]) so cells with s[c] < q.Lo are entirely below.
	lo := int32(sort.Search(len(s), func(i int) bool { return s[i] >= q.Lo }))
	// hi: last cell whose lower boundary is <= q.Hi, i.e. count of split
	// points <= q.Hi.
	hi := int32(sort.Search(len(s), func(i int) bool { return s[i] > q.Hi }))
	return lo, hi, true
}

// queryCellBox converts a query rect to an inclusive cell-index box written
// into lo/hi, reporting ok=false if the query misses the domain entirely.
func (f *File) queryCellBox(q geom.Rect, lo, hi []int32) bool {
	for d := 0; d < f.cfg.Dims; d++ {
		l, h, o := f.cellRange(d, q[d])
		if !o {
			return false
		}
		lo[d], hi[d] = l, h
	}
	return true
}

// BucketsInRange returns the ids of the distinct buckets a range query must
// retrieve. This is what the declustering simulator charges as I/O: one
// fetch per distinct bucket. The result is in ascending id order.
// BucketsInRange works entirely on immutable structures plus pooled scratch,
// so it is safe for concurrent readers — the property the network query
// service relies on to translate queries without a coordinator lock.
func (f *File) BucketsInRange(q geom.Rect) []int32 {
	ids := f.BucketsInRangeAppend(q, nil)
	slices.Sort(ids)
	return ids
}

// BucketsInRangeAppend is BucketsInRange appending onto a caller-owned
// slice, and allocating nothing when it has room — the form for callers
// that reuse a scratch slice across queries (the network server's
// translation step). The appended ids are distinct and in directory order,
// not sorted: the server reads them through the store, which orders each
// disk's batch by page itself. Ids already in the slice are left untouched.
func (f *File) BucketsInRangeAppend(q geom.Rect, ids []int32) []int32 {
	if len(q) != f.cfg.Dims {
		return ids
	}
	sc := f.getScratch()
	defer putScratch(sc)
	if !f.queryCellBox(q, sc.lo, sc.hi) {
		return ids
	}
	f.forEachCellIn(sc.lo, sc.hi, sc.cell, func(idx int) {
		if id := f.dir[idx]; !sc.visit(id) {
			ids = append(ids, id)
		}
	})
	return ids
}

// CountSplitAppend is the translation of a range count. It appends onto ids
// the border buckets of q — those owning a cell on the border of q's cell
// box, whose records a count must still test — and returns how many inside
// buckets there are and the records they hold. An inside bucket owns no
// border cell; its region is a box of cells, so it owns only interior ones,
// and every interior cell lies inside q (cellRange: the cell after the
// lowest starts at or above q.Lo, the cell before the highest ends at or
// below q.Hi). Each of its records is in the count without being read.
// Border and inside buckets are disjoint and together are BucketsInRange(q).
// A bound that is NaN or inverted leaves every bucket on the border.
//
// The split is decided by cell position, not by testing each bucket's
// bounds: the faces of the cell box are walked first and their buckets
// appended, then the interior cells, where a bucket not seen yet is inside.
// Only an inside bucket's record count is read. Like BucketsInRangeAppend it
// allocates nothing when ids has room and is safe for concurrent readers.
func (f *File) CountSplitAppend(q geom.Rect, ids []int32) (out []int32, insideBuckets, insideRecords int) {
	for _, iv := range q {
		if !(iv.Lo <= iv.Hi) {
			return f.BucketsInRangeAppend(q, ids), 0, 0
		}
	}
	if len(q) != f.cfg.Dims {
		return ids, 0, 0
	}
	sc := f.getScratch()
	defer putScratch(sc)
	lo, hi := sc.lo, sc.hi
	if !f.queryCellBox(q, lo, hi) {
		return ids, 0, 0
	}
	border := func(idx int) {
		if id := f.dir[idx]; !sc.visit(id) {
			ids = append(ids, id)
		}
	}
	// The faces across dimension d, within the box the dimensions before it
	// have shrunk to their interior: together, every border cell once.
	for d := range lo {
		bottom, top := lo[d], hi[d]
		hi[d] = bottom
		f.forEachCellIn(lo, hi, sc.cell, border)
		if top > bottom {
			lo[d], hi[d] = top, top
			f.forEachCellIn(lo, hi, sc.cell, border)
		}
		lo[d], hi[d] = bottom+1, top-1
		if lo[d] > hi[d] {
			return ids, 0, 0
		}
	}
	keys := 0
	f.forEachCellIn(lo, hi, sc.cell, func(idx int) {
		if id := f.dir[idx]; !sc.visit(id) {
			insideBuckets++
			keys += len(f.bkts[id].keys)
		}
	})
	return ids, insideBuckets, keys / f.cfg.Dims
}

// RangeSearch returns copies of all records whose keys lie inside the closed
// query box.
func (f *File) RangeSearch(q geom.Rect) []Record {
	var out []Record
	f.rangeSearch(q, func(key []float64) { out = append(out, copyRecord(key)) })
	return out
}

// RangeCount returns the number of records inside the closed query box
// without materializing them.
func (f *File) RangeCount(q geom.Rect) int {
	n := 0
	f.rangeSearch(q, func([]float64) { n++ })
	return n
}

func (f *File) rangeSearch(q geom.Rect, emit func(key []float64)) {
	if len(q) != f.cfg.Dims {
		return
	}
	for _, id := range f.BucketsInRange(q) {
		b := f.bkts[id]
		dims := f.cfg.Dims
		for i, n := 0, b.count(dims); i < n; i++ {
			key := b.keys[i*dims : (i+1)*dims]
			if rectContains(q, key) {
				emit(key)
			}
		}
	}
}

func rectContains(q geom.Rect, key []float64) bool {
	for d := range q {
		if key[d] < q[d].Lo || key[d] > q[d].Hi {
			return false
		}
	}
	return true
}

// PartialMatch answers a partial match query: vals[d] gives the exact value
// required along dimension d, and NaN marks an unspecified attribute. The
// paper's DM optimality results are stated for this query class.
func (f *File) PartialMatch(vals []float64) []Record {
	if len(vals) != f.cfg.Dims {
		return nil
	}
	q := make(geom.Rect, f.cfg.Dims)
	for d, v := range vals {
		if math.IsNaN(v) {
			q[d] = f.cfg.Domain[d]
		} else {
			q[d] = geom.Interval{Lo: v, Hi: v}
		}
	}
	var out []Record
	f.rangeSearch(q, func(key []float64) {
		for d, v := range vals {
			if !math.IsNaN(v) && key[d] != v {
				return
			}
		}
		out = append(out, copyRecord(key))
	})
	return out
}
