package gridfile

import (
	"math"
	"sort"

	"pgridfile/internal/geom"
)

// Scan calls fn with every record in the file, bucket by bucket. The key
// slice is a view into bucket storage and must not be retained or modified.
// Returning false from fn stops the scan early.
func (f *File) Scan(fn func(key []float64, data []byte) bool) {
	dims := f.cfg.Dims
	for _, b := range f.bkts {
		if b == nil {
			continue
		}
		for i, n := 0, b.count(dims); i < n; i++ {
			var data []byte
			if b.data != nil {
				data = b.data[i]
			}
			if !fn(b.keys[i*dims:(i+1)*dims], data) {
				return
			}
		}
	}
}

// Neighbor is one k-NN result.
type Neighbor struct {
	Record   Record
	Distance float64 // Euclidean distance to the query point
}

// NearestNeighbors returns the k records closest to p in Euclidean distance,
// nearest first. It searches by expanding a query box around p one cell ring
// at a time — the classic grid-file nearest-neighbour strategy — so the cost
// is proportional to the number of buckets near p rather than the file size.
// Fewer than k results are returned when the file holds fewer records.
func (f *File) NearestNeighbors(p geom.Point, k int) []Neighbor {
	if k <= 0 || f.checkKey(p) != nil || f.nrec == 0 {
		return nil
	}

	// The search box starts at the cell containing p and grows by one cell
	// layer per round. Once k candidates are in hand, the search can stop
	// when the box's interior radius (the closest distance an unseen record
	// could have) exceeds the current k-th distance.
	cell := make([]int32, f.cfg.Dims)
	f.locateCell(p, cell)
	lo := make([]int32, f.cfg.Dims)
	hi := make([]int32, f.cfg.Dims)
	copy(lo, cell)
	copy(hi, cell)

	var cands []Neighbor
	seen := make(map[int32]bool)
	for {
		// Collect records from buckets of cells in [lo,hi] not seen yet.
		f.forEachCellIn(lo, hi, cell, func(idx int) {
			id := f.dir[idx]
			if seen[id] {
				return
			}
			seen[id] = true
			b := f.bkts[id]
			dims := f.cfg.Dims
			for i, n := 0, b.count(dims); i < n; i++ {
				key := b.keys[i*dims : (i+1)*dims]
				d := 0.0
				for j := range key {
					diff := key[j] - p[j]
					d += diff * diff
				}
				cands = append(cands, Neighbor{
					Record:   copyRecord(b.record(i, dims)),
					Distance: math.Sqrt(d),
				})
			}
		})

		if len(cands) >= k {
			sort.Slice(cands, func(i, j int) bool { return cands[i].Distance < cands[j].Distance })
			cands = cands[:min(len(cands), 4*k)] // keep the sort cheap across rounds
			// Interior radius of the region searched so far: the minimum
			// distance from p to its boundary. Any unseen record is at
			// least this far away, so once the k-th candidate is closer
			// the answer is final.
			if cands[k-1].Distance <= f.interiorRadius(p, lo, hi) {
				return cands[:k]
			}
		}
		if !f.growBox(lo, hi) {
			// Entire grid searched.
			sort.Slice(cands, func(i, j int) bool { return cands[i].Distance < cands[j].Distance })
			if len(cands) > k {
				cands = cands[:k]
			}
			return cands
		}
	}
}

// growBox expands [lo,hi] by one cell in every direction, clamped to the
// grid; reports whether any side actually grew.
func (f *File) growBox(lo, hi []int32) bool {
	grown := false
	for d := range lo {
		if lo[d] > 0 {
			lo[d]--
			grown = true
		}
		if hi[d] < f.sizes[d]-1 {
			hi[d]++
			grown = true
		}
	}
	return grown
}

// interiorRadius returns the minimum distance from p to the boundary of the
// searched cell box [lo,hi] (infinite along axes where the box already spans
// the whole domain).
func (f *File) interiorRadius(p geom.Point, lo, hi []int32) float64 {
	r := math.Inf(1)
	for d := range lo {
		if lo[d] > 0 {
			if v := p[d] - f.cellInterval(d, lo[d]).Lo; v < r {
				r = v
			}
		}
		if hi[d] < f.sizes[d]-1 {
			if v := f.cellInterval(d, hi[d]).Hi - p[d]; v < r {
				r = v
			}
		}
	}
	return r
}
