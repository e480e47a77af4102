package gridfile

import "pgridfile/internal/geom"

// mergeFillFraction controls buddy merging on deletion: two buckets merge
// when their combined occupancy is at most this fraction of capacity, which
// prevents merge/split thrashing around the capacity boundary.
const mergeFillFraction = 0.7

// Delete removes one record whose key equals p exactly (the first match),
// returning whether a record was removed. Underflowing buckets are merged
// with a buddy bucket when the union of their cell regions is again a box,
// preserving the grid-file region invariant.
func (f *File) Delete(p geom.Point) bool { return f.DeleteTracked(p).Removed }

// maybeMerge merges bucket id with a buddy if both are lightly loaded. It
// reports whether a merge happened and, if so, which bucket survived (keep)
// and which slot died (drop) — the bookkeeping the store's write path needs
// to retire the dead bucket's placement.
func (f *File) maybeMerge(id int32) (keep, drop int32, merged bool) {
	b := f.bkts[id]
	threshold := int(float64(f.cfg.BucketCapacity) * mergeFillFraction)
	if b.count(f.cfg.Dims) > threshold {
		return 0, 0, false
	}
	buddy, d, ok := f.findBuddy(id)
	if !ok {
		return 0, 0, false
	}
	bb := f.bkts[buddy]
	if b.count(f.cfg.Dims)+bb.count(f.cfg.Dims) > threshold {
		return 0, 0, false
	}
	keep, drop = f.mergeInto(id, buddy, d)
	return keep, drop, true
}

// findBuddy looks for a live bucket adjacent to id along exactly one
// dimension whose region matches id's region in every other dimension, so
// that the union is a box. Returns the buddy id and the adjacency dimension.
func (f *File) findBuddy(id int32) (int32, int, bool) {
	b := f.bkts[id]
	cell := make([]int32, f.cfg.Dims)
	for d := 0; d < f.cfg.Dims; d++ {
		// Candidate on the low side: the bucket owning the cell just below
		// b.lo[d] (aligned with b's lower corner in other dims).
		for _, side := range [2]int32{-1, +1} {
			copy(cell, b.lo)
			if side < 0 {
				if b.lo[d] == 0 {
					continue
				}
				cell[d] = b.lo[d] - 1
			} else {
				if b.hi[d]+1 >= f.sizes[d] {
					continue
				}
				cell[d] = b.hi[d] + 1
			}
			cand := f.dir[f.cellIndex(cell)]
			if cand == id {
				continue
			}
			if f.regionsFormBox(b, f.bkts[cand], d) {
				return cand, d, true
			}
		}
	}
	return 0, 0, false
}

// regionsFormBox reports whether a and b are adjacent along dim d and
// identical along all other dims.
func (f *File) regionsFormBox(a, b *bucket, d int) bool {
	for k := 0; k < f.cfg.Dims; k++ {
		if k == d {
			continue
		}
		if a.lo[k] != b.lo[k] || a.hi[k] != b.hi[k] {
			return false
		}
	}
	return a.hi[d]+1 == b.lo[d] || b.hi[d]+1 == a.lo[d]
}

// mergeInto moves all of src's records into dst... both directions are
// equivalent; we keep the lower id alive to keep ids dense-ish. The dead
// bucket's slot becomes nil. Returns the surviving and dead ids.
func (f *File) mergeInto(idA, idB int32, d int) (int32, int32) {
	keep, drop := idA, idB
	if keep > drop {
		keep, drop = drop, keep
	}
	kb, db := f.bkts[keep], f.bkts[drop]
	kb.keys = append(kb.keys, db.keys...)
	// Extend keep's region to the union along d.
	if db.lo[d] < kb.lo[d] {
		kb.lo[d] = db.lo[d]
	}
	if db.hi[d] > kb.hi[d] {
		kb.hi[d] = db.hi[d]
	}
	f.forEachCellIn(db.lo, db.hi, make([]int32, f.cfg.Dims), func(idx int) {
		f.dir[idx] = keep
	})
	f.bkts[drop] = nil
	f.live--
	return keep, drop
}

// Clear removes every record but keeps the grid structure (scales and
// directory) intact. Useful for re-loading experiments on a fixed partition.
func (f *File) Clear() {
	for _, b := range f.bkts {
		if b == nil {
			continue
		}
		b.keys = b.keys[:0]
	}
	f.nrec = 0
}
