package gridfile

import (
	"fmt"

	"pgridfile/internal/geom"
)

// checkInvariants validates the full structure. See CheckInvariants.
func (f *File) checkInvariants() error {
	dims := f.cfg.Dims

	// Scales must be sorted strictly ascending and inside the domain.
	for d := 0; d < dims; d++ {
		s := f.scales[d]
		if int(f.sizes[d]) != len(s)+1 {
			return fmt.Errorf("dim %d: sizes=%d but %d split points", d, f.sizes[d], len(s))
		}
		for i, v := range s {
			if v <= f.cfg.Domain[d].Lo || v >= f.cfg.Domain[d].Hi {
				return fmt.Errorf("dim %d: split %d = %v outside domain interior", d, i, v)
			}
			if i > 0 && s[i-1] >= v {
				return fmt.Errorf("dim %d: splits not strictly ascending at %d", d, i)
			}
		}
	}

	if want := totalCells(f.sizes); len(f.dir) != want {
		return fmt.Errorf("directory has %d cells, want %d", len(f.dir), want)
	}

	// Bucket regions must be well-formed boxes inside the grid before any
	// region iteration below (a corrupt region would index out of bounds).
	for id, b := range f.bkts {
		if b == nil {
			continue
		}
		if len(b.lo) != dims || len(b.hi) != dims {
			return fmt.Errorf("bucket %d: region has wrong dimensionality", id)
		}
		for d := 0; d < dims; d++ {
			if b.lo[d] < 0 || b.hi[d] >= f.sizes[d] || b.lo[d] > b.hi[d] {
				return fmt.Errorf("bucket %d: region [%v..%v] outside grid %v",
					id, b.lo, b.hi, f.sizes)
			}
		}
		if len(b.keys)%dims != 0 {
			return fmt.Errorf("bucket %d: key array length %d not a multiple of dims", id, len(b.keys))
		}
	}

	// Every directory entry points to a live bucket whose region contains
	// the cell.
	cell := make([]int32, dims)
	for idx, id := range f.dir {
		if id < 0 || int(id) >= len(f.bkts) || f.bkts[id] == nil {
			return fmt.Errorf("cell %d: dangling bucket id %d", idx, id)
		}
		b := f.bkts[id]
		unflatten(idx, f.sizes, cell)
		for d := 0; d < dims; d++ {
			if cell[d] < b.lo[d] || cell[d] > b.hi[d] {
				return fmt.Errorf("cell %d (%v): outside region of bucket %d [%v..%v]",
					idx, cell, id, b.lo, b.hi)
			}
		}
	}

	// Every bucket region cell must map back to the bucket (box exclusivity)
	// and every record's key must lie in the bucket's domain region.
	live, nrec := 0, 0
	region := make(geom.Rect, dims) // each bucket's, in turn
	for id, b := range f.bkts {
		if b == nil {
			continue
		}
		live++
		ok := true
		f.forEachCellIn(b.lo, b.hi, cell, func(idx int) {
			if f.dir[idx] != int32(id) {
				ok = false
			}
		})
		if !ok {
			return fmt.Errorf("bucket %d: region cell not owned by bucket", id)
		}
		f.fillRegion(region, b)
		n := b.count(dims)
		nrec += n
		for i := 0; i < n; i++ {
			key := b.keys[i*dims : (i+1)*dims]
			// Region intervals are closed but cells are lower-inclusive;
			// a key exactly on the upper boundary belongs to the next cell,
			// except at the domain edge. ContainsPoint (closed) is the
			// right check because region.Hi is either a split point (then
			// key < Hi strictly, which closed containment accepts) or the
			// domain edge (key may equal it).
			inside := true
			for d := 0; d < dims; d++ {
				if key[d] < region[d].Lo || key[d] > region[d].Hi {
					inside = false
				}
			}
			if !inside {
				return fmt.Errorf("bucket %d: record %d key %v outside region %v", id, i, key, region)
			}
		}
	}
	if live != f.live {
		return fmt.Errorf("live count %d, want %d", f.live, live)
	}
	if nrec != f.nrec {
		return fmt.Errorf("record count %d, want %d", f.nrec, nrec)
	}
	return nil
}
