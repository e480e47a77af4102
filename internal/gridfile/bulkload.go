package gridfile

import (
	"sort"

	"pgridfile/internal/sfc"
)

// BulkLoad builds a grid file from a record batch, inserting in Hilbert
// order of the keys. Spatially adjacent records arrive consecutively, so
// scale refinements happen where the data is dense before most records pass
// through, producing the same final structure class as incremental loading
// with fewer record moves per split (each split's redistribution scans a
// bucket whose records are already spatially coherent).
//
// The resulting file satisfies exactly the same invariants as one built by
// repeated Insert; only the internal bucket ids and split history differ.
func BulkLoad(cfg Config, recs []Record) (*File, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return f, nil
	}

	// Order records along a Hilbert curve over a 2^bits grid normalized to
	// the domain. 10 bits per dimension is plenty of resolution for
	// ordering purposes and keeps keys within uint64 up to 6 dimensions;
	// higher dimensionalities fall back to coarser curves, down to one bit
	// at maxDims.
	bits := 10
	for cfg.Dims*bits > 64 {
		bits--
	}
	curve := sfc.NewHilbert(cfg.Dims, bits)
	side := float64(uint64(1) << bits)

	type ordered struct {
		key uint64
		idx int
	}
	keys := make([]ordered, len(recs))
	coords := make([]uint32, cfg.Dims)
	for i := range recs {
		if err := f.checkKey(recs[i].Key); err != nil {
			return nil, err
		}
		for d := 0; d < cfg.Dims; d++ {
			frac := (recs[i].Key[d] - cfg.Domain[d].Lo) / cfg.Domain[d].Length()
			c := int64(frac * side)
			if c < 0 {
				c = 0
			}
			if c >= int64(side) {
				c = int64(side) - 1
			}
			coords[d] = uint32(c)
		}
		keys[i] = ordered{key: curve.Key(coords), idx: i}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })

	for _, o := range keys {
		if err := f.Insert(recs[o.idx]); err != nil {
			return nil, err
		}
	}
	return f, nil
}
