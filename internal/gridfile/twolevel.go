package gridfile

import (
	"fmt"

	"pgridfile/internal/geom"
)

// TwoLevelDirectory is the paged grid directory of the original grid file
// design: when the directory outgrows memory, it is cut into fixed-size
// pages and addressed through a small root grid, so locating a cell costs
// exactly one root probe plus one directory-page access, and a range query
// touches only the directory pages its cell box overlaps.
//
// This implementation partitions the directory into axis-aligned tiles of
// at most pageCells cells (balanced per dimension), keeps the root as a
// per-dimension tile index, and counts page accesses so experiments can
// charge directory I/O the way the paper's coordinator (which holds scales
// and directory on its local disk) would incur it.
//
// It is an immutable snapshot built from a File; rebuilding after updates
// is the caller's concern (directories change only on scale refinement,
// which is rare after loading).
type TwoLevelDirectory struct {
	sizes     []int32
	tileSize  []int32 // cells per tile along each dimension
	tileCount []int32 // tiles along each dimension
	pages     []*directoryPage

	// PageAccesses counts directory-page fetches since the last reset.
	PageAccesses int
}

// directoryPage holds the bucket ids of one directory tile, row-major in
// tile-local coordinates.
type directoryPage struct {
	lo, hi []int32 // inclusive cell bounds of the tile
	ids    []int32
}

// NewTwoLevelDirectory snapshots f's directory into pages of at most
// pageCells cells each. pageCells must be at least 1; typical values are
// pageBytes/4 (directory entries are 4-byte bucket ids).
func NewTwoLevelDirectory(f *File, pageCells int) (*TwoLevelDirectory, error) {
	if pageCells < 1 {
		return nil, fmt.Errorf("gridfile: directory page of %d cells", pageCells)
	}
	dims := f.cfg.Dims
	d := &TwoLevelDirectory{
		sizes:     append([]int32(nil), f.sizes...),
		tileSize:  make([]int32, dims),
		tileCount: make([]int32, dims),
	}

	// Choose a per-dimension tile edge so that the tile volume stays at or
	// below pageCells: start from the d-th root and shrink greedily.
	edge := int32(1)
	for {
		vol := int64(1)
		for k := 0; k < dims; k++ {
			vol *= int64(edge + 1)
		}
		if vol > int64(pageCells) {
			break
		}
		edge++
	}
	for k := 0; k < dims; k++ {
		ts := edge
		if ts > f.sizes[k] {
			ts = f.sizes[k]
		}
		if ts < 1 {
			ts = 1
		}
		d.tileSize[k] = ts
		d.tileCount[k] = (f.sizes[k] + ts - 1) / ts
	}

	// Materialize the pages.
	nTiles := int32(1)
	for k := 0; k < dims; k++ {
		nTiles *= d.tileCount[k]
	}
	d.pages = make([]*directoryPage, nTiles)
	tile, cell := make([]int32, dims), make([]int32, dims)
	for t := int32(0); t < nTiles; t++ {
		lo := make([]int32, dims)
		hi := make([]int32, dims)
		for k := 0; k < dims; k++ {
			lo[k] = tile[k] * d.tileSize[k]
			hi[k] = lo[k] + d.tileSize[k] - 1
			if hi[k] >= f.sizes[k] {
				hi[k] = f.sizes[k] - 1
			}
		}
		page := &directoryPage{lo: lo, hi: hi}
		f.forEachCellIn(lo, hi, cell, func(idx int) {
			page.ids = append(page.ids, f.dir[idx])
		})
		d.pages[t] = page
		// Advance tile coordinates row-major.
		for k := dims - 1; k >= 0; k-- {
			tile[k]++
			if tile[k] < d.tileCount[k] {
				break
			}
			tile[k] = 0
		}
	}
	return d, nil
}

// NumPages returns the number of directory pages.
func (d *TwoLevelDirectory) NumPages() int { return len(d.pages) }

// ResetCounters clears the page-access counter.
func (d *TwoLevelDirectory) ResetCounters() { d.PageAccesses = 0 }

// tileIndex returns the flat page index of the tile containing cell.
func (d *TwoLevelDirectory) tileIndex(cell []int32) int32 {
	idx := int32(0)
	for k := range cell {
		idx = idx*d.tileCount[k] + cell[k]/d.tileSize[k]
	}
	return idx
}

// lookupPage fetches the page of a cell, charging one page access.
func (d *TwoLevelDirectory) lookupPage(cell []int32) *directoryPage {
	d.PageAccesses++
	return d.pages[d.tileIndex(cell)]
}

// BucketAt resolves a cell to its bucket id via the root and one page.
func (d *TwoLevelDirectory) BucketAt(cell []int32) (int32, error) {
	for k, c := range cell {
		if c < 0 || c >= d.sizes[k] {
			return 0, fmt.Errorf("gridfile: cell %v outside grid %v", cell, d.sizes)
		}
	}
	p := d.lookupPage(cell)
	return p.idAt(cell), nil
}

// idAt reads a cell's entry from a page (tile-local row-major).
func (p *directoryPage) idAt(cell []int32) int32 {
	idx := 0
	for k := range cell {
		width := int(p.hi[k]-p.lo[k]) + 1
		idx = idx*width + int(cell[k]-p.lo[k])
	}
	return p.ids[idx]
}

// BucketsInCellBox returns the distinct bucket ids inside the inclusive
// cell box [lo,hi], touching only the overlapping directory pages. The
// page-access counter advances once per touched page.
func (d *TwoLevelDirectory) BucketsInCellBox(lo, hi []int32) []int32 {
	dims := len(d.sizes)
	tLo := make([]int32, dims)
	tHi := make([]int32, dims)
	for k := 0; k < dims; k++ {
		l, h := lo[k], hi[k]
		if l < 0 {
			l = 0
		}
		if h >= d.sizes[k] {
			h = d.sizes[k] - 1
		}
		if l > h {
			return nil
		}
		tLo[k] = l / d.tileSize[k]
		tHi[k] = h / d.tileSize[k]
	}

	seen := make(map[int32]struct{})
	var out []int32
	tile := make([]int32, dims)
	copy(tile, tLo)
	for {
		idx := int32(0)
		for k := 0; k < dims; k++ {
			idx = idx*d.tileCount[k] + tile[k]
		}
		d.PageAccesses++
		page := d.pages[idx]

		// Intersect the query box with this tile and scan the overlap.
		cLo := make([]int32, dims)
		cHi := make([]int32, dims)
		for k := 0; k < dims; k++ {
			cLo[k] = max(lo[k], page.lo[k])
			cHi[k] = min(hi[k], page.hi[k])
		}
		scanBox(cLo, cHi, func(cell []int32) {
			id := page.idAt(cell)
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		})

		k := dims - 1
		for k >= 0 {
			tile[k]++
			if tile[k] <= tHi[k] {
				break
			}
			tile[k] = tLo[k]
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}

// BucketsInRange answers a domain-space range query through the paged
// directory, using the file's scales for the cell translation (the scales
// are small and always memory-resident, as in the original design).
func (d *TwoLevelDirectory) BucketsInRange(f *File, q geom.Rect) []int32 {
	sc := f.getScratch()
	defer putScratch(sc)
	if !f.queryCellBox(q, sc.lo, sc.hi) {
		return nil
	}
	return d.BucketsInCellBox(sc.lo, sc.hi)
}

func scanBox(lo, hi []int32, fn func(cell []int32)) {
	for k := range lo {
		if lo[k] > hi[k] {
			return
		}
	}
	cell := make([]int32, len(lo))
	copy(cell, lo)
	for {
		fn(cell)
		k := len(cell) - 1
		for k >= 0 {
			cell[k]++
			if cell[k] <= hi[k] {
				break
			}
			cell[k] = lo[k]
			k--
		}
		if k < 0 {
			return
		}
	}
}
