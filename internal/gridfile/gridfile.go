// Package gridfile implements the grid file of Nievergelt and Hinterberger
// (ACM TODS 1984): an adaptive, symmetric multi-key file structure for
// multidimensional point data. The space is partitioned by one linear scale
// per dimension into a grid of cells; a grid directory maps every cell to a
// data bucket. Several cells may share one bucket (a "merged" bucket region),
// which is exactly the property that forces the conflict-resolution step when
// extending index-based declustering schemes from Cartesian product files to
// grid files.
//
// The package also provides CartesianFile, the degenerate one-bucket-per-cell
// structure used by the paper's analytic study of DM and FX.
//
// Invariants maintained at all times:
//   - every cell maps to exactly one live bucket;
//   - every bucket's cell region is a d-dimensional box (an interval of cell
//     indices per dimension) and the directory agrees with it;
//   - every record lives in the bucket owning the cell containing its key;
//   - no bucket holds more than Config.BucketCapacity records, except when a
//     region has been refined down to the minimum cell width and still
//     overflows (pathological duplicate keys), in which case the bucket is
//     allowed to grow and the condition is reported via Stats.
package gridfile

import (
	"errors"
	"fmt"

	"pgridfile/internal/geom"
)

// Record is a multidimensional point plus an optional payload.
type Record struct {
	Key  geom.Point
	Data []byte
}

// Config describes a new grid file.
type Config struct {
	// Dims is the number of key dimensions (>= 1).
	Dims int
	// Domain is the data domain; keys outside it are rejected.
	Domain geom.Rect
	// BucketCapacity is the maximum number of records per bucket (>= 2):
	// a page's size over the record size — the paper's buckets are 4 KB
	// pages in the 2-D/3-D experiments and 8 KB in the 4-D SP-2 ones.
	BucketCapacity int
}

func (c Config) validate() error {
	if c.Dims < 1 {
		return fmt.Errorf("gridfile: Dims must be >= 1, got %d", c.Dims)
	}
	if len(c.Domain) != c.Dims {
		return fmt.Errorf("gridfile: Domain has %d dims, want %d", len(c.Domain), c.Dims)
	}
	for i, iv := range c.Domain {
		if iv.Length() <= 0 {
			return fmt.Errorf("gridfile: Domain dim %d has non-positive extent", i)
		}
	}
	if c.BucketCapacity < 2 {
		return fmt.Errorf("gridfile: BucketCapacity must be >= 2, got %d", c.BucketCapacity)
	}
	return nil
}

// bucket is one data page. Records are stored as a flat coordinate array to
// keep per-record overhead low (the full-scale 4-D dataset holds millions of
// records). data is nil until a record with a payload is inserted.
type bucket struct {
	lo, hi []int32   // inclusive cell-index bounds per dimension
	keys   []float64 // flat: record i occupies keys[i*dims : (i+1)*dims]
	data   [][]byte  // nil, or parallel to records
}

func (b *bucket) count(dims int) int { return len(b.keys) / dims }

func (b *bucket) cellSpan() int {
	span := 1
	for d := range b.lo {
		span *= int(b.hi[d]-b.lo[d]) + 1
	}
	return span
}

func (b *bucket) appendRecord(rec Record, dims int) {
	b.keys = append(b.keys, rec.Key...)
	if rec.Data != nil && b.data == nil {
		// Lazily materialize the payload column.
		b.data = make([][]byte, b.count(dims)-1)
	}
	if b.data != nil {
		b.data = append(b.data, rec.Data)
	}
}

func (b *bucket) record(i, dims int) Record {
	rec := Record{Key: geom.Point(b.keys[i*dims : (i+1)*dims : (i+1)*dims])}
	if b.data != nil {
		rec.Data = b.data[i]
	}
	return rec
}

// removeRecord deletes record i by swapping in the last record.
func (b *bucket) removeRecord(i, dims int) {
	n := b.count(dims)
	copy(b.keys[i*dims:(i+1)*dims], b.keys[(n-1)*dims:n*dims])
	b.keys = b.keys[:(n-1)*dims]
	if b.data != nil {
		b.data[i] = b.data[n-1]
		b.data = b.data[:n-1]
	}
}

// File is an in-memory grid file. The read-only query paths — Lookup,
// BucketAt, BucketsInRange, RangeSearch, RangeCount, PartialMatch,
// NearestNeighbors, Scan and the accessors — are safe for any number of
// concurrent readers: they touch only structures that are immutable between
// mutations, drawing per-call working memory (cell vectors and the
// visit-stamp "seen" set) from a pool. Mutation (Insert, Delete, bulk
// loading) requires exclusive access: no reads or other writes may run
// concurrently with it.
type File struct {
	cfg    Config
	scales [][]float64 // interior split points per dimension, sorted ascending
	sizes  []int32     // cells per dimension = len(scales[d])+1
	dir    []int32     // flat row-major cell -> bucket id
	bkts   []*bucket   // nil entries are dead (after merges)
	live   int         // number of live buckets
	nrec   int         // number of records
}

// New creates an empty grid file with a single cell and a single bucket.
func New(cfg Config) (*File, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &File{
		cfg:    cfg,
		scales: make([][]float64, cfg.Dims),
		sizes:  make([]int32, cfg.Dims),
		dir:    []int32{0},
		bkts: []*bucket{{
			lo: make([]int32, cfg.Dims),
			hi: make([]int32, cfg.Dims),
		}},
		live: 1,
	}
	for d := range f.sizes {
		f.sizes[d] = 1
	}
	return f, nil
}

// Dims returns the key dimensionality.
func (f *File) Dims() int { return f.cfg.Dims }

// Domain returns the configured data domain.
func (f *File) Domain() geom.Rect { return f.cfg.Domain.Clone() }

// BucketCapacity returns the configured per-bucket record limit.
func (f *File) BucketCapacity() int { return f.cfg.BucketCapacity }

// Len returns the number of records stored.
func (f *File) Len() int { return f.nrec }

// NumBuckets returns the number of live buckets.
func (f *File) NumBuckets() int { return f.live }

// NumCells returns the total number of grid cells (the size of the
// corresponding Cartesian product file).
func (f *File) NumCells() int { return len(f.dir) }

// CellSizes returns the number of cells along each dimension.
func (f *File) CellSizes() []int {
	s := make([]int, len(f.sizes))
	for i, v := range f.sizes {
		s[i] = int(v)
	}
	return s
}

// CellsAlong returns the number of cells along dimension d: CellSizes()[d]
// without the copy.
func (f *File) CellsAlong(d int) int { return int(f.sizes[d]) }

// Scales returns a copy of the interior split points along dim d.
func (f *File) Scales(d int) []float64 {
	out := make([]float64, len(f.scales[d]))
	copy(out, f.scales[d])
	return out
}

// cellIndex returns the flat directory index of a cell coordinate vector.
func (f *File) cellIndex(cell []int32) int {
	idx := 0
	for d, c := range cell {
		idx = idx*int(f.sizes[d]) + int(c)
	}
	return idx
}

// locateCell finds the cell containing p. p must be inside the domain.
func (f *File) locateCell(p geom.Point, cell []int32) {
	for d := range cell {
		cell[d] = f.scaleCell(d, p[d])
	}
}

// scaleCell returns the cell along dimension d that contains coordinate v:
// the number of split points <= v, found by binary search over the scale.
// Cell c covers [s[c-1], s[c]), so a key on a split point belongs to the
// upper cell. It is the one scale search of point location (locate,
// locateCell), written out so that it inlines and allocates nothing.
func (f *File) scaleCell(d int, v float64) int32 {
	s := f.scales[d]
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] > v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return int32(lo)
}

// cellInterval returns the domain interval of cell index c along dim d.
func (f *File) cellInterval(d int, c int32) geom.Interval {
	s := f.scales[d]
	iv := geom.Interval{Lo: f.cfg.Domain[d].Lo, Hi: f.cfg.Domain[d].Hi}
	if c > 0 {
		iv.Lo = s[c-1]
	}
	if int(c) < len(s) {
		iv.Hi = s[c]
	}
	return iv
}

// bucketRegion returns the domain-space box covered by bucket b.
func (f *File) bucketRegion(b *bucket) geom.Rect {
	return f.fillRegion(make(geom.Rect, f.cfg.Dims), b)
}

// fillRegion sets r, of Dims intervals, to b's box in domain coordinates and
// returns it.
func (f *File) fillRegion(r geom.Rect, b *bucket) geom.Rect {
	for d := range r {
		lo := f.cellInterval(d, b.lo[d])
		hi := f.cellInterval(d, b.hi[d])
		r[d] = geom.Interval{Lo: lo.Lo, Hi: hi.Hi}
	}
	return r
}

// ErrOutOfDomain is returned by Insert for keys outside the configured domain.
var ErrOutOfDomain = errors.New("gridfile: key outside domain")

// ErrDimensionMismatch is returned when a key's dimensionality is wrong.
var ErrDimensionMismatch = errors.New("gridfile: key dimensionality mismatch")

// checkKey validates a key for insert/lookup.
func (f *File) checkKey(p geom.Point) error {
	if len(p) != f.cfg.Dims {
		return fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(p), f.cfg.Dims)
	}
	if !f.cfg.Domain.ContainsPoint(p) {
		return fmt.Errorf("%w: %v not in %v", ErrOutOfDomain, p, f.cfg.Domain)
	}
	return nil
}
