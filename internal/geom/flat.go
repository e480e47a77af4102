package geom

// Flat is a bucket's records in arena form: one contiguous coordinate array
// holding Len() == len(Coords)/Dims points of Dims dimensions each. This is
// the representation the store decodes into and the bucket cache retains —
// a single allocation per bucket, shared by every reader, scanned in place
// by the server's filter predicates without materializing per-point slices.
//
// A Flat must be treated as immutable once published: the cache hands the
// same Coords array to all concurrent readers, and the write path replaces
// (never mutates) cached records, so a reader holding a Flat across an
// invalidation still sees a consistent old snapshot (the GC keeps the arena
// alive as long as anyone holds it).
//
// The zero Flat is an empty record set.
type Flat struct {
	Dims   int
	Coords []float64

	// Box is the records' bounding box, lo then hi for each dimension
	// (len 2*Dims), or nil when it is not known — an empty record set, a
	// Flat nobody computed one for, a record with a NaN coordinate. A scan
	// may decide a whole bucket from it (Cover) and must fall back to the
	// per-row predicate when it is nil.
	Box []float64
}

// Cover is how a Flat's records lie relative to a closed query box, as far
// as the Flat's bounding box can tell.
type Cover int

const (
	Straddles Cover = iota // some rows may match, some may not: test each
	Inside                 // every row matches
	Outside                // no row matches
)

// AllDims is the cross set of a Straddles decision made without a box: test
// every dimension.
const AllDims = ^uint64(0)

// Cover classifies f's records against the closed box q from f.Box alone,
// agreeing with q.ContainsPoint on every row: Inside and Outside are
// returned only when the bounding box proves them, Straddles otherwise
// (and always when Box is nil or the dimensionalities differ).
//
// For Straddles, cross says which dimensions a row still has to be tested
// on: bit d is set when the box does not lie inside q along dimension d,
// and along every other dimension every row lies inside q. Without a usable
// box — or above 64 dimensions, which have no bit — cross is AllDims.
func (f Flat) Cover(q Rect) (c Cover, cross uint64) {
	if len(f.Box) != 2*len(q) || len(q) != f.Dims || len(q) > 64 {
		return Straddles, AllDims
	}
	for d, iv := range q {
		lo, hi := f.Box[2*d], f.Box[2*d+1]
		// Written so that a NaN query bound, which no row can satisfy,
		// lands on Outside like the row predicate does.
		if !(iv.Lo <= hi && lo <= iv.Hi) {
			return Outside, 0
		}
		if !(iv.Lo <= lo && hi <= iv.Hi) {
			cross |= 1 << d
		}
	}
	if cross == 0 {
		return Inside, 0
	}
	return Straddles, cross
}

// Len returns the number of records.
func (f Flat) Len() int {
	if f.Dims <= 0 {
		return 0
	}
	return len(f.Coords) / f.Dims
}

// Row returns record i's coordinates as a view into the arena. The slice
// aliases Coords and must not be modified.
func (f Flat) Row(i int) []float64 {
	return f.Coords[i*f.Dims : (i+1)*f.Dims]
}
