package gridfile

import "sync"

// searchScratch is the per-call working memory of the range paths: a cell
// cursor and a cell box for range translation, and the visit-stamp array that
// deduplicates bucket ids across merged bucket regions. Pulling it from a pool
// instead of storing it on the File is what makes BucketsInRange and the query
// methods built on it safe for any number of concurrent readers. Point
// location (locate) needs none of it: it keeps its cell index in a local.
type searchScratch struct {
	cell    []int32
	lo, hi  []int32
	visited []uint32
	gen     uint32
}

// scratchPool is shared by every File: prepare re-fits a pooled scratch to
// the calling file's dimensionality and bucket count, and the generation
// counter makes stale stamps from any previous user (even a different File)
// read as "not visited". A pooled scratch outgrown by a file's splits grows
// geometrically, so a growing file costs each scratch O(log buckets)
// reallocations, not one per split.
var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// prepare sizes the scratch for a file with dims dimensions and nbkts bucket
// slots and opens a fresh visit generation. visited grows to at least twice
// its old length, so its reallocations over a file's life sum to O(nbkts).
func (s *searchScratch) prepare(dims, nbkts int) {
	if cap(s.cell) < dims {
		s.cell = make([]int32, dims)
		s.lo = make([]int32, dims)
		s.hi = make([]int32, dims)
	}
	s.cell = s.cell[:dims]
	s.lo = s.lo[:dims]
	s.hi = s.hi[:dims]
	if len(s.visited) < nbkts {
		s.visited = make([]uint32, max(nbkts, 2*len(s.visited)))
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 { // wrapped: clear and restart
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 1
	}
}

// getScratch fetches a scratch fitted to f's current shape. Callers must
// return it with putScratch; the scratch must not outlive the call.
func (f *File) getScratch() *searchScratch {
	s := scratchPool.Get().(*searchScratch)
	s.prepare(f.cfg.Dims, len(f.bkts))
	return s
}

func putScratch(s *searchScratch) { scratchPool.Put(s) }

// visit stamps bucket id in this scratch's generation, reporting whether it
// was already stamped.
func (s *searchScratch) visit(id int32) (already bool) {
	if s.visited[id] == s.gen {
		return true
	}
	s.visited[id] = s.gen
	return false
}
