package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
)

// This file implements the pairwise-weight engine shared by every
// proximity-based algorithm in the package (Minimax, SSP, MST) and by the
// simulator's nearest-companion computation. All of them have the same
// Θ(N²) shape — evaluate an edge weight between one "pivot" bucket and every
// other live bucket, then reduce (max-merge, min-merge, arg-min, arg-max) —
// so they share one engine instead of each calling a Weight closure over
// geom.Proximity per edge.
//
// The engine gains its speed from two sources:
//
//  1. Flattened geometry. Bucket regions are copied once per Decluster into
//     a contiguous []float64 (lo/hi interleaved per axis) and the per-axis
//     inverse domain lengths are precomputed, so the proximity kernel is a
//     devirtualized, zero-alloc inner loop: no BucketView struct copies, no
//     Rect slice-header chasing, no closure call, no per-edge division by a
//     recomputed domain length.
//
//  2. Tiled sweeps. Each O(N) sweep over the unassigned vertices computes
//     sweepTile weights into one L1-resident scratch buffer and folds them
//     into its reduction before computing the next tile.
//
// Every reduction uses a total order — (value, vertex index) for
// arg-min/arg-max, plus tree index for MST's global pick — so the order in
// which the active set lists its vertices never influences a result.
//
// The per-step sweeps run on the calling goroutine: sharding a sweep of at
// most N cheap weights across a worker pool cost a hand-off per step and was
// measured never to pay. The two sweeps that do all N² of their work in one
// call — initResidualRows and NearestCompanions — write disjoint rows, so
// they split those rows once across plain goroutines (splitRows), which was
// measured to pay (DESIGN.md S34).
//
// The engine inlines the package's built-in weights (a nil Weight,
// ProximityWeight and EuclideanWeight). Any other Weight runs through the
// same sweeps on the generic kernel, which calls the closure once per pair.

// weightKind selects the engine's kernel: generic calls the Weight closure
// per pair, the other two are the built-in weights the engine inlines.
type weightKind int

const (
	kindGeneric weightKind = iota
	kindProximity
	kindEuclid
)

// kindOf recognizes the package's built-in weight functions by identity.
// Closures and user functions map to kindGeneric.
func kindOf(w Weight) weightKind {
	if w == nil {
		return kindProximity
	}
	switch reflect.ValueOf(w).Pointer() {
	case reflect.ValueOf(ProximityWeight).Pointer():
		return kindProximity
	case reflect.ValueOf(EuclideanWeight).Pointer():
		return kindEuclid
	}
	return kindGeneric
}

// PairEngine is the shared pairwise-weight engine: a flattened copy of a
// grid's bucket geometry plus the tiled sweeps over it. Construct one per
// Decluster (or per NearestCompanions run). A PairEngine must be driven from
// a single goroutine: its per-step sweeps share one scratch buffer.
type PairEngine struct {
	n       int
	dims    int
	kind    weightKind
	grid    Grid      // generic kernel only: the closure's arguments
	weight  Weight    // generic kernel only
	boxes   []float64 // n × 2·dims: lo,hi interleaved per axis
	centers []float64 // n × dims, euclid kernel only
	lens    []float64 // per-axis domain length, 0 for degenerate axes
	diag    float64   // euclid: domain diagonal, 0 for a degenerate domain

	scratch []float64 // sweepTile weights, reused by every per-step sweep
}

// NewPairEngine builds an engine for g and w (nil means ProximityWeight).
func NewPairEngine(g Grid, w Weight) *PairEngine {
	kind := kindOf(w)
	n := len(g.Buckets)
	dims := len(g.Domain)
	e := &PairEngine{
		n:       n,
		dims:    dims,
		kind:    kind,
		lens:    make([]float64, dims),
		scratch: make([]float64, sweepTile),
	}
	for d, iv := range g.Domain {
		if l := iv.Length(); l > 0 {
			e.lens[d] = l
		}
	}
	switch kind {
	case kindGeneric:
		e.grid, e.weight = g, w
	case kindProximity:
		e.boxes = make([]float64, n*2*dims)
		for i, b := range g.Buckets {
			base := i * 2 * dims
			for d, iv := range b.Region {
				e.boxes[base+2*d] = iv.Lo
				e.boxes[base+2*d+1] = iv.Hi
			}
		}
	case kindEuclid:
		e.centers = make([]float64, n*dims)
		for i, b := range g.Buckets {
			base := i * dims
			for d, iv := range b.Region {
				e.centers[base+d] = (iv.Lo + iv.Hi) / 2
			}
		}
		diag := 0.0
		for _, iv := range g.Domain {
			diag += iv.Length() * iv.Length()
		}
		e.diag = math.Sqrt(diag)
	}
	return e
}

// Weigh evaluates the engine's edge weight for one bucket pair. It exists
// for tests and spot checks; the sweeps below are the hot path.
func (e *PairEngine) Weigh(i, j int) float64 {
	var out [1]float64
	e.weighBatch(int32(i), []int32{int32(j)}, out[:])
	return out[0]
}

// weighBatch computes the weight between the fixed bucket and each bucket in
// xs, writing results into out (indexed like xs). Dispatch happens once per
// batch, not per edge.
func (e *PairEngine) weighBatch(fixed int32, xs []int32, out []float64) {
	switch {
	case e.kind == kindGeneric:
		fb := e.grid.Buckets[fixed]
		for i, x := range xs {
			out[i] = e.weight(fb, e.grid.Buckets[x], e.grid.Domain)
		}
	case e.kind == kindEuclid:
		e.euclidBatch(fixed, xs, out)
	case e.dims == 2:
		e.proxBatch2(fixed, xs, out)
	default:
		e.proxBatch(fixed, xs, out)
	}
}

// proxBatch is the Kamel–Faloutsos proximity kernel over the flattened
// layout. It performs the exact floating-point operations of geom.Proximity
// (including the per-axis division by the domain length), so its results —
// and therefore every assignment built from them — are bit-identical to
// calling ProximityWeight per pair.
func (e *PairEngine) proxBatch(fixed int32, xs []int32, out []float64) {
	d2 := 2 * e.dims
	boxes := e.boxes
	lens := e.lens
	fb := boxes[int(fixed)*d2 : int(fixed)*d2+d2 : int(fixed)*d2+d2]
	for i, x := range xs {
		bb := boxes[int(x)*d2 : int(x)*d2+d2 : int(x)*d2+d2]
		prox := 1.0
		for d := 0; d < len(lens); d++ {
			length := lens[d]
			if length == 0 {
				// Degenerate domain axis: carries no spatial information.
				continue
			}
			alo, ahi := fb[2*d], fb[2*d+1]
			blo, bhi := bb[2*d], bb[2*d+1]
			if alo <= bhi && blo <= ahi {
				olo, ohi := alo, ahi
				if blo > olo {
					olo = blo
				}
				if bhi < ohi {
					ohi = bhi
				}
				delta := 0.0
				if ohi > olo {
					delta = (ohi - olo) / length
				}
				prox *= (1 + 2*delta) / 3
			} else {
				var gap float64
				if blo > ahi {
					gap = blo - ahi
				} else {
					gap = alo - bhi
				}
				dd := 1 - gap/length
				prox *= dd * dd / 3
			}
		}
		out[i] = prox
	}
}

// proxBatch2 is proxBatch specialized for two dimensions — the fixed box and
// both domain lengths live in registers across the whole batch, and the
// per-axis loop is unrolled. The floating-point operation sequence is
// unchanged, so results stay bit-identical to geom.Proximity.
func (e *PairEngine) proxBatch2(fixed int32, xs []int32, out []float64) {
	boxes := e.boxes
	len0, len1 := e.lens[0], e.lens[1]
	fi := int(fixed) * 4
	fb := boxes[fi : fi+4 : fi+4]
	alo0, ahi0, alo1, ahi1 := fb[0], fb[1], fb[2], fb[3]
	for i, x := range xs {
		bi := int(x) * 4
		bb := boxes[bi : bi+4 : bi+4]
		blo0, bhi0, blo1, bhi1 := bb[0], bb[1], bb[2], bb[3]
		prox := 1.0
		if len0 != 0 {
			if alo0 <= bhi0 && blo0 <= ahi0 {
				olo, ohi := alo0, ahi0
				if blo0 > olo {
					olo = blo0
				}
				if bhi0 < ohi {
					ohi = bhi0
				}
				delta := 0.0
				if ohi > olo {
					delta = (ohi - olo) / len0
				}
				prox = (1 + 2*delta) / 3
			} else {
				var gap float64
				if blo0 > ahi0 {
					gap = blo0 - ahi0
				} else {
					gap = alo0 - bhi0
				}
				dd := 1 - gap/len0
				prox = dd * dd / 3
			}
		}
		if len1 != 0 {
			if alo1 <= bhi1 && blo1 <= ahi1 {
				olo, ohi := alo1, ahi1
				if blo1 > olo {
					olo = blo1
				}
				if bhi1 < ohi {
					ohi = bhi1
				}
				delta := 0.0
				if ohi > olo {
					delta = (ohi - olo) / len1
				}
				prox *= (1 + 2*delta) / 3
			} else {
				var gap float64
				if blo1 > ahi1 {
					gap = blo1 - ahi1
				} else {
					gap = alo1 - bhi1
				}
				dd := 1 - gap/len1
				prox *= dd * dd / 3
			}
		}
		out[i] = prox
	}
}

// euclidBatch is the center-distance similarity kernel (EuclideanWeight)
// over precomputed bucket centers, operation-for-operation identical to
// calling EuclideanWeight per pair.
func (e *PairEngine) euclidBatch(fixed int32, xs []int32, out []float64) {
	if e.diag == 0 {
		for i := range xs {
			out[i] = 1
		}
		return
	}
	dims := e.dims
	centers := e.centers
	fc := centers[int(fixed)*dims : int(fixed)*dims+dims : int(fixed)*dims+dims]
	for i, x := range xs {
		bc := centers[int(x)*dims : int(x)*dims+dims : int(x)*dims+dims]
		sum := 0.0
		for d := 0; d < dims; d++ {
			df := fc[d] - bc[d]
			sum += df * df
		}
		out[i] = 1 - math.Sqrt(sum)/e.diag
	}
}

// sweepTile bounds how many weights a sweep computes before folding them
// into its reduction, so the scratch buffer stays L1-resident instead of
// being streamed through the cache once per step.
const sweepTile = 512

// weighTile weighs the fixed bucket against the sweepTile vertices of active
// starting at t (fewer at the tail) and returns them with their weights, which
// live in the engine's scratch buffer until the next call.
func (e *PairEngine) weighTile(fixed int32, active []int32, t int) ([]int32, []float64) {
	xs := active[t:min(t+sweepTile, len(active))]
	out := e.scratch[:len(xs)]
	e.weighBatch(fixed, xs, out)
	return xs, out
}

// initRows fills rows[k·n : (k+1)·n] with the weight of every active vertex
// against seeds[k], and returns the arg-min of row selRow over the active
// set (ties to the lowest vertex index) — the first selection of the
// round-robin expansion.
func (e *PairEngine) initRows(seeds []int, active []int32, rows []float64, selRow int) (int32, float64) {
	for t := 0; t < len(active); t += sweepTile {
		xs := active[t:min(t+sweepTile, len(active))]
		out := e.scratch[:len(xs)]
		for k, seed := range seeds {
			row := rows[k*e.n : (k+1)*e.n]
			e.weighBatch(int32(seed), xs, out)
			for i, x := range xs {
				row[x] = out[i]
			}
		}
	}
	return argminOver(rows[selRow*e.n:(selRow+1)*e.n], active)
}

// stepMinimax performs one round-robin expansion step's sweep: max-merge
// the weight of every active vertex against the newly assigned member into
// upd (MAX_x(k) maintenance), while simultaneously computing the arg-min of
// sel — the row of the NEXT tree in the round-robin order — over the same
// active set. Selection therefore never rescans the vertices on its own;
// it rides along the update sweep that must touch them anyway.
func (e *PairEngine) stepMinimax(newMember int32, active []int32, upd, sel []float64) (int32, float64) {
	bx, bv := int32(-1), math.Inf(1)
	for t := 0; t < len(active); t += sweepTile {
		xs, out := e.weighTile(newMember, active, t)
		for i, x := range xs {
			if out[i] > upd[x] {
				upd[x] = out[i]
			}
			if v := sel[x]; v < bv || (v == bv && x < bx) {
				bx, bv = x, v
			}
		}
	}
	return bx, bv
}

// stepMST min-merges the weight of every active vertex against the newly
// assigned member into row (Prim's frontier maintenance for one tree) and
// returns the row's new arg-min over the active set.
func (e *PairEngine) stepMST(newMember int32, active []int32, row []float64) (int32, float64) {
	bx, bv := int32(-1), math.Inf(1)
	for t := 0; t < len(active); t += sweepTile {
		xs, out := e.weighTile(newMember, active, t)
		for i, x := range xs {
			if out[i] < row[x] {
				row[x] = out[i]
			}
			if v := row[x]; v < bv || (v == bv && x < bx) {
				bx, bv = x, v
			}
		}
	}
	return bx, bv
}

// maxInto max-merges the weight of every active vertex against the fixed
// bucket into row, with no selection riding along — the residual-allocation
// row-maintenance sweep.
func (e *PairEngine) maxInto(fixed int32, active []int32, row []float64) {
	for t := 0; t < len(active); t += sweepTile {
		xs, out := e.weighTile(fixed, active, t)
		for i, x := range xs {
			if out[i] > row[x] {
				row[x] = out[i]
			}
		}
	}
}

// minSplit is the fewest rows splitRows gives a goroutine.
const minSplit = 256

// splitRows runs fn over [0, n) cut into one contiguous range per CPU, each
// range on its own goroutine with its own scratch tile, and waits for all of
// them. It serves the two sweeps whose N² work is a single call over disjoint
// rows, so where the cuts fall never shows in a result. A custom Weight stays
// on the calling goroutine: the closure need not be safe for concurrent use.
func (e *PairEngine) splitRows(n int, fn func(lo, hi int, scratch []float64)) {
	parts := min(runtime.GOMAXPROCS(0), n/minSplit)
	if parts <= 1 || e.kind == kindGeneric {
		fn(0, n, e.scratch)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p*n/parts, (p+1)*n/parts, make([]float64, sweepTile))
		}()
	}
	wg.Wait()
}

// initResidualRows fills rows[k·n : (k+1)·n] with the maximum weight between
// each vertex x and any bucket already owned by disk k, per the owners lists
// (owners[y] = disks that already hold a copy of bucket y). The max over each
// owner set is order-independent, and each goroutine of the split owns the
// row entries of its own vertices x.
func (e *PairEngine) initResidualRows(owners [][]int, rows []float64) {
	n := e.n
	all := identity(n)
	e.splitRows(n, func(lo, hi int, scratch []float64) {
		for t := lo; t < hi; t += sweepTile {
			xs := all[t:min(t+sweepTile, hi)]
			out := scratch[:len(xs)]
			for y := 0; y < n; y++ {
				if len(owners[y]) == 0 {
					continue
				}
				e.weighBatch(int32(y), xs, out)
				for _, k := range owners[y] {
					row := rows[k*n+t : k*n+t+len(xs)]
					for i, v := range out {
						if v > row[i] {
							row[i] = v
						}
					}
				}
			}
		}
	})
}

// argmaxTo returns the active vertex with the largest weight to the fixed
// bucket (ties to the lowest vertex index) — SSP's path-growth step.
func (e *PairEngine) argmaxTo(fixed int32, active []int32) (int32, float64) {
	bx, bv := int32(-1), math.Inf(-1)
	for t := 0; t < len(active); t += sweepTile {
		xs, out := e.weighTile(fixed, active, t)
		for i, x := range xs {
			if v := out[i]; v > bv || (v == bv && x < bx) {
				bx, bv = x, v
			}
		}
	}
	return bx, bv
}

// NearestCompanions returns, for every bucket, the index of its closest
// companion under the engine's weight (ties to the lower index), or -1 for
// a single-bucket grid. Rows are independent, so the sweep splits over them.
func (e *PairEngine) NearestCompanions() []int {
	n := e.n
	nn := make([]int, n)
	all := identity(n)
	e.splitRows(n, func(lo, hi int, scratch []float64) {
		for i := lo; i < hi; i++ {
			best, bestVal := -1, math.Inf(-1)
			for t := 0; t < n; t += sweepTile {
				xs := all[t:min(t+sweepTile, n)]
				out := scratch[:len(xs)]
				e.weighBatch(int32(i), xs, out)
				for j, x := range xs {
					if int(x) == i {
						continue
					}
					if v := out[j]; v > bestVal {
						best, bestVal = int(x), v
					}
				}
			}
			nn[i] = best
		}
	})
	return nn
}

// argminOver scans row at the given vertex indices; ties go to the lowest
// vertex index, matching the textbook serial loops (reference_test.go).
func argminOver(row []float64, xs []int32) (int32, float64) {
	bx, bv := int32(-1), math.Inf(1)
	for _, x := range xs {
		if v := row[x]; v < bv || (v == bv && x < bx) {
			bx, bv = x, v
		}
	}
	return bx, bv
}

// identity returns the vertex list 0, 1, …, n-1.
func identity(n int) []int32 {
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	return xs
}

// activeSet is the shrinking unassigned-vertex list shared by the engine
// paths: O(1) removal by swapping with the last element. Reductions use a
// total order on (value, index), so the resulting element order is free to
// change without affecting any outcome.
type activeSet struct {
	list []int32
	pos  []int32 // vertex -> index in list
}

func newActiveSetAll(n int) *activeSet {
	return &activeSet{list: identity(n), pos: identity(n)}
}

func newActiveSet(assign []int) *activeSet {
	a := &activeSet{pos: make([]int32, len(assign))}
	a.list = make([]int32, 0, len(assign))
	for x, d := range assign {
		if d < 0 {
			a.pos[x] = int32(len(a.list))
			a.list = append(a.list, int32(x))
		}
	}
	return a
}

func (a *activeSet) remove(x int32) {
	i := a.pos[x]
	last := a.list[len(a.list)-1]
	a.list[i] = last
	a.pos[last] = i
	a.list = a.list[:len(a.list)-1]
}

// permPrefix returns the first m elements of rand.Perm(n) while allocating
// only m ints: it replays the same Fisher–Yates shuffle and RNG draws but
// tracks only the positions that end up in the prefix, so the chosen seed
// sequence for a given Seed is identical to the full-permutation code it
// replaces. Requires m <= n.
func permPrefix(rng *rand.Rand, n, m int) []int {
	p := make([]int, m)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		switch {
		case i < m:
			p[i] = p[j]
			p[j] = i
		case j < m:
			p[j] = i
		}
	}
	return p
}
