package core

import (
	"math"
	"math/rand"

	"pgridfile/internal/geom"
	"pgridfile/internal/sfc"
)

// This file implements the pairwise-weight engine shared by every
// proximity-based algorithm in the package (Minimax, SSP, MST), by residual
// replica placement and by the simulator's nearest-companion computation. All
// of them have the same shape — evaluate an edge weight between one "pivot"
// bucket and the other live buckets, then reduce (max-merge, min-merge,
// arg-min, arg-max) — so they share one engine instead of each calling
// geom.Proximity per edge.
//
// The edge weight is one of two, fixed when the engine is built: the
// Kamel–Faloutsos proximity index, the paper's, or normalized Euclidean
// centre distance, which only minimax's ablation A3 selects (Minimax.Euclid).
// Each has its own batch kernel; there is no other.
//
// The engine gains its speed from two sources:
//
//  1. Flattened geometry. Bucket regions are copied once per Decluster into
//     a contiguous []float64 (lo/hi interleaved per axis), so the proximity
//     kernel is a devirtualized, zero-alloc inner loop: no BucketView struct
//     copies, no Rect slice-header chasing, no closure call.
//
//  2. Block pruning. The buckets are sorted along the Hilbert curve of their
//     region centres and cut into blocks of blockSize, and runs of superSize
//     blocks form super-blocks. Each block and each super-block has a
//     bounding box stored behind the bucket boxes in the same layout. The
//     proximity index never decreases when one of its arguments grows (every
//     operation of the kernel is monotone, in floating point too — DESIGN.md
//     S35), so the kernel applied to a pivot and a box bounds the pivot's
//     weight to every bucket inside from above; a super-block's box contains
//     its blocks' boxes, so its bound is at least theirs (S64). Every bounded
//     sweep bounds the super-blocks first and enters only those that could
//     change its result, bounding their blocks in turn. A max-merge sweep
//     skips a box whose bound does not exceed the smallest value the row
//     holds there, an arg-max sweep one whose bound is below the running
//     best, and an arg-min one whose smallest row value is above it. What a
//     sweep skips could not have changed its result, so every result is the
//     one the full sweep computes. Sweeps without a proven bound (the
//     Euclidean kernel, MST's min-merge) take the same loops with every
//     bound at +Inf: every block is visited.
//
// Every reduction uses a total order — (value, vertex index) for
// arg-min/arg-max, plus tree index for MST's global pick — so the order in
// which blocks and their vertices are visited never influences a result.
//
// Everything runs on the calling goroutine.

// blockSize is how many buckets share one bounding box. A sweep pays one
// bound per block it looks at and one weight per bucket of each block it
// cannot skip: smaller blocks have tighter boxes but more bounds to evaluate.
const blockSize = 32

// superSize is how many consecutive blocks share one super-block box. A
// bounded sweep pays one bound per super-block, plus superSize for each
// super-block it enters.
const superSize = 16

// PairEngine is the shared pairwise-weight engine: a flattened copy of a
// grid's bucket geometry, the set of still-active buckets grouped into
// spatial blocks and super-blocks, and the pruned sweeps over them.
// Construct one per Decluster (or per NearestCompanions run); every bucket
// starts active. A PairEngine must be driven from a single goroutine: its
// sweeps share scratch buffers.
type PairEngine struct {
	n       int
	dims    int
	euclid  bool      // the Euclidean kernel, not the proximity index
	boxes   []float64 // (n + blocks + super-blocks) × 2·dims, lo,hi interleaved per axis: bucket boxes, then block boxes, then super-block boxes
	centers []float64 // n × dims, Euclidean kernel only
	lens    []float64 // per-axis domain length, 0 for degenerate axes
	diag    float64   // Euclidean kernel: domain diagonal, 0 for a degenerate domain

	// Block b holds members[b·blockSize : (b+1)·blockSize], its active
	// vertices first: live[b] of them. Super-block s holds blocks
	// s·superSize … (s+1)·superSize − 1 and slive[s] active vertices.
	members []int32
	pos     []int32 // vertex -> index in members
	live    []int32
	slive   []int32
	active  int // vertices still active, over all blocks

	// bounded reports that the kernel applied to a block's or super-block's
	// box bounds the weight to each of its members: the proximity kernel,
	// every region inside the domain. Otherwise ub and usb stay at +Inf and
	// nothing is skipped.
	bounded  bool
	blockIDs []int32   // the block boxes' indices in boxes: n, n+1, …
	superIDs []int32   // the super-block boxes' indices, behind the blocks'
	ub       []float64 // per block: the current pivot's bound
	usb      []float64 // per super-block: the current pivot's bound
	entered  []bool    // per super-block: argmaxTo has bounded its blocks
	scratch  []float64 // blockSize weights, reused by every sweep

	work
}

// work counts the engine's kernel evaluations: the pruning's cost model, in
// counts rather than clocks (TestPrunedWorkBudget, BenchmarkDecluster).
type work struct {
	weights int64 // bucket–bucket weights
	bounds  int64 // bucket–box bounds, blocks and super-blocks
}

// NewPairEngine builds an engine for g whose edge weight is the proximity
// index, or with euclid set normalized Euclidean centre distance.
func NewPairEngine(g Grid, euclid bool) *PairEngine {
	n := len(g.Buckets)
	dims := len(g.Domain)
	nb := (n + blockSize - 1) / blockSize
	ns := (nb + superSize - 1) / superSize
	e := &PairEngine{
		n:       n,
		dims:    dims,
		euclid:  euclid,
		lens:    make([]float64, dims),
		members: curveOrder(g),
		pos:     make([]int32, n),
		live:    make([]int32, nb),
		slive:   make([]int32, ns),
		active:  n,
		ub:      make([]float64, nb),
		usb:     make([]float64, ns),
		entered: make([]bool, ns),
		scratch: make([]float64, blockSize),
	}
	for d, iv := range g.Domain {
		if l := iv.Length(); l > 0 {
			e.lens[d] = l
		}
	}
	for i, x := range e.members {
		e.pos[x] = int32(i)
	}
	for b := range e.live {
		e.live[b] = int32(min(blockSize, n-b*blockSize))
		e.slive[b/superSize] += e.live[b]
		e.ub[b] = math.Inf(1)
	}
	for s := range e.usb {
		e.usb[s] = math.Inf(1)
	}
	if euclid {
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
		return e
	}
	e.boxes = make([]float64, (n+nb+ns)*2*dims)
	for i, b := range g.Buckets {
		base := i * 2 * dims
		for d, iv := range b.Region {
			e.boxes[base+2*d] = iv.Lo
			e.boxes[base+2*d+1] = iv.Hi
		}
	}
	e.bounded = e.boxBlocks(g.Domain)
	return e
}

// curveOrder lists g's buckets along the Hilbert curve of their region
// centres, so that consecutive runs of the list are spatially compact.
func curveOrder(g Grid) []int32 {
	order := make([]int32, len(g.Buckets))
	dims := len(g.Domain)
	if dims < 1 || dims > 64 {
		// No curve fits a 64-bit key: index order, whose blocks prune less.
		for i := range order {
			order[i] = int32(i)
		}
		return order
	}
	for i, x := range CentroidOrder(g, sfc.NewHilbert(dims, min(16, 64/dims))) {
		order[i] = int32(x)
	}
	return order
}

// boxBlocks stores each block's bounding box behind the bucket boxes and
// each super-block's behind those, and reports whether the boxes are proven
// bounds: the monotonicity argument needs every gap to be at most the domain
// length, which holds when every region is a well-formed interval inside the
// domain (a NaN fails the test).
func (e *PairEngine) boxBlocks(domain geom.Rect) bool {
	d2 := 2 * e.dims
	inside := true
	for x := 0; x < e.n; x++ {
		xb := e.boxes[x*d2 : x*d2+d2]
		for d, iv := range domain {
			lo, hi := xb[2*d], xb[2*d+1]
			if e.lens[d] != 0 && !(iv.Lo <= lo && lo <= hi && hi <= iv.Hi) {
				inside = false
			}
		}
	}
	// grow widens box id to cover box x, or makes it x's copy when first.
	grow := func(id, x int, first bool) {
		bb, xb := e.boxes[id*d2:id*d2+d2], e.boxes[x*d2:x*d2+d2]
		for d := 0; d < e.dims; d++ {
			lo, hi := xb[2*d], xb[2*d+1]
			if first || lo < bb[2*d] {
				bb[2*d] = lo
			}
			if first || hi > bb[2*d+1] {
				bb[2*d+1] = hi
			}
		}
	}
	nb := len(e.live)
	e.blockIDs = make([]int32, nb)
	for b := range e.live {
		e.blockIDs[b] = int32(e.n + b)
		for i, x := range e.block(b) {
			grow(e.n+b, int(x), i == 0)
		}
	}
	e.superIDs = make([]int32, len(e.slive))
	for s := range e.slive {
		e.superIDs[s] = int32(e.n + nb + s)
		lo, hi := e.blocksOf(s)
		for b := lo; b < hi; b++ {
			grow(e.n+nb+s, e.n+b, b == lo)
		}
	}
	return inside
}

// blocksOf returns the range of blocks super-block s holds.
func (e *PairEngine) blocksOf(s int) (lo, hi int) {
	return s * superSize, min((s+1)*superSize, len(e.live))
}

// block returns block b's active vertices.
func (e *PairEngine) block(b int) []int32 {
	return e.members[b*blockSize : b*blockSize+int(e.live[b])]
}

// remove takes x out of the active set: O(1), by swapping it behind its
// block's active prefix. Reductions use a total order on (value, index), so
// the order of a block's vertices is free to change.
func (e *PairEngine) remove(x int32) {
	i := e.pos[x]
	b := int(i) / blockSize
	e.live[b]--
	e.slive[b/superSize]--
	last := int32(b*blockSize) + e.live[b]
	y := e.members[last]
	e.members[i], e.members[last] = y, x
	e.pos[y], e.pos[x] = i, last
	e.active--
}

// weighBatch computes the weight between the fixed bucket and each bucket in
// xs, writing results into out (indexed like xs). Dispatch happens once per
// batch, not per edge.
func (e *PairEngine) weighBatch(fixed int32, xs []int32, out []float64) {
	switch {
	case e.euclid:
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
// calling geom.Proximity per pair.
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

// euclidBatch is the centre-distance similarity kernel over precomputed
// bucket centres: 1 − distance/diagonal, in (0, 1] inside the domain and 1
// throughout a degenerate domain. The paper rejects centre distance because it
// cannot tell partially overlapping regions apart; it is minimax's edge-weight
// ablation (A3 in DESIGN.md).
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

// weigh computes the weight between the fixed bucket and each of xs (at most
// blockSize of them) into the engine's scratch buffer, where they live until
// the next call.
func (e *PairEngine) weigh(fixed int32, xs []int32) []float64 {
	out := e.scratch[:len(xs)]
	e.weighBatch(fixed, xs, out)
	e.weights += int64(len(xs))
	return out
}

// boundSupers returns, per super-block, an upper bound on the weight between
// the fixed bucket and any bucket of the super-block: the kernel applied to
// the super-block boxes, or +Inf where that is no proven bound.
func (e *PairEngine) boundSupers(fixed int32) []float64 {
	if e.bounded {
		e.weighBatch(fixed, e.superIDs, e.usb)
		e.bounds += int64(len(e.usb))
	}
	return e.usb
}

// boundBlocks sets, for each block of super-block s, an upper bound on the
// weight between the fixed bucket and any bucket of the block (the kernel
// applied to the block boxes, or +Inf where that is no proven bound), and
// returns the per-block bounds.
func (e *PairEngine) boundBlocks(fixed int32, s int) []float64 {
	if e.bounded {
		lo, hi := e.blocksOf(s)
		e.weighBatch(fixed, e.blockIDs[lo:hi], e.ub[lo:hi])
		e.bounds += int64(hi - lo)
	}
	return e.ub
}

// treeRow is one tree's (disk's) row: a value per vertex, per block a lower
// bound in the (value, vertex) order on the row's entries at the block's
// active vertices, and per super-block the same over its blocks' bounds. A
// bound may be stale-low — removing a vertex or raising a value leaves it
// valid. A block's is made exact whenever a sweep scans the block, a
// super-block's the least of its active blocks' whenever a sweep enters it
// (in the same pass over its blocks, or by settle).
type treeRow struct {
	val  []float64 // per vertex
	lo   []float64 // per block: the smallest value…
	arg  []int32   // …and the lowest vertex holding it
	slo  []float64 // per super-block: the smallest value…
	sarg []int32   // …and the lowest vertex holding it
}

// newRows returns one treeRow for each of m trees, all values zero.
func (e *PairEngine) newRows(m int) []treeRow {
	n, nb, ns := e.n, len(e.live), len(e.slive)
	val, lo, arg := make([]float64, m*n), make([]float64, m*nb), make([]int32, m*nb)
	slo, sarg := make([]float64, m*ns), make([]int32, m*ns)
	rows := make([]treeRow, m)
	for k := range rows {
		rows[k] = treeRow{val[k*n : (k+1)*n], lo[k*nb : (k+1)*nb], arg[k*nb : (k+1)*nb],
			slo[k*ns : (k+1)*ns], sarg[k*ns : (k+1)*ns]}
	}
	return rows
}

// settle sets super-block s's bound in the row to the least of its active
// blocks' bounds, (+Inf, -1) when none is active.
func (e *PairEngine) settle(r treeRow, s int) {
	lo, hi := e.blocksOf(s)
	r.unset(s)
	for b := lo; b < hi; b++ {
		if e.live[b] > 0 {
			r.fold(s, b)
		}
	}
}

// unset clears super-block s's bound, for fold to rebuild.
func (r treeRow) unset(s int) {
	r.slo[s], r.sarg[s] = math.Inf(1), -1
}

// fold lowers super-block s's bound to block b's when that comes first.
func (r treeRow) fold(s, b int) {
	if before(r.lo[b], r.arg[b], r.slo[s], r.sarg[s]) {
		r.slo[s], r.sarg[s] = r.lo[b], r.arg[b]
	}
}

// firstThenRest calls visit on first, then on every other index of [lo, hi)
// in order: a sweep starts where its result most likely lies, so that the
// running best prunes the rest.
func firstThenRest(first, lo, hi int, visit func(int)) {
	visit(first)
	for i := lo; i < hi; i++ {
		if i != first {
			visit(i)
		}
	}
}

// before is the total order of every arg-min: by value, ties to the lower
// vertex index.
func before(v float64, x int32, bv float64, bx int32) bool {
	return v < bv || (v == bv && x < bx)
}

// initRows sets tree k's row to the weight of every active vertex against
// seeds[k].
func (e *PairEngine) initRows(seeds []int, rows []treeRow) {
	for k, seed := range seeds {
		r := rows[k]
		for b := range e.live {
			xs := e.block(b)
			mx, mv := int32(-1), math.Inf(1)
			for i, v := range e.weigh(int32(seed), xs) {
				x := xs[i]
				r.val[x] = v
				if before(v, x, mv, mx) {
					mx, mv = x, v
				}
			}
			r.lo[b], r.arg[b] = mv, mx
		}
		for s := range e.slive {
			e.settle(r, s)
		}
	}
}

// mergeMax max-merges the weights out of block b's active vertices xs into
// the row and makes the block's bound exact.
func (r treeRow) mergeMax(b int, xs []int32, out []float64) {
	mx, mv := int32(-1), math.Inf(1)
	for i, x := range xs {
		v := r.val[x]
		if out[i] > v {
			v = out[i]
			r.val[x] = v
		}
		if before(v, x, mv, mx) {
			mx, mv = x, v
		}
	}
	r.lo[b], r.arg[b] = mv, mx
}

// maxInto max-merges the weight of every active vertex against the fixed
// bucket into the row — MAX_x(k) maintenance for minimax and residual
// allocation. A super-block or block whose bound does not exceed the row's
// smallest value there is skipped: no weight in it can exceed the value its
// entry holds.
func (e *PairEngine) maxInto(fixed int32, r treeRow) {
	usb := e.boundSupers(fixed)
	for s, cnt := range e.slive {
		if cnt == 0 || usb[s] <= r.slo[s] {
			continue
		}
		ub := e.boundBlocks(fixed, s)
		lo, hi := e.blocksOf(s)
		r.unset(s)
		for b := lo; b < hi; b++ {
			if e.live[b] == 0 {
				continue
			}
			if ub[b] > r.lo[b] {
				xs := e.block(b)
				r.mergeMax(b, xs, e.weigh(fixed, xs))
			}
			r.fold(s, b)
		}
	}
}

// argminRow returns the arg-min of the row over the active vertices (ties to
// the lowest vertex index), or -1 when there is none. With owners non-nil,
// the vertices disk already owns are passed over. It starts at the
// super-block with the smallest bound, then enters only super-blocks whose
// bound comes before the running best, and within each scans, in order, the
// blocks whose bound comes before it; one pass over a super-block's blocks
// both scans them and makes its bound the least of theirs.
func (e *PairEngine) argminRow(r treeRow, owners [][]int, disk int) (int32, float64) {
	first := -1
	for s, cnt := range e.slive {
		if cnt > 0 && (first < 0 || before(r.slo[s], r.sarg[s], r.slo[first], r.sarg[first])) {
			first = s
		}
	}
	bx, bv := int32(-1), math.Inf(1)
	if first < 0 {
		return bx, bv
	}
	firstThenRest(first, 0, len(e.slive), func(s int) {
		if e.slive[s] == 0 || (bx >= 0 && !before(r.slo[s], r.sarg[s], bv, bx)) {
			return
		}
		lo, hi := e.blocksOf(s)
		r.unset(s)
		for b := lo; b < hi; b++ {
			if e.live[b] == 0 {
				continue
			}
			if bx < 0 || before(r.lo[b], r.arg[b], bv, bx) {
				mx, mv := int32(-1), math.Inf(1)
				for _, x := range e.block(b) {
					v := r.val[x]
					if before(v, x, mv, mx) {
						mx, mv = x, v
					}
					if before(v, x, bv, bx) && (owners == nil || !ownedBy(owners[x], disk)) {
						bx, bv = x, v
					}
				}
				r.lo[b], r.arg[b] = mv, mx
			}
			r.fold(s, b)
		}
	})
	return bx, bv
}

// stepMST min-merges the weight of every active vertex against the newly
// assigned member into row (Prim's frontier maintenance for one tree) and
// returns the row's new arg-min over the active set. No block is skipped:
// the block boxes bound weights from above, a min-merge would need them
// bounded from below.
func (e *PairEngine) stepMST(newMember int32, r treeRow) (int32, float64) {
	bx, bv := int32(-1), math.Inf(1)
	for b, cnt := range e.live {
		if cnt == 0 {
			continue
		}
		xs := e.block(b)
		mx, mv := int32(-1), math.Inf(1)
		for i, v := range e.weigh(newMember, xs) {
			x := xs[i]
			if v < r.val[x] {
				r.val[x] = v
			} else {
				v = r.val[x]
			}
			if before(v, x, mv, mx) {
				mx, mv = x, v
			}
		}
		r.lo[b], r.arg[b] = mv, mx
		if before(mv, mx, bv, bx) {
			bx, bv = mx, mv
		}
	}
	for s := range e.slive {
		e.settle(r, s)
	}
	return bx, bv
}

// initResidualRows sets disk k's row to the maximum weight between each
// vertex x and any bucket disk k already owns, per the owners lists
// (owners[y] = disks that already hold a copy of bucket y). Each owned bucket
// is max-merged in like a new member, so once a row holds a nearby bucket's
// weights the far ones are skipped; the buckets are fed in a shuffled order
// (a max is order-independent) so that every row meets nearby buckets early
// wherever it is looked at.
func (e *PairEngine) initResidualRows(owners [][]int, rows []treeRow) {
	var own, enter []treeRow // the rows of y's owner disks; those entering a super-block
	for _, y := range rand.New(rand.NewSource(1)).Perm(e.n) {
		own = own[:0]
		for _, k := range owners[y] {
			own = append(own, rows[k])
		}
		usb := e.boundSupers(int32(y))
		for s := range e.slive {
			enter = enter[:0]
			for _, r := range own {
				if usb[s] > r.slo[s] {
					enter = append(enter, r)
				}
			}
			if len(enter) == 0 {
				continue
			}
			ub := e.boundBlocks(int32(y), s)
			lo, hi := e.blocksOf(s)
			for _, r := range enter {
				r.unset(s)
			}
			for b := lo; b < hi; b++ {
				if e.live[b] == 0 {
					continue
				}
				var out []float64 // weighed once, however many rows take it
				for _, r := range enter {
					if ub[b] > r.lo[b] {
						xs := e.block(b)
						if out == nil {
							out = e.weigh(int32(y), xs)
						}
						r.mergeMax(b, xs, out)
					}
					r.fold(s, b)
				}
			}
		}
	}
}

// argmaxTo returns the active vertex other than fixed with the largest
// weight to the fixed bucket (ties to the lowest vertex index), or -1 when
// there is none — SSP's path-growth step and the nearest-companion search.
// It first bounds the blocks of the super-blocks with the largest bounds,
// best first, until no super-block left could hold a block with a larger
// bound, and scans the block with the largest bound of all; the running best
// that block sets prunes the sweep over the rest, which scans only the
// super-blocks and blocks whose bound reaches it. (The block with the
// largest bound need not lie in the super-block with the largest bound.)
func (e *PairEngine) argmaxTo(fixed int32) (int32, float64) {
	usb := e.boundSupers(fixed)
	entered := e.entered // per super-block: its blocks hold this pivot's bounds
	clear(entered)
	first := -1 // the block with the largest bound in the entered super-blocks
	for {
		s := -1
		for i, cnt := range e.slive {
			if cnt > 0 && !entered[i] && (s < 0 || usb[i] > usb[s]) {
				s = i
			}
		}
		if s < 0 || (first >= 0 && usb[s] <= e.ub[first]) {
			break
		}
		entered[s] = true
		ub := e.boundBlocks(fixed, s)
		lo, hi := e.blocksOf(s)
		if b := largest(ub, e.live, lo, hi); first < 0 || ub[b] > ub[first] {
			first = b
		}
	}
	bx, bv := int32(-1), math.Inf(-1)
	if first < 0 {
		return bx, bv
	}
	scanBlock := func(b int) {
		if e.live[b] == 0 || e.ub[b] < bv {
			return
		}
		xs := e.block(b)
		for j, v := range e.weigh(fixed, xs) {
			x := xs[j]
			if x != fixed && (v > bv || (v == bv && x < bx)) {
				bx, bv = x, v
			}
		}
	}
	scanBlock(first)
	for s, cnt := range e.slive {
		if cnt == 0 || usb[s] < bv {
			continue
		}
		if !entered[s] {
			e.boundBlocks(fixed, s)
		}
		lo, hi := e.blocksOf(s)
		for b := lo; b < hi; b++ {
			if b != first {
				scanBlock(b)
			}
		}
	}
	return bx, bv
}

// largest returns the index in [lo, hi) with the largest bound among those
// with a nonzero count (ties to the lowest index), or -1 when there is none.
func largest(bound []float64, count []int32, lo, hi int) int {
	first := -1
	for i := lo; i < hi; i++ {
		if count[i] > 0 && (first < 0 || bound[i] > bound[first]) {
			first = i
		}
	}
	return first
}

// NearestCompanions returns, for every bucket, the index of its closest
// companion under the engine's weight (ties to the lower index), or -1 for
// a single-bucket grid.
func (e *PairEngine) NearestCompanions() []int {
	nn := make([]int, e.n)
	for i := range nn {
		x, _ := e.argmaxTo(int32(i))
		nn[i] = int(x)
	}
	return nn
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
