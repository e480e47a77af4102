package core

import (
	"math"
	"math/rand"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// The textbook serial loops of the proximity-based allocators: one pair
// function call per edge, a full rescan per step, no engine. They are the
// oracle the engine's byte-identical-assignment guarantee is tested against
// (TestEngineMatchesSerialReference); production code has one build path, on
// the engine.

// pairWeight is an edge weight as the textbook states it: a function of two
// buckets and the domain, called once per pair.
type pairWeight func(a, b gridfile.BucketView, domain geom.Rect) float64

// proximity is the Kamel–Faloutsos proximity index, the paper's edge weight
// and the engine's default kernel.
func proximity(a, b gridfile.BucketView, domain geom.Rect) float64 {
	return geom.Proximity(a.Region, b.Region, domain)
}

// euclidean is the reference of the engine's Euclidean kernel
// (Minimax.Euclid): the distance between the two region centres, normalized
// by the domain diagonal into a similarity 1 − distance/diagonal, and 1
// throughout a degenerate domain.
func euclidean(a, b gridfile.BucketView, domain geom.Rect) float64 {
	diag := 0.0
	for _, iv := range domain {
		diag += iv.Length() * iv.Length()
	}
	diag = math.Sqrt(diag)
	if diag == 0 {
		return 1
	}
	sum := 0.0
	for d := range a.Region {
		ac := (a.Region[d].Lo + a.Region[d].Hi) / 2
		bc := (b.Region[d].Lo + b.Region[d].Hi) / 2
		df := ac - bc
		sum += df * df
	}
	return 1 - math.Sqrt(sum)/diag
}

// referenceSeeds is the seeding phase Minimax and MST share: M distinct
// random buckets, bucket seeds[k] on disk k, everything else unassigned.
func referenceSeeds(n, disks int, seed int64) (seeds, assign []int) {
	assign = make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	seeds = rand.New(rand.NewSource(seed)).Perm(n)[:disks]
	for k, v := range seeds {
		assign[v] = k
	}
	return seeds, assign
}

// referenceMinimax is Algorithm 2 as the paper states it. Requires
// disks < len(g.Buckets).
func referenceMinimax(g Grid, w pairWeight, seed int64, disks int) []int {
	n := len(g.Buckets)
	seeds, assign := referenceSeeds(n, disks, seed)

	// maxTo[x*disks+k] is MAX_x(k): the largest edge weight between
	// unassigned vertex x and the members of tree k.
	maxTo := make([]float64, n*disks)
	for x := 0; x < n; x++ {
		if assign[x] >= 0 {
			continue
		}
		for k, v := range seeds {
			maxTo[x*disks+k] = w(g.Buckets[x], g.Buckets[v], g.Domain)
		}
	}

	// Phase 2: round-robin expansion.
	remaining := n - disks
	k := 0
	for remaining > 0 {
		// Select the unassigned vertex with the smallest MAX to tree k.
		best, bestVal := -1, math.Inf(1)
		for x := 0; x < n; x++ {
			if assign[x] >= 0 {
				continue
			}
			if v := maxTo[x*disks+k]; v < bestVal {
				best, bestVal = x, v
			}
		}
		assign[best] = k
		remaining--

		// Update MAX_x(k) for the remaining vertices.
		for x := 0; x < n; x++ {
			if assign[x] >= 0 {
				continue
			}
			if c := w(g.Buckets[best], g.Buckets[x], g.Domain); c > maxTo[x*disks+k] {
				maxTo[x*disks+k] = c
			}
		}
		k++
		if k == disks {
			k = 0
		}
	}
	return assign
}

// referenceSSP grows the nearest-neighbour spanning path one full scan per
// step and deals disks round-robin along it.
func referenceSSP(g Grid, w pairWeight, seed int64, disks int) []int {
	n := len(g.Buckets)
	start := rand.New(rand.NewSource(seed)).Intn(n)

	order := make([]int, 0, n)
	order = append(order, start)
	visited := make([]bool, n)
	visited[start] = true
	cur := start
	for len(order) < n {
		best, bestVal := -1, math.Inf(-1)
		for x := 0; x < n; x++ {
			if visited[x] {
				continue
			}
			if v := w(g.Buckets[cur], g.Buckets[x], g.Domain); v > bestVal {
				best, bestVal = x, v
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = best
	}

	assign := make([]int, n)
	for pos, v := range order {
		assign[v] = pos % disks
	}
	return assign
}

// referenceMST joins the globally cheapest tree/vertex pair each step,
// rescanning every tree's frontier. Requires disks < len(g.Buckets).
func referenceMST(g Grid, w pairWeight, seed int64, disks int) []int {
	n := len(g.Buckets)
	seeds, assign := referenceSeeds(n, disks, seed)

	// minTo[x*disks+k] is the smallest edge weight between unassigned x and
	// tree k (Prim's frontier value per tree).
	minTo := make([]float64, n*disks)
	for x := 0; x < n; x++ {
		if assign[x] >= 0 {
			continue
		}
		for k, v := range seeds {
			minTo[x*disks+k] = w(g.Buckets[x], g.Buckets[v], g.Domain)
		}
	}

	for remaining := n - disks; remaining > 0; remaining-- {
		bestX, bestK, bestVal := -1, -1, math.Inf(1)
		for x := 0; x < n; x++ {
			if assign[x] >= 0 {
				continue
			}
			for k := 0; k < disks; k++ {
				if v := minTo[x*disks+k]; v < bestVal {
					bestX, bestK, bestVal = x, k, v
				}
			}
		}
		assign[bestX] = bestK
		for x := 0; x < n; x++ {
			if assign[x] >= 0 {
				continue
			}
			if c := w(g.Buckets[bestX], g.Buckets[x], g.Domain); c < minTo[x*disks+bestK] {
				minTo[x*disks+bestK] = c
			}
		}
	}
	return assign
}

// referenceResidual is ResidualAssign with the rows seeded and maintained by
// one pair function call per pair and every selection a full scan in index order.
// owners must satisfy ResidualAssign's argument contract.
func referenceResidual(g Grid, disks int, owners [][]int, w pairWeight) []int {
	n := len(g.Buckets)

	rows := make([]float64, disks*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := w(g.Buckets[y], g.Buckets[x], g.Domain)
			for _, k := range owners[y] {
				if v > rows[k*n+x] {
					rows[k*n+x] = v
				}
			}
		}
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	quota := (n + disks - 1) / disks
	loads := make([]int, disks)
	remaining := n
	stalled := 0
	for k := 0; remaining > 0 && stalled < disks; k = (k + 1) % disks {
		if loads[k] >= quota {
			stalled++
			continue
		}
		row := rows[k*n : (k+1)*n]
		best, bestVal := -1, math.Inf(1)
		for x := 0; x < n; x++ {
			if assign[x] >= 0 || ownedBy(owners[x], k) {
				continue
			}
			if v := row[x]; v < bestVal {
				best, bestVal = x, v
			}
		}
		if best < 0 {
			stalled++
			continue
		}
		stalled = 0
		assign[best] = k
		loads[k]++
		remaining--
		for x := 0; x < n; x++ {
			if assign[x] >= 0 {
				continue
			}
			if v := w(g.Buckets[best], g.Buckets[x], g.Domain); v > row[x] {
				row[x] = v
			}
		}
	}

	// Leftover pass, quota relaxed: stragglers in index order to their
	// least-loaded eligible disk.
	for x := 0; x < n; x++ {
		if assign[x] >= 0 {
			continue
		}
		best := -1
		for k := 0; k < disks; k++ {
			if ownedBy(owners[x], k) {
				continue
			}
			if best < 0 || loads[k] < loads[best] {
				best = k
			}
		}
		assign[x] = best
		loads[best]++
	}
	return assign
}

// referenceCompanions scans every other bucket for each bucket's closest
// companion, ties to the lower index; -1 on a single-bucket grid.
func referenceCompanions(g Grid, w pairWeight) []int {
	n := len(g.Buckets)
	nn := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestVal := -1, math.Inf(-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if v := w(g.Buckets[i], g.Buckets[j], g.Domain); v > bestVal {
				best, bestVal = j, v
			}
		}
		nn[i] = best
	}
	return nn
}
