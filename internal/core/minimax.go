package core

import (
	"math"
	"math/rand"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// Weight estimates the probability that two buckets are accessed by the same
// range query; larger means more likely. It is the edge-weight function of
// the proximity-based algorithms and must be symmetric: the engine calls it
// as w(pivot, other), never both ways round, and only from the goroutine that
// called into the package, so a custom Weight may keep unsynchronized state.
type Weight func(a, b gridfile.BucketView, domain geom.Rect) float64

// ProximityWeight is the Kamel–Faloutsos proximity index, the paper's chosen
// edge weight for the minimax algorithm.
func ProximityWeight(a, b gridfile.BucketView, domain geom.Rect) float64 {
	return geom.Proximity(a.Region, b.Region, domain)
}

// EuclideanWeight converts center distance into a similarity in (0,1] by
// normalizing against the domain diagonal. The paper rejects center distance
// because it cannot distinguish partially overlapping bucket regions; it is
// kept as the edge-weight ablation (A3 in DESIGN.md).
func EuclideanWeight(a, b gridfile.BucketView, domain geom.Rect) float64 {
	diag := 0.0
	for _, iv := range domain {
		diag += iv.Length() * iv.Length()
	}
	diag = math.Sqrt(diag)
	if diag == 0 {
		return 1
	}
	return 1 - geom.EuclideanDistance(a.Region, b.Region)/diag
}

// Minimax is Algorithm 2: the minimax spanning tree declustering algorithm.
// M spanning trees are seeded with random distinct buckets and grown in
// round-robin order; the tree whose turn it is receives the unassigned
// bucket whose maximum edge weight to the tree's current members is
// smallest. Properties (Section 3.1): O(N²) edge-weight evaluations,
// perfectly balanced partitions (at most ⌈N/M⌉ buckets per disk), and a very
// low likelihood that a bucket shares a disk with its closest companion.
//
// Decluster runs on the pairwise-weight engine (see engine.go); the
// assignment is byte-identical to the textbook serial loops. A Weight other
// than nil, ProximityWeight or EuclideanWeight is called once per pair.
type Minimax struct {
	// Weight is the edge weight; nil means ProximityWeight.
	Weight Weight
	// WeightName qualifies Name() for non-default weights.
	WeightName string
	// Seed drives the random seeding phase.
	Seed int64
}

// Name implements Allocator.
func (m *Minimax) Name() string {
	if m.WeightName != "" {
		return "MiniMax(" + m.WeightName + ")"
	}
	return "MiniMax"
}

// Decluster implements Allocator.
func (m *Minimax) Decluster(g Grid, disks int) (Allocation, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, err
	}
	n := len(g.Buckets)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	if disks >= n {
		// Degenerate case: every bucket gets its own disk.
		for i := range assign {
			assign[i] = i
		}
		return Allocation{Disks: disks, Assign: assign}, nil
	}

	// Phase 1: random seeding with M mutually distinct vertices.
	rng := rand.New(rand.NewSource(m.Seed))
	seeds := permPrefix(rng, n, disks)
	for k, v := range seeds {
		assign[v] = k
	}

	// Phase 2: round-robin expansion. The selection arg-min for the next
	// tree in the round-robin order is maintained incrementally: it is
	// computed during the update sweep of the current tree (which must touch
	// every unassigned vertex anyway), so each step costs one O(N) sweep
	// instead of two.
	e := NewPairEngine(g, m.Weight)
	act := newActiveSet(assign)
	// maxTo[k*n+x] is MAX_x(k), laid out row-major per tree so each step's
	// sweep walks two contiguous rows.
	maxTo := make([]float64, disks*n)
	bestX, _ := e.initRows(seeds, act.list, maxTo, 0)
	k := 0
	for {
		assign[bestX] = k
		act.remove(bestX)
		if len(act.list) == 0 {
			return Allocation{Disks: disks, Assign: assign}, nil
		}
		next := k + 1
		if next == disks {
			next = 0
		}
		// Update tree k's row against its new member while selecting the
		// arg-min of tree next's row. For disks == 1 the two rows coincide;
		// stepMinimax updates each entry before reading it, matching the
		// serial update-then-select order.
		bestX, _ = e.stepMinimax(bestX, act.list,
			maxTo[k*n:(k+1)*n], maxTo[next*n:(next+1)*n])
		k = next
	}
}
