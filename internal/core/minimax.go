package core

import "math/rand"

// Minimax is Algorithm 2: the minimax spanning tree declustering algorithm.
// M spanning trees are seeded with random distinct buckets and grown in
// round-robin order; the tree whose turn it is receives the unassigned
// bucket whose maximum edge weight to the tree's current members is
// smallest. Properties (Section 3.1): O(N²) edge-weight evaluations,
// perfectly balanced partitions (at most ⌈N/M⌉ buckets per disk), and a very
// low likelihood that a bucket shares a disk with its closest companion.
//
// Decluster is the random seeding followed by residual allocation's
// round-robin expansion (residual.go) from the seeds, with no owner to
// avoid: minimax is residual allocation from an empty start. It runs on the
// pairwise-weight engine (see engine.go); the assignment is byte-identical
// to the textbook serial loops. Under the proximity index the N²/2
// evaluations are the worst case, not the cost: a step bounds the new
// member's weight to each super-block of 512 buckets, then to the 32-bucket
// blocks of those where the bound could raise MAX_x(k), and weighs only the
// blocks where it still could — measured, 0.57 M bounds and 1.3 M weights
// where the textbook loop takes 53 M weights (hot.2d, N = 10 209, M = 8),
// 1.09 M and 2.9 M where it takes 134 M (128×128 grid, M = 16). Seeding is
// the same sweep from a zero row, which enters every block: M bounds per
// block and super-block.
// Euclidean centre distance has no such bound and is evaluated once per pair.
type Minimax struct {
	// Euclid makes normalized Euclidean centre distance the edge weight in
	// place of the proximity index: the edge-weight ablation (A3 in
	// DESIGN.md), which the paper rejects because centre distance cannot
	// tell partially overlapping regions apart.
	Euclid bool
	// Seed drives the random seeding phase.
	Seed int64
}

// Name implements Allocator; the Euclidean weight is named, the proximity
// index is not.
func (m *Minimax) Name() string {
	if m.Euclid {
		return "MiniMax(euclid)"
	}
	return "MiniMax"
}

// Decluster implements Allocator.
func (m *Minimax) Decluster(g Grid, disks int) (Allocation, error) {
	a, _, err := m.decluster(g, disks)
	return a, err
}

// decluster is Decluster, also reporting the kernel evaluations it cost.
func (m *Minimax) decluster(g Grid, disks int) (Allocation, work, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, work{}, err
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
		return Allocation{Disks: disks, Assign: assign}, work{}, nil
	}

	// Phase 1: random seeding with M mutually distinct vertices.
	rng := rand.New(rand.NewSource(m.Seed))
	seeds := permPrefix(rng, n, disks)
	for k, v := range seeds {
		assign[v] = k
	}

	// Phase 2: the round-robin expansion (residual.go) from rows holding
	// each seed's weights. No bucket has an owner to avoid, and a disk takes
	// at most ⌈(N−M)/M⌉ < ⌈N/M⌉ buckets, so the quota never binds.
	e := NewPairEngine(g, m.Euclid)
	for _, v := range seeds {
		e.remove(int32(v))
	}
	rows := e.newRows(disks)
	for k, v := range seeds {
		e.maxInto(int32(v), rows[k])
	}
	e.expand(rows, nil, assign)
	return Allocation{Disks: disks, Assign: assign}, e.work, nil
}
