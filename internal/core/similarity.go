package core

import "math/rand"

// SSP is the short spanning path algorithm of Fang, Lee and Chang,
// reconstructed as described in DESIGN.md: a spanning path is grown greedily
// by repeatedly stepping to the unvisited bucket most similar to the path's
// current endpoint (the nearest-neighbour heuristic for short spanning
// paths), and disks are assigned round-robin along the path so that
// neighbouring — hence similar — buckets land on different disks. Cost is
// O(N²) edge-weight evaluations at worst (under the proximity index the
// engine skips the blocks of buckets too far to be the nearest). Partitions
// are balanced to within one bucket, but unlike minimax the path heuristic
// bounds only each bucket's similarity to its path predecessor, not to the
// whole partition.
//
// Runs on the pairwise-weight engine.
type SSP struct {
	// Seed selects the path's starting bucket.
	Seed int64
}

// Name implements Allocator.
func (s *SSP) Name() string { return "SSP" }

// Decluster implements Allocator.
func (s *SSP) Decluster(g Grid, disks int) (Allocation, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, err
	}
	return s.declusterOn(NewPairEngine(g, false), disks), nil
}

// declusterOn grows the path on e, whose kernel is the edge weight.
func (s *SSP) declusterOn(e *PairEngine, disks int) Allocation {
	n := e.n
	rng := rand.New(rand.NewSource(s.Seed))
	start := rng.Intn(n)

	order := make([]int, 0, n)
	order = append(order, start)

	e.remove(int32(start))
	cur := int32(start)
	for e.active > 0 {
		best, _ := e.argmaxTo(cur)
		e.remove(best)
		order = append(order, int(best))
		cur = best
	}

	assign := make([]int, n)
	for pos, v := range order {
		assign[v] = pos % disks
	}
	return Allocation{Disks: disks, Assign: assign}
}

// MST is the minimal-spanning-tree-based declustering of Fang et al.,
// reconstructed as the direct greedy analogue of minimax: M trees are seeded
// randomly and, at every step, the globally cheapest tree/vertex pair — the
// unassigned bucket with the smallest *minimum* edge weight to some tree
// (Prim's criterion) — is joined to that tree. Because growth is greedy
// rather than round-robin, a tree sitting in a sparse region can absorb many
// buckets: MST does not guarantee balanced partitions, the drawback the
// paper cites. Cost is O(N²·M).
//
// Runs on the pairwise-weight engine.
type MST struct {
	// Seed drives the random seeding phase.
	Seed int64
}

// Name implements Allocator.
func (m *MST) Name() string { return "MST" }

// Decluster implements Allocator.
func (m *MST) Decluster(g Grid, disks int) (Allocation, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, err
	}
	n := len(g.Buckets)
	if disks >= n {
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i
		}
		return Allocation{Disks: disks, Assign: assign}, nil
	}
	return m.declusterOn(NewPairEngine(g, false), disks), nil
}

// declusterOn grows the trees on e, whose kernel is the edge weight.
// Requires disks < e.n.
func (m *MST) declusterOn(e *PairEngine, disks int) Allocation {
	n := e.n
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	rng := rand.New(rand.NewSource(m.Seed))
	seeds := permPrefix(rng, n, disks)
	for k, v := range seeds {
		assign[v] = k
	}

	// Greedy expansion with per-tree cached arg-mins: each step picks the
	// globally cheapest cached (value, x, k) triple, min-merges only the
	// winning tree's row against its new member (recomputing that cached
	// arg-min in the same sweep), and rescans — without any weight
	// evaluations — the rows of trees whose cached arg-min was the vertex
	// just removed. The textbook loop rescans every tree's full row each step.
	for _, v := range seeds {
		e.remove(int32(v))
	}
	// minTo's row k holds Prim's frontier value of every vertex for tree k,
	// starting at the weights to seed k.
	minTo := e.newRows(disks)
	for k, v := range seeds {
		e.maxInto(int32(v), minTo[k])
	}
	argmin := func(k int) (int32, float64) { return e.argminRow(minTo[k], nil, 0) }
	bestXk := make([]int32, disks)
	bestVk := make([]float64, disks)
	for k := range bestXk {
		bestXk[k], bestVk[k] = argmin(k)
	}
	for {
		// Global pick over the cached per-tree arg-mins, lexicographic on
		// (value, vertex, tree) — the order the serial x-outer/k-inner scan
		// with strict < discovers minima in.
		bestK := 0
		for k := 1; k < disks; k++ {
			if bestVk[k] < bestVk[bestK] ||
				(bestVk[k] == bestVk[bestK] && bestXk[k] < bestXk[bestK]) {
				bestK = k
			}
		}
		bestX := bestXk[bestK]
		assign[bestX] = bestK
		e.remove(bestX)
		if e.active == 0 {
			return Allocation{Disks: disks, Assign: assign}
		}
		bestXk[bestK], bestVk[bestK] = e.stepMST(bestX, minTo[bestK])
		// Other trees' rows are unchanged and the active set only shrank, so
		// their cached arg-mins stay valid unless they pointed at bestX.
		for k := 0; k < disks; k++ {
			if k != bestK && bestXk[k] == bestX {
				bestXk[k], bestVk[k] = argmin(k)
			}
		}
	}
}
