package core

import (
	"fmt"
	"math/rand"
	"slices"
)

// This file implements residual allocation: declustering a grid a second (or
// r-th) time against the copies that already exist. It is the scoring core of
// the replica placer (internal/replica): given the owner disks every bucket
// already has, assign each bucket ONE more disk so that
//
//   - the new disk is distinct from all existing owners of that bucket
//     (a replica on the same spindle buys no availability),
//   - buckets that are spatially close to copies already on a disk avoid
//     that disk (minimax criterion over the pairwise weight), so the
//     secondary layout declusters well on its own, and
//   - the per-disk load of the new level stays balanced (at most ⌈N/M⌉
//     buckets per disk, relaxed only if the distinct-disk constraint forces
//     it).
//
// The algorithm is minimax's round-robin expansion, expand, started from the
// EXISTING copies instead of from random seeds (so level r sees levels
// 0..r−1), with each disk's selection skipping buckets it already owns.
// Minimax runs the same expand from its M seeds with no owners, where the
// quota never binds and no bucket is left over. Selection ties break to the
// lowest bucket index, and the rows are seeded and maintained by the
// pairwise-weight engine's one max-merge sweep, maxInto.

// ResidualAssign computes the next replica level: one additional disk per
// bucket, distinct from that bucket's existing owners. owners[x] lists the
// disks that already hold a copy of bucket x (at least one, all in
// [0, disks)); the returned slice has one new disk per bucket. The edge
// weight is the proximity index.
func ResidualAssign(g Grid, disks int, owners [][]int) ([]int, error) {
	assign, _, err := residualAssign(g, disks, owners)
	return assign, err
}

// residualAssign is ResidualAssign, also reporting the kernel evaluations it
// cost.
func residualAssign(g Grid, disks int, owners [][]int) ([]int, work, error) {
	if err := checkArgs(g, disks); err != nil {
		return nil, work{}, err
	}
	n := len(g.Buckets)
	if len(owners) != n {
		return nil, work{}, fmt.Errorf("core: residual owners cover %d buckets, want %d", len(owners), n)
	}
	for x, own := range owners {
		if len(own) == 0 {
			return nil, work{}, fmt.Errorf("core: bucket %d has no existing owner", x)
		}
		if len(own) >= disks {
			return nil, work{}, fmt.Errorf("core: bucket %d already owned by %d of %d disks", x, len(own), disks)
		}
		for _, k := range own {
			if k < 0 || k >= disks {
				return nil, work{}, fmt.Errorf("core: bucket %d owned by disk %d of %d", x, k, disks)
			}
		}
	}

	e := NewPairEngine(g, false)
	assign := residualOn(e, disks, owners)
	return assign, e.work, nil
}

// residualOn is the expansion of residualAssign on e, whose kernel is the
// edge weight; owners must satisfy ResidualAssign's argument contract. Disk
// k's row starts as the largest weight between each bucket and any bucket
// disk k already holds: every bucket is max-merged into its owners' rows, in
// a shuffled order (a max is order-independent) so that every row meets
// nearby buckets early wherever it is looked at, and the far ones are
// skipped.
func residualOn(e *PairEngine, disks int, owners [][]int) []int {
	rows := e.newRows(disks)
	var own []treeRow
	for _, y := range rand.New(rand.NewSource(1)).Perm(e.n) {
		own = own[:0]
		for _, k := range owners[y] {
			own = append(own, rows[k])
		}
		e.maxInto(int32(y), own...)
	}
	assign := make([]int, e.n)
	for i := range assign {
		assign[i] = -1
	}
	e.expand(rows, owners, assign)
	return assign
}

// expand is the round-robin expansion of minimax and of residual allocation:
// disk k's turn takes the active bucket with the smallest value in rows[k]
// that k does not own (owners nil: none is owned), assigns it to k in assign
// and max-merges its weights into the row. A disk at the ⌈N/M⌉ quota, or
// with no eligible bucket left, passes its turn; when a full cycle makes no
// progress the quota is relaxed for the leftover pass, which assigns the
// stragglers in index order to their least-loaded eligible disk (ties to the
// lowest disk index). The loads count this expansion's buckets only.
func (e *PairEngine) expand(rows []treeRow, owners [][]int, assign []int) {
	disks := len(rows)
	quota := (e.n + disks - 1) / disks
	loads := make([]int, disks)
	stalled := 0
	for k := 0; e.active > 0 && stalled < disks; k = (k + 1) % disks {
		if loads[k] >= quota {
			stalled++
			continue
		}
		best, _ := e.argminRow(rows[k], owners, k)
		if best < 0 {
			stalled++
			continue
		}
		stalled = 0
		assign[best] = k
		loads[k]++
		e.remove(best)
		if e.active > 0 {
			e.maxInto(best, rows[k])
		}
	}
	for x, a := range assign {
		if a >= 0 {
			continue
		}
		best := -1
		for k := 0; k < disks; k++ {
			if owns(owners, x, k) {
				continue
			}
			if best < 0 || loads[k] < loads[best] {
				best = k
			}
		}
		assign[x] = best
		loads[best]++
	}
}

// owns reports whether disk already holds a copy of bucket x; with owners
// nil no disk holds any.
func owns(owners [][]int, x, disk int) bool {
	return owners != nil && slices.Contains(owners[x], disk)
}
