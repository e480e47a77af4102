package core

import "fmt"

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
// The algorithm is the minimax round-robin expansion of minimax.go with two
// changes: the per-disk rows are seeded from the EXISTING copies instead of
// from fresh random seeds (so level r sees levels 0..r−1), and each disk's
// selection skips buckets it already owns. Selection ties break to the
// lowest bucket index and the row maintenance runs on the pairwise-weight
// engine.

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
// edge weight; owners must satisfy ResidualAssign's argument contract.
func residualOn(e *PairEngine, disks int, owners [][]int) []int {
	n := e.n
	rows := e.newRows(disks)
	e.initResidualRows(owners, rows)

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	quota := (n + disks - 1) / disks
	loads := make([]int, disks)

	// Round-robin expansion under the distinct-disk constraint. A disk at
	// quota, or with no eligible bucket left, passes its turn; when a full
	// cycle makes no progress the quota is relaxed for the leftover pass.
	remaining := n
	stalled := 0
	for k := 0; remaining > 0 && stalled < disks; k = (k + 1) % disks {
		if loads[k] >= quota {
			stalled++
			continue
		}
		row := rows[k]
		best, _ := e.argminRow(row, owners, k)
		if best < 0 {
			stalled++
			continue
		}
		stalled = 0
		assign[best] = k
		loads[k]++
		e.remove(best)
		remaining--
		if remaining > 0 {
			e.maxInto(best, row)
		}
	}

	// Leftover pass: the distinct-disk constraint starved the round-robin.
	// Assign the stragglers in index order to their least-loaded eligible
	// disk (ties to the lowest disk index) with the quota relaxed.
	if remaining > 0 {
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
	}
	return assign
}

func ownedBy(owners []int, disk int) bool {
	for _, k := range owners {
		if k == disk {
			return true
		}
	}
	return false
}
