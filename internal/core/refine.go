package core

import (
	"fmt"
	"math/rand"

	"pgridfile/internal/geom"
)

// Refine is a workload-aware declustering refinement: it starts from a base
// allocation (minimax by default) and hill-climbs on the exact
// response-time objective evaluated over a sample query workload —
// Σ_q max_d N_d(q) — moving one bucket at a time while preserving the
// ⌈N/M⌉ balance bound. This explores the paper's closing observation that
// minimax's distributions are "probably quite close to the optimal
// distribution": Refine quantifies how much a direct workload-driven search
// can still recover.
//
// The refined allocation is tuned to the *sample* workload; evaluating it
// on an independently drawn workload (as ablation-refine does) measures
// generalization rather than memorization.
type Refine struct {
	// Base produces the initial allocation; nil means Minimax.
	Base Allocator
	// Queries is the training workload. Required.
	Queries []geom.Rect
	// Seed drives tie-breaking and the bucket visit order.
	Seed int64
}

// refinePasses bounds Refine's hill-climbing sweeps over the buckets.
const refinePasses = 16

// Name implements Allocator.
func (r *Refine) Name() string {
	base := r.Base
	if base == nil {
		base = &Minimax{}
	}
	return "Refine(" + base.Name() + ")"
}

// Decluster implements Allocator.
func (r *Refine) Decluster(g Grid, disks int) (Allocation, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, err
	}
	if len(r.Queries) == 0 {
		return Allocation{}, fmt.Errorf("core: Refine needs a training workload")
	}
	base := r.Base
	if base == nil {
		base = &Minimax{Seed: r.Seed}
	}
	alloc, err := base.Decluster(g, disks)
	if err != nil {
		return Allocation{}, err
	}
	n := len(g.Buckets)
	if disks >= n {
		return alloc, nil // every bucket on its own disk: nothing to improve
	}

	// Incidence lists: which buckets each training query touches.
	incidence := make([][]int32, 0, len(r.Queries))
	touchedBy := make([][]int32, n) // bucket -> query ids
	for qi, q := range r.Queries {
		var hit []int32
		for i := range g.Buckets {
			if g.Buckets[i].Region.Intersects(q) {
				hit = append(hit, int32(i))
				touchedBy[i] = append(touchedBy[i], int32(qi))
			}
		}
		incidence = append(incidence, hit)
	}

	// Per-query per-disk counts and current maxima.
	counts := make([][]int32, len(r.Queries))
	maxOf := make([]int32, len(r.Queries))
	for qi, hit := range incidence {
		c := make([]int32, disks)
		for _, b := range hit {
			c[alloc.Assign[b]]++
		}
		counts[qi] = c
		maxOf[qi] = maxInt32(c)
	}
	loads := make([]int, disks)
	for _, d := range alloc.Assign {
		loads[d]++
	}
	ceil := (n + disks - 1) / disks

	// moveDelta computes the objective change of moving bucket b to disk
	// to, without applying it.
	moveDelta := func(b int, to int) int64 {
		from := alloc.Assign[b]
		var delta int64
		for _, qi := range touchedBy[b] {
			c := counts[qi]
			oldMax := maxOf[qi]
			c[from]--
			c[to]++
			newMax := maxInt32(c)
			c[from]++
			c[to]--
			delta += int64(newMax - oldMax)
		}
		return delta
	}
	apply := func(b int, to int) {
		from := alloc.Assign[b]
		for _, qi := range touchedBy[b] {
			c := counts[qi]
			c[from]--
			c[to]++
			maxOf[qi] = maxInt32(c)
		}
		loads[from]--
		loads[to]++
		alloc.Assign[b] = to
	}

	rng := rand.New(rand.NewSource(r.Seed))
	order := rng.Perm(n)
	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		for _, b := range order {
			from := alloc.Assign[b]
			bestTo, bestDelta := -1, int64(0)
			for to := 0; to < disks; to++ {
				if to == from || loads[to] >= ceil {
					continue
				}
				if d := moveDelta(b, to); d < bestDelta {
					bestTo, bestDelta = to, d
				}
			}
			if bestTo >= 0 {
				apply(b, bestTo)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return alloc, nil
}

func maxInt32(s []int32) int32 {
	var m int32
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}
