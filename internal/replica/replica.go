// Package replica places each bucket of a declustered grid file on r
// distinct disks. The primary copy comes from any registered allocator; each
// further level is chosen by re-running allocation on the residual problem
// (core.ResidualAssign), so secondary copies decluster well against
// everything already placed instead of merely landing on a different disk.
//
// Placement is deterministic: the same grid, base allocation and replica
// count give a byte-identical map — the property the layout tool and its
// tests rely on.
package replica

import (
	"fmt"

	"pgridfile/internal/core"
)

// Placer chooses r-way replica placements on top of a base allocation.
type Placer struct {
	// Replicas is the number of copies per bucket, r >= 1. 1 means no
	// replication: the map echoes the base allocation.
	Replicas int
}

// Map is an r-way replica placement: every bucket's ordered owner list.
// Owners[x][0] is the primary (the base allocation's disk); levels 1..r-1
// are the residual assignments, in placement order.
type Map struct {
	Disks    int
	Replicas int
	Owners   [][]int
}

// Place builds the replica map for g given a base allocation. Each level
// beyond the first is a residual allocation against all previously placed
// levels, so the distinct-disk constraint holds by construction.
func (p *Placer) Place(g core.Grid, base core.Allocation) (*Map, error) {
	r := p.Replicas
	if r < 1 {
		return nil, fmt.Errorf("replica: replicas must be >= 1, got %d", r)
	}
	if r > base.Disks {
		return nil, fmt.Errorf("replica: %d replicas need at least that many disks, got %d", r, base.Disks)
	}
	n := len(g.Buckets)
	if err := base.Validate(n); err != nil {
		return nil, err
	}

	owners := make([][]int, n)
	backing := make([]int, n*r)
	for x := range owners {
		owners[x] = backing[x*r : x*r+1 : x*r+r]
		owners[x][0] = base.Assign[x]
	}
	for level := 1; level < r; level++ {
		next, err := core.ResidualAssign(g, base.Disks, owners)
		if err != nil {
			return nil, fmt.Errorf("replica: level %d: %w", level, err)
		}
		for x := range owners {
			owners[x] = append(owners[x], next[x])
		}
	}
	return &Map{Disks: base.Disks, Replicas: r, Owners: owners}, nil
}

// Validate checks the map covers nBuckets buckets with r distinct in-range
// owners each.
func (m *Map) Validate(nBuckets int) error {
	if m.Disks < 1 {
		return fmt.Errorf("replica: map has %d disks", m.Disks)
	}
	if m.Replicas < 1 || m.Replicas > m.Disks {
		return fmt.Errorf("replica: map has %d replicas on %d disks", m.Replicas, m.Disks)
	}
	if len(m.Owners) != nBuckets {
		return fmt.Errorf("replica: map covers %d buckets, want %d", len(m.Owners), nBuckets)
	}
	for x, own := range m.Owners {
		if len(own) != m.Replicas {
			return fmt.Errorf("replica: bucket %d has %d owners, want %d", x, len(own), m.Replicas)
		}
		for i, k := range own {
			if k < 0 || k >= m.Disks {
				return fmt.Errorf("replica: bucket %d owner %d is disk %d of %d", x, i, k, m.Disks)
			}
			for j := 0; j < i; j++ {
				if own[j] == k {
					return fmt.Errorf("replica: bucket %d has disk %d twice", x, k)
				}
			}
		}
	}
	return nil
}
