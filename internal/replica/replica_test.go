package replica

import (
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/synth"
)

func placeFixture(t *testing.T, disks int) (core.Grid, core.Allocation) {
	t.Helper()
	f, err := synth.Hotspot2D(2000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	base, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	return g, base
}

// TestPlaceOwnersDistinct proves the structural invariants at r=3 over 4
// disks: owner 0 is the base assignment, all owners are distinct and in
// range, and every disk's total load stays near n*r/disks.
func TestPlaceOwnersDistinct(t *testing.T) {
	const disks, r = 4, 3
	g, base := placeFixture(t, disks)
	m, err := (&Placer{Replicas: r}).Place(g, base)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Assign)
	if err := m.Validate(n); err != nil {
		t.Fatal(err)
	}
	if m.Disks != disks || m.Replicas != r {
		t.Fatalf("map is %d disks × %d replicas, want %d × %d", m.Disks, m.Replicas, disks, r)
	}
	for x, own := range m.Owners {
		if own[0] != base.Assign[x] {
			t.Fatalf("bucket %d: primary %d, base assigned %d", x, own[0], base.Assign[x])
		}
	}
	quota := (n + disks - 1) / disks
	loads := make([]int, disks) // bucket copies per disk across all levels
	for _, own := range m.Owners {
		for _, k := range own {
			loads[k]++
		}
	}
	for d, l := range loads {
		if l > r*quota+disks {
			t.Fatalf("disk %d holds %d copies, per-level quota %d × %d levels", d, l, quota, r)
		}
	}
}

// TestPlaceSingleReplicaMirrorsBase: r=1 must reproduce the base allocation
// exactly — replication off is not a special case for callers.
func TestPlaceSingleReplicaMirrorsBase(t *testing.T) {
	g, base := placeFixture(t, 4)
	m, err := (&Placer{Replicas: 1}).Place(g, base)
	if err != nil {
		t.Fatal(err)
	}
	for x, own := range m.Owners {
		if len(own) != 1 || own[0] != base.Assign[x] {
			t.Fatalf("bucket %d: owners %v, want [%d]", x, own, base.Assign[x])
		}
	}
}

// TestPlaceRejectsBadReplicas pins the argument contract: r must be in
// [1, disks].
func TestPlaceRejectsBadReplicas(t *testing.T) {
	g, base := placeFixture(t, 4)
	if _, err := (&Placer{Replicas: 0}).Place(g, base); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := (&Placer{Replicas: 5}).Place(g, base); err == nil {
		t.Error("r=5 over 4 disks accepted — cannot place distinct copies")
	}
}
