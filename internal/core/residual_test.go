package core

import (
	"testing"

	"pgridfile/internal/synth"
)

func residualFixture(t *testing.T, disks int) (Grid, [][]int, int) {
	t.Helper()
	f, err := synth.Hotspot2D(2000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := FromGridFile(f)
	base, err := (&Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Assign)
	owners := make([][]int, n)
	for x := range owners {
		owners[x] = []int{base.Assign[x]}
	}
	return g, owners, n
}

// TestResidualAssignDistinctAndBalanced proves the residual level is a valid
// placement for a second copy: every bucket lands on a disk it does not
// already own, and the level's per-disk loads respect the ⌈n/disks⌉ quota
// (up to the leftover pass's relaxation).
func TestResidualAssignDistinctAndBalanced(t *testing.T) {
	const disks = 4
	g, owners, n := residualFixture(t, disks)
	assign, err := ResidualAssign(g, disks, owners)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != n {
		t.Fatalf("got %d assignments, want %d", len(assign), n)
	}
	quota := (n + disks - 1) / disks
	loads := make([]int, disks)
	for x, d := range assign {
		if d < 0 || d >= disks {
			t.Fatalf("bucket %d assigned to disk %d, want [0,%d)", x, d, disks)
		}
		if d == owners[x][0] {
			t.Fatalf("bucket %d: secondary copy on its own primary disk %d", x, d)
		}
		loads[d]++
	}
	for d, l := range loads {
		if l > quota+disks {
			t.Fatalf("disk %d holds %d secondaries, quota %d", d, l, quota)
		}
	}
}

// TestResidualAssignRejectsBadOwners pins the argument contract: owner lists
// must be present, in range, and leave at least one free disk per bucket.
func TestResidualAssignRejectsBadOwners(t *testing.T) {
	const disks = 2
	g, owners, _ := residualFixture(t, disks)

	saved := owners[0]
	owners[0] = nil
	if _, err := ResidualAssign(g, disks, owners); err == nil {
		t.Error("empty owner list accepted")
	}
	owners[0] = []int{0, 1}
	if _, err := ResidualAssign(g, disks, owners); err == nil {
		t.Error("fully-owned bucket accepted — no disk left for another copy")
	}
	owners[0] = []int{disks}
	if _, err := ResidualAssign(g, disks, owners); err == nil {
		t.Error("out-of-range owner accepted")
	}
	owners[0] = saved
	if _, err := ResidualAssign(g, disks, owners[:1]); err == nil {
		t.Error("short owners slice accepted")
	}
}
