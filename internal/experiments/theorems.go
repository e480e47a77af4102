package experiments

import (
	"fmt"

	"pgridfile/internal/analytic"
	"pgridfile/internal/core"
	"pgridfile/internal/stats"
)

// saturationDisks returns the sum spread: the M beyond which DM's response
// for the window cannot improve.
func saturationDisks(sides []int) int {
	spread := 1
	for _, w := range sides {
		spread += w - 1
	}
	return spread
}

// Theorem1 tabulates disk modulo's closed-form response time against the
// brute-force enumeration and the optimal curve for an l×l query,
// demonstrating the saturation behaviour the theorem proves: beyond M = l
// the response time is pinned at l.
func (l *Lab) Theorem1() ([]*stats.Table, error) {
	// The paper's r=0.05 queries on the uniform 2-D grid span roughly
	// 22% of each axis; with a ~16-cell axis that is a 4-cell window.
	// Present several l values to show the threshold moving with query
	// size ("the position of the threshold depended on the size of the
	// query").
	var out []*stats.Table
	for _, side := range []int{4, 6, 10} {
		t := stats.NewTable(
			fmt.Sprintf("Theorem 1 — DM response time for a %dx%d query", side, side),
			"disks", "closed form", "brute force", "optimal ceil(l^2/M)", "strictly optimal")
		for m := 2; m <= 3*side; m += 2 {
			t.AddRow(m,
				analytic.DMResponse(side, m),
				analytic.DMBruteForce(side, m),
				analytic.OptimalResponse(side, m),
				analytic.DMStrictlyOptimal(side, m))
		}
		out = append(out, t)
	}
	thr := stats.NewTable(
		"Theorem 1 — DM saturation threshold by query side",
		"query side l", "saturation threshold M*", "saturated response")
	for side := 2; side <= 16; side += 2 {
		m := analytic.DMSaturationThreshold(side)
		thr.AddRow(side, m, analytic.DMResponse(side, m))
	}
	out = append(out, thr)
	return out, nil
}

// HCAMScaling (experiment id "hcam-scaling") is the empirical counterpart
// of the analysis the paper reports as open: HCAM's expected response time
// on complete Cartesian grids as the number of disks grows, side by side
// with DM's and FX's closed-form/measured curves and the optimal. Two
// window sides are used — a power of two (FX's best case) and a prime.
func (l *Lab) HCAMScaling() ([]*stats.Table, error) {
	const gridSize = 64
	var out []*stats.Table
	for _, side := range []int{8, 13} {
		t := stats.NewTable(
			fmt.Sprintf("HCAM scaling (open analysis) — expected response, %dx%d windows on a %dx%d Cartesian grid",
				side, side, gridSize, gridSize),
			"disks", "DM", "FX", "HCAM", "optimal")
		for _, m := range []int{2, 4, 8, 16, 32, 64} {
			dm := float64(analytic.DMResponse(side, m))
			fx := analytic.WindowExpectedResponse(
				core.FX{}.CellDisks([]int{gridSize, gridSize}, m), gridSize, side, m)
			hcam := analytic.WindowExpectedResponse(
				core.HCAM().CellDisks([]int{gridSize, gridSize}, m), gridSize, side, m)
			t.AddRow(m, dm, fx, hcam, float64(side*side)/float64(m))
		}
		out = append(out, t)
	}
	return out, nil
}

// Theorem2 tabulates fieldwise xor's measured expected response time against
// the theorem's bounds for 2^m × 2^m queries over 2^n disks, including the
// 3/4 scaling floor of part (iii).
func (l *Lab) Theorem2() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Theorem 2 — FX expected response time vs bounds (2^m x 2^m query, M=2^n)",
		"m (query 2^m)", "n (disks 2^n)", "measured", "lower 2^(2m-n)", "upper 2^m", "ratio to prev n")
	for _, m := range []int{2, 3} {
		side := 1 << m
		prev := -1.0
		for n := 0; n <= m+3; n++ {
			disks := 1 << n
			grid := 4 * side * disks
			if grid > 256 {
				grid = 256
			}
			got := analytic.FXExpectedResponse(side, disks, grid)
			lo, hi := analytic.FXBounds(m, n)
			ratio := 0.0
			if prev > 0 {
				ratio = got / prev
			}
			t.AddRow(m, n, got, lo, hi, ratio)
			prev = got
		}
	}
	return []*stats.Table{t}, nil
}
