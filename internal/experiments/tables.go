package experiments

import (
	"pgridfile/internal/core"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
)

// balanceDegree is allocationTable's figure for the data-balance tables.
func balanceDegree(a core.Allocation) any { return sim.DataBalanceDegree(a) }

// Table1 reports the degree of data balance (B_max × M / B_sum) achieved by
// DM/D, FX/D and HCAM/D on hot.2d across the disk sweep.
func (l *Lab) Table1() ([]*stats.Table, error) {
	b, err := l.dataset("hot.2d")
	if err != nil {
		return nil, err
	}
	// MiniMax achieves the ⌈N/M⌉ bound by construction; include it as the
	// reference floor.
	algs := append(core.Figure4Lineup(l.opts.Seed), &core.Minimax{Seed: l.opts.Seed})
	t, err := l.allocationTable(
		"Table 1 — degree of data balance on hot.2d (1.00 = perfect)",
		b.grid, algs, balanceDegree)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// closestPairsTable tabulates the number of closest bucket pairs (each
// bucket and its nearest companion by proximity index) mapped to the same
// disk, per algorithm and disk count.
func (l *Lab) closestPairsTable(title string, b *built, algs []core.Allocator) (*stats.Table, error) {
	if b.nn == nil {
		b.nn = sim.NearestCompanions(b.grid)
	}
	return l.allocationTable(title, b.grid, algs, func(a core.Allocation) any {
		return sim.CountSameDisk(b.nn, a)
	})
}

// closestPairs builds Tables 2/3 for a dataset.
func (l *Lab) closestPairs(dataset, title string) ([]*stats.Table, error) {
	b, err := l.dataset(dataset)
	if err != nil {
		return nil, err
	}
	t, err := l.closestPairsTable(title, b, core.Figure6Lineup(l.opts.Seed))
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// Table2 is the closest-pairs table for DSMC.3d.
func (l *Lab) Table2() ([]*stats.Table, error) {
	return l.closestPairs("DSMC.3d",
		"Table 2 — closest pairs assigned to the same disk: DSMC.3d")
}

// Table3 is the closest-pairs table for stock.3d.
func (l *Lab) Table3() ([]*stats.Table, error) {
	return l.closestPairs("stock.3d",
		"Table 3 — closest pairs assigned to the same disk: stock.3d")
}

// AblationCurves (A1) swaps the Hilbert curve for Z-order and Gray-code
// linearizations inside curve allocation on hot.2d, isolating how much of
// HCAM's quality comes from the Hilbert curve's clustering.
func (l *Lab) AblationCurves() ([]*stats.Table, error) {
	b, err := l.dataset("hot.2d")
	if err != nil {
		return nil, err
	}
	algs, err := l.indexBased("HCAM", "ZCAM", "GrayCAM")
	if err != nil {
		return nil, err
	}
	t, err := l.responseTable(
		"Ablation A1 — linearization curve inside curve allocation, hot.2d (r=0.05)",
		"method", b, algs, l.queriesFor(b.grid.Domain, 0.05))
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// AblationMinimaxVsMST (A2) contrasts minimax's round-robin min-of-max
// growth with MST's greedy min-of-min growth on DSMC.3d: response time and
// balance degree side by side.
func (l *Lab) AblationMinimaxVsMST() ([]*stats.Table, error) {
	b, err := l.dataset("DSMC.3d")
	if err != nil {
		return nil, err
	}
	queries := l.queriesFor(b.grid.Domain, 0.01)
	algs := []core.Allocator{
		&core.Minimax{Seed: l.opts.Seed},
		&core.MST{Seed: l.opts.Seed},
		&core.SSP{Seed: l.opts.Seed},
	}
	rt := stats.NewTable(
		"Ablation A2 — tree-growth policy on DSMC.3d (r=0.01): mean response time",
		append([]string{"method"}, fmtDisks(l.opts.Disks)...)...)
	for _, alg := range algs {
		rts, _, err := l.meanResponseRow(b, alg, queries)
		if err != nil {
			return nil, err
		}
		addSeriesRow(rt, alg.Name(), rts)
	}
	bal, err := l.allocationTable(
		"Ablation A2 — tree-growth policy on DSMC.3d: degree of data balance",
		b.grid, algs, balanceDegree)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{rt, bal}, nil
}

// AblationEdgeWeight (A3) compares the proximity index against normalized
// Euclidean center distance as minimax's edge weight on stock.3d.
func (l *Lab) AblationEdgeWeight() ([]*stats.Table, error) {
	b, err := l.dataset("stock.3d")
	if err != nil {
		return nil, err
	}
	queries := l.queriesFor(b.grid.Domain, 0.01)
	algs := []core.Allocator{
		&core.Minimax{Seed: l.opts.Seed},
		&core.Minimax{Euclid: true, Seed: l.opts.Seed},
	}
	rt := stats.NewTable(
		"Ablation A3 — minimax edge weight on stock.3d (r=0.01): mean response time",
		append([]string{"method"}, fmtDisks(l.opts.Disks)...)...)
	for _, alg := range algs {
		rts, _, err := l.meanResponseRow(b, alg, queries)
		if err != nil {
			return nil, err
		}
		addSeriesRow(rt, alg.Name(), rts)
	}
	cp, err := l.closestPairsTable(
		"Ablation A3 — minimax edge weight on stock.3d: closest pairs on same disk",
		b, algs)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{rt, cp}, nil
}
