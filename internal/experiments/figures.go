package experiments

import (
	"fmt"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
	"pgridfile/internal/workload"
)

// squareQueries wraps the workload generator (kept here so every experiment
// builds queries identically).
func squareQueries(dom geom.Rect, r float64, n int, seed int64) []geom.Rect {
	return workload.SquareRange(dom, r, n, seed)
}

// meanResponseRow replays the workload for one allocator across all disk
// counts and returns the mean response times (and, once, the optimal curve).
// A plain loop: fanning the disk counts out over goroutines measured under
// 1 s of 26 on `gridbench -exp all` once declustering was cheap (DESIGN S37).
func (l *Lab) meanResponseRow(b *built, alg core.Allocator, queries []geom.Rect) ([]float64, []float64, error) {
	rts := make([]float64, len(l.opts.Disks))
	opts := make([]float64, len(l.opts.Disks))
	for i, m := range l.opts.Disks {
		alloc, err := alg.Decluster(b.grid, m)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s, M=%d: %w", alg.Name(), b.ds.Name, m, err)
		}
		res, err := sim.ReplaySource(b.src, alloc, b.indexByID, queries)
		if err != nil {
			return nil, nil, err
		}
		rts[i], opts[i] = res.MeanResponseTime, res.MeanOptimal
	}
	return rts, opts, nil
}

// responseTable is the lab's standard artifact: one row of mean response
// times per allocator across the disk sweep, closed by the optimal curve
// (a property of the queries, so the last allocator's replay supplies it).
func (l *Lab) responseTable(title, label string, b *built, algs []core.Allocator, queries []geom.Rect) (*stats.Table, error) {
	t := stats.NewTable(title, append([]string{label}, fmtDisks(l.opts.Disks)...)...)
	var optimal []float64
	for _, alg := range algs {
		rts, opts, err := l.meanResponseRow(b, alg, queries)
		if err != nil {
			return nil, err
		}
		addSeriesRow(t, alg.Name(), rts)
		optimal = opts
	}
	addSeriesRow(t, "optimal", optimal)
	return t, nil
}

// allocationTable tabulates one figure of each allocator's allocation across
// the disk sweep: the balance degree, or the co-located closest pairs.
func (l *Lab) allocationTable(title string, g core.Grid, algs []core.Allocator, figure func(core.Allocation) any) (*stats.Table, error) {
	t := stats.NewTable(title, append([]string{"method"}, fmtDisks(l.opts.Disks)...)...)
	for _, alg := range algs {
		cells := make([]any, 0, len(l.opts.Disks)+1)
		cells = append(cells, alg.Name())
		for _, m := range l.opts.Disks {
			alloc, err := alg.Decluster(g, m)
			if err != nil {
				return nil, err
			}
			cells = append(cells, figure(alloc))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// indexBased builds the named index-based schemes, conflicts resolved by
// data balance (the paper's recommended heuristic).
func (l *Lab) indexBased(schemes ...string) ([]core.Allocator, error) {
	algs := make([]core.Allocator, len(schemes))
	for i, scheme := range schemes {
		alg, err := core.NewIndexBased(scheme, "D", l.opts.Seed)
		if err != nil {
			return nil, err
		}
		algs[i] = alg
	}
	return algs, nil
}

// addSeriesRow appends a labelled series of float values to a table.
func addSeriesRow(t *stats.Table, label string, series []float64) {
	cells := make([]any, 0, len(series)+1)
	cells = append(cells, label)
	for _, v := range series {
		cells = append(cells, v)
	}
	t.AddRow(cells...)
}

// Figure2 reports the structure of the three 2-D sample grid files: total
// subspaces, buckets and how many buckets consist of merged subspaces
// (the paper's Figure 2 shows the grids; the quoted statistics are the
// reproducible content).
func (l *Lab) Figure2() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Figure 2 — sample grid files (structure statistics)",
		"dataset", "records", "subspaces", "buckets", "merged buckets", "grid")
	for _, name := range []string{"uniform.2d", "hot.2d", "correl.2d"} {
		b, err := l.dataset(name)
		if err != nil {
			return nil, err
		}
		st := b.file.Stats()
		t.AddRow(name, st.Records, st.Cells, st.Buckets, st.MergedBuckets,
			fmt.Sprintf("%v", st.CellsPerDim))
	}
	return []*stats.Table{t}, nil
}

// Figure3 compares the four conflict-resolution heuristics on hot.2d with
// r = 0.05, for HCAM (insensitive to the heuristic) and FX (the most
// sensitive scheme), as in the paper's two panels.
func (l *Lab) Figure3() ([]*stats.Table, error) {
	b, err := l.dataset("hot.2d")
	if err != nil {
		return nil, err
	}
	queries := l.queriesFor(b.grid.Domain, 0.05)

	var out []*stats.Table
	for _, scheme := range []string{"HCAM", "FX"} {
		lineup, err := core.ResolverLineup(scheme, l.opts.Seed)
		if err != nil {
			return nil, err
		}
		t, err := l.responseTable(
			fmt.Sprintf("Figure 3 — conflict resolution for %s on hot.2d (r=0.05, mean response time in buckets)", scheme),
			"heuristic", b, lineup, queries)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure4 compares DM/D, FX/D and HCAM/D against the optimal response time
// on the three 2-D datasets with r = 0.05.
func (l *Lab) Figure4() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"uniform.2d", "hot.2d", "correl.2d"} {
		b, err := l.dataset(name)
		if err != nil {
			return nil, err
		}
		t, err := l.responseTable(
			fmt.Sprintf("Figure 4 — declustering algorithms on %s (r=0.05, mean response time in buckets)", name),
			"method", b, core.Figure4Lineup(l.opts.Seed), l.queriesFor(b.grid.Domain, 0.05))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure5 summarizes the spatial distribution of the two 3-D datasets: a
// histogram of particle population per coarse spatial slab for DSMC.3d, and
// the per-stock price-band structure for stock.3d.
func (l *Lab) Figure5() ([]*stats.Table, error) {
	dsmc, err := l.dataset("DSMC.3d")
	if err != nil {
		return nil, err
	}
	t1 := stats.NewTable(
		"Figure 5 (left) — DSMC.3d particle population per x-slab (16 slabs)",
		"slab", "x-range", "particles", "bar")
	xs := make([]float64, 0, len(dsmc.ds.Records))
	for _, r := range dsmc.ds.Records {
		xs = append(xs, r.Key[0])
	}
	h := stats.NewHistogram(xs, dsmc.grid.Domain[0].Lo, dsmc.grid.Domain[0].Hi, 16)
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	step := (h.Hi - h.Lo) / 16
	for i, c := range h.Counts {
		bar := ""
		if maxC > 0 {
			for k := 0; k < c*40/maxC; k++ {
				bar += "#"
			}
		}
		t1.AddRow(i, fmt.Sprintf("[%.0f,%.0f)", h.Lo+float64(i)*step, h.Lo+float64(i+1)*step), c, bar)
	}

	stock, err := l.dataset("stock.3d")
	if err != nil {
		return nil, err
	}
	t2 := stats.NewTable(
		"Figure 5 (right) — stock.3d id×price structure (sampled stocks)",
		"stock id", "min price", "max price", "band width", "global price range")
	// Sample every 48th stock to keep the table small while showing that
	// each stock occupies a narrow band of the global price range.
	perStock := map[int][2]float64{}
	globalLo, globalHi := stock.grid.Domain[1].Hi, stock.grid.Domain[1].Lo
	for _, r := range stock.ds.Records {
		id := int(r.Key[0])
		p := r.Key[1]
		band, ok := perStock[id]
		if !ok {
			band = [2]float64{p, p}
		}
		if p < band[0] {
			band[0] = p
		}
		if p > band[1] {
			band[1] = p
		}
		perStock[id] = band
		if p < globalLo {
			globalLo = p
		}
		if p > globalHi {
			globalHi = p
		}
	}
	for id := 0; id < len(perStock); id += 48 {
		band, ok := perStock[id]
		if !ok {
			continue
		}
		t2.AddRow(id, band[0], band[1], band[1]-band[0],
			fmt.Sprintf("[%.1f,%.1f]", globalLo, globalHi))
	}
	return []*stats.Table{t1, t2}, nil
}

// Figure6 compares all five algorithms (DM/D, FX/D, HCAM/D, SSP, MiniMax)
// on hot.2d, DSMC.3d and stock.3d with r = 0.01.
func (l *Lab) Figure6() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"hot.2d", "DSMC.3d", "stock.3d"} {
		b, err := l.dataset(name)
		if err != nil {
			return nil, err
		}
		t, err := l.responseTable(
			fmt.Sprintf("Figure 6 — all algorithms on %s (r=0.01, mean response time in buckets)", name),
			"method", b, core.Figure6Lineup(l.opts.Seed), l.queriesFor(b.grid.Domain, 0.01))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure7 shows the effect of query size on stock.3d: response time and
// speedup (normalized to four disks) for HCAM/D and MiniMax across
// r ∈ {0.01, 0.05, 0.1}.
func (l *Lab) Figure7() ([]*stats.Table, error) {
	b, err := l.dataset("stock.3d")
	if err != nil {
		return nil, err
	}
	algs, err := l.indexBased("HCAM")
	if err != nil {
		return nil, err
	}
	algs = append(algs, &core.Minimax{Seed: l.opts.Seed})

	rt := stats.NewTable(
		"Figure 7 (left) — response time vs query size on stock.3d",
		append([]string{"method, r"}, fmtDisks(l.opts.Disks)...)...)
	sp := stats.NewTable(
		"Figure 7 (right) — speedup over 4 disks vs query size on stock.3d",
		append([]string{"method, r"}, fmtDisks(l.opts.Disks)...)...)

	for _, r := range []float64{0.01, 0.05, 0.1} {
		queries := l.queriesFor(b.grid.Domain, r)
		for _, alg := range algs {
			rts, _, err := l.meanResponseRow(b, alg, queries)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s, r=%.2f", alg.Name(), r)
			addSeriesRow(rt, label, rts)
			base := rts[0]
			speedups := make([]float64, len(rts))
			for i, v := range rts {
				speedups[i] = sim.Speedup(base, v)
			}
			addSeriesRow(sp, label, speedups)
		}
	}
	return []*stats.Table{rt, sp}, nil
}
