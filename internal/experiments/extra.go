package experiments

import (
	"fmt"
	"math"

	"pgridfile/internal/analytic"
	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/parallel"
	"pgridfile/internal/rtree"
	"pgridfile/internal/stats"
	"pgridfile/internal/workload"
)

// PartialMatch (experiment id "pm") evaluates the declustering algorithms on
// partial-match workloads — the query class for which disk modulo was
// proven strictly optimal on Cartesian product files (Du and Sobolewski;
// discussed in Section 2). Each query specifies all attributes but one, so
// it touches a one-cell-wide slab of the grid. On the near-Cartesian
// uniform.2d grid file DM should track the optimal curve closely even at
// disk counts where it has long saturated for square range queries.
func (l *Lab) PartialMatch() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"uniform.2d", "hot.2d"} {
		b, err := l.dataset(name)
		if err != nil {
			return nil, err
		}
		pm := workload.PartialMatch(b.grid.Domain, 1, l.opts.Queries, l.opts.Seed+200)
		queries := make([]geom.Rect, len(pm))
		for i, vals := range pm {
			q := make(geom.Rect, len(vals))
			for d, v := range vals {
				if math.IsNaN(v) {
					q[d] = b.grid.Domain[d]
				} else {
					q[d] = geom.Interval{Lo: v, Hi: v}
				}
			}
			queries[i] = q
		}
		t, err := l.responseTable(
			fmt.Sprintf("Partial match — one unspecified attribute on %s (mean response time in buckets)", name),
			"method", b, core.Figure6Lineup(l.opts.Seed), queries)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AblationGDM (experiment id "ablation-gdm") compares plain disk modulo
// against the generalized disk modulo family with golden-ratio coefficients
// on uniform.2d square range queries: skewed coefficients break the
// anti-diagonal collisions that pin DM's response at the query side length,
// pushing the saturation threshold out.
func (l *Lab) AblationGDM() ([]*stats.Table, error) {
	b, err := l.dataset("uniform.2d")
	if err != nil {
		return nil, err
	}
	algs, err := l.indexBased("DM", "GDM")
	if err != nil {
		return nil, err
	}
	t, err := l.responseTable(
		"Ablation A4 — DM vs generalized DM (golden-ratio coefficients) on uniform.2d (r=0.05)",
		"method", b, algs, l.queriesFor(b.grid.Domain, 0.05))
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// Table6 (experiment id "tab6") extends the SP-2 experiments toward the
// configuration the paper's conclusion describes — 16 processors with seven
// disks each — by sweeping disks-per-node at a fixed node count on the
// random range-query workload (cold caches, r = 0.05).
func (l *Lab) Table6() ([]*stats.Table, error) {
	b, err := l.dataset("DSMC.4d")
	if err != nil {
		return nil, err
	}
	const workers = 16
	alloc, err := (&core.Minimax{Seed: l.opts.Seed}).Decluster(b.grid, workers)
	if err != nil {
		return nil, err
	}
	queries := workload.RandomRange4D(b.grid.Domain, 0.05, 100, l.opts.Seed+300)

	t := stats.NewTable(
		"Table 6 (extension) — disks per node at 16 nodes, random queries r=0.05, cold caches",
		"disks/node", "response (blocks fetched)", "comm (s)", "elapsed (s)")
	for _, dpn := range []int{1, 2, 4, 7} {
		disk := diskmodel.DefaultParams()
		disk.BlockBytes = b.ds.PageBytes
		disk.CacheBlocks = 0
		eng, err := parallel.New(b.file, alloc, parallel.Config{
			DisksPerWorker: dpn, Disk: disk, RecordBytes: b.ds.RecordBytes,
		})
		if err != nil {
			return nil, err
		}
		tot, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		t.AddRow(dpn, tot.ResponseBlocks, seconds(tot.Comm), seconds(tot.Elapsed))
	}
	return []*stats.Table{t}, nil
}

// Trace (experiment id "trace") runs the particle-tracing access pattern
// named in the paper's future work on the SPMD engine: a probe follows a
// drifting trajectory through the snapshot series, so consecutive queries
// overlap heavily. Compared against the same number of random queries of
// the same size, tracing should show far higher cache hit rates and lower
// elapsed time per block. Run on both DSMC.4d and the MHD.4d substitute
// (the two time-dependent simulations the paper's conclusion names).
func (l *Lab) Trace() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Trace (extension) — particle tracing vs random queries on the SPMD engine (16 nodes)",
		"dataset", "workload", "queries", "blocks", "hit rate", "elapsed (s)")
	const workers = 16
	for _, name := range []string{"DSMC.4d", "MHD.4d"} {
		b, err := l.dataset(name)
		if err != nil {
			return nil, err
		}
		alloc, err := (&core.Minimax{Seed: l.opts.Seed}).Decluster(b.grid, workers)
		if err != nil {
			return nil, err
		}
		disk := diskmodel.DefaultParams()
		disk.BlockBytes = b.ds.PageBytes
		eng, err := parallel.New(b.file, alloc, parallel.Config{Disk: disk, RecordBytes: b.ds.RecordBytes})
		if err != nil {
			return nil, err
		}
		steps := 4 * int(b.grid.Domain[0].Length())
		workloads := []struct {
			label   string
			queries []geom.Rect
		}{
			{"trace", workload.ParticleTrace(b.grid.Domain, 0.05, steps, l.opts.Seed+500)},
			{"random", workload.RandomRange4D(b.grid.Domain, 0.05, steps, l.opts.Seed+501)},
		}
		for _, w := range workloads {
			eng.DropCaches()
			tot, err := eng.Run(w.queries)
			if err != nil {
				return nil, err
			}
			hitRate := 0.0
			if tot.Blocks > 0 {
				hitRate = float64(tot.CacheHits) / float64(tot.Blocks)
			}
			t.AddRow(name, w.label, tot.Queries, tot.Blocks, hitRate, seconds(tot.Elapsed))
		}
	}
	return []*stats.Table{t}, nil
}

// RTree (experiment id "rtree") declusters the leaf pages of an STR-packed
// R-tree over stock.3d — the setting of Kamel and Faloutsos's parallel
// R-trees, from which the paper takes its proximity index — with the
// region-based algorithms (grid-based DM/FX/HCAM do not apply to a tree).
// The paper's grid-file ranking should carry over: minimax lowest response
// time and near-zero co-located closest pairs; the Hilbert-centroid
// round-robin (Kamel–Faloutsos's own scheme) competitive but behind.
func (l *Lab) RTree() ([]*stats.Table, error) {
	b, err := l.dataset("stock.3d")
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(b.ds.Records))
	for i, r := range b.ds.Records {
		pts[i] = r.Key
	}
	tr, err := rtree.BulkLoad(pts, rtree.Config{
		LeafCapacity: b.ds.BucketCapacity(),
		Domain:       b.ds.Domain,
	})
	if err != nil {
		return nil, err
	}
	leaves := &built{
		ds:        b.ds,
		src:       tr,
		grid:      core.Grid{Sizes: ones(tr.Dims()), Domain: tr.Domain(), Buckets: tr.Leaves()},
		indexByID: tr.IndexByID(),
	}
	algs := []core.Allocator{
		&core.CentroidCurve{},
		&core.SSP{Seed: l.opts.Seed},
		&core.Minimax{Seed: l.opts.Seed},
	}
	rt, err := l.responseTable(
		fmt.Sprintf("R-tree (extension) — declustering %d STR leaf pages of stock.3d (r=0.01): mean response time", tr.NumLeaves()),
		"method", leaves, algs, l.queriesFor(tr.Domain(), 0.01))
	if err != nil {
		return nil, err
	}
	cp, err := l.closestPairsTable(
		"R-tree (extension) — closest leaf pairs on the same disk",
		leaves, algs)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{rt, cp}, nil
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Optimality (experiment id "optimality") measures the heuristics' exact
// optimality gap on instances small enough for branch-and-bound: tiny
// Cartesian grids where the Exhaustive allocator finds the true
// workload-optimal assignment. The paper can only conjecture that minimax
// is "probably quite close to the optimal distribution"; here the gap is
// computed exactly (as total response over the workload, optimum = 100%).
func (l *Lab) Optimality() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Optimality gap (extension) — exact optimum via branch-and-bound on small Cartesian grids",
		"grid", "disks", "optimum", "MiniMax", "SSP", "HCAM/D", "DM/D", "MiniMax gap")
	indexed, err := l.indexBased("HCAM", "DM")
	if err != nil {
		return nil, err
	}
	for _, cfg := range []struct {
		sizes []int
		disks int
	}{
		{[]int{3, 4}, 3}, {[]int{4, 4}, 4}, {[]int{2, 7}, 3}, {[]int{4, 3}, 2},
	} {
		lo := make([]float64, len(cfg.sizes))
		hi := make([]float64, len(cfg.sizes))
		for i, s := range cfg.sizes {
			hi[i] = float64(s) * 10
		}
		c, err := gridfile.NewCartesian(cfg.sizes, geom.NewRect(lo, hi))
		if err != nil {
			return nil, err
		}
		g := core.FromCartesian(c)
		queries := workload.SquareRange(g.Domain, 0.2, 80, l.opts.Seed+600)

		objective := func(a core.Allocation) int64 {
			var total int64
			counts := make([]int, a.Disks)
			for _, q := range queries {
				for i := range counts {
					counts[i] = 0
				}
				for i := range g.Buckets {
					if g.Buckets[i].Region.Intersects(q) {
						counts[a.Assign[i]]++
					}
				}
				max := 0
				for _, n := range counts {
					if n > max {
						max = n
					}
				}
				total += int64(max)
			}
			return total
		}

		algs := append([]core.Allocator{
			&core.Exhaustive{Queries: queries},
			&core.Minimax{Seed: l.opts.Seed},
			&core.SSP{Seed: l.opts.Seed},
		}, indexed...)
		vals := make([]int64, len(algs))
		for i, alg := range algs {
			alloc, err := alg.Decluster(g, cfg.disks)
			if err != nil {
				return nil, err
			}
			vals[i] = objective(alloc)
		}
		gap := 100 * float64(vals[1]-vals[0]) / float64(vals[0])
		t.AddRow(fmt.Sprintf("%v", cfg.sizes), cfg.disks,
			vals[0], vals[1], vals[2], vals[3], vals[4],
			fmt.Sprintf("+%.1f%%", gap))
	}
	return []*stats.Table{t}, nil
}

// AblationSeqIO (experiment id "ablation-seqio") toggles elevator
// scheduling in the disk model on the animation workload: worker batches
// arrive in ascending bucket-id order, so runs of consecutively-placed
// buckets are read at transfer speed instead of paying a seek each. The
// gap between the two rows bounds what physical placement policies could
// save on this workload.
func (l *Lab) AblationSeqIO() ([]*stats.Table, error) {
	b, err := l.dataset("DSMC.4d")
	if err != nil {
		return nil, err
	}
	const workers = 8
	alloc, err := (&core.Minimax{Seed: l.opts.Seed}).Decluster(b.grid, workers)
	if err != nil {
		return nil, err
	}
	steps := int(b.grid.Domain[0].Length())
	queries := workload.AnimationSweep(b.grid.Domain, 0.1, steps)

	t := stats.NewTable(
		"Ablation A6 — elevator scheduling on the animation workload (8 nodes, minimax)",
		"sequential reads", "blocks", "seq-served", "elapsed (s)")
	for _, seq := range []bool{false, true} {
		disk := diskmodel.DefaultParams()
		disk.BlockBytes = b.ds.PageBytes
		disk.SequentialReads = seq
		eng, err := parallel.New(b.file, alloc, parallel.Config{Disk: disk, RecordBytes: b.ds.RecordBytes})
		if err != nil {
			return nil, err
		}
		tot, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		seqServed := 0
		for _, st := range eng.DiskStats() {
			seqServed += st.SeqReads
		}
		t.AddRow(seq, tot.Blocks, seqServed, seconds(tot.Elapsed))
	}
	return []*stats.Table{t}, nil
}

// DirIO (experiment id "dirio") measures the directory-page I/O of the
// two-level (paged) grid directory — the coordinator-side cost the paper's
// SPMD design keeps on one node — across directory page sizes, on the
// stock.3d workload.
func (l *Lab) DirIO() ([]*stats.Table, error) {
	b, err := l.dataset("stock.3d")
	if err != nil {
		return nil, err
	}
	queries := l.queriesFor(b.grid.Domain, 0.05)
	t := stats.NewTable(
		"Directory paging (extension) — two-level directory page accesses per query, stock.3d (r=0.05)",
		"page size (cells)", "directory pages", "mean page accesses/query", "flat-scan equivalent")
	for _, pageCells := range []int{64, 256, 1024, 4096} {
		d, err := gridfile.NewTwoLevelDirectory(b.file, pageCells)
		if err != nil {
			return nil, err
		}
		d.ResetCounters()
		for _, q := range queries {
			d.BucketsInRange(b.file, q)
		}
		t.AddRow(pageCells, d.NumPages(),
			float64(d.PageAccesses)/float64(len(queries)),
			float64(b.file.NumCells())/float64(pageCells))
	}
	return []*stats.Table{t}, nil
}

// AblationRefine (experiment id "ablation-refine") measures how much a
// direct workload-driven local search can still improve on minimax: Refine
// hill-climbs on a training workload, and both allocations are evaluated on
// an independently drawn workload of the same distribution. A small
// generalization gain supports the paper's closing claim that minimax's
// distributions are already close to optimal.
func (l *Lab) AblationRefine() ([]*stats.Table, error) {
	b, err := l.dataset("hot.2d")
	if err != nil {
		return nil, err
	}
	train := workload.SquareRange(b.grid.Domain, 0.05, l.opts.Queries, l.opts.Seed+400)
	eval := l.queriesFor(b.grid.Domain, 0.05) // independent draw

	base := &core.Minimax{Seed: l.opts.Seed}
	refined := &core.Refine{Base: base, Queries: train, Seed: l.opts.Seed}

	t, err := l.responseTable(
		"Ablation A5 — workload-driven refinement of minimax on hot.2d (r=0.05, held-out workload)",
		"method", b, []core.Allocator{base, refined}, eval)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

// TheoremKD (experiment id "thm1-kd") tabulates the d-dimensional extension
// of the DM analysis: exact response, optimal and saturation for 3-D and
// 4-D windows, the shapes of the paper's DSMC workloads.
func (l *Lab) TheoremKD() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Theorem 1 extension — exact DM response for d-dimensional windows",
		"window", "disks", "DM response", "optimal", "saturated at")
	windows := [][]int{
		{4, 4, 4}, {6, 6, 6}, {3, 5, 7}, {2, 4, 4, 4},
	}
	for _, w := range windows {
		sat := saturationDisks(w)
		for _, m := range []int{4, 8, 16, 32, 64} {
			t.AddRow(fmt.Sprintf("%v", w), m,
				analytic.DMResponseKD(w, m), analytic.OptimalResponseKD(w, m), sat)
		}
	}
	return []*stats.Table{t}, nil
}
