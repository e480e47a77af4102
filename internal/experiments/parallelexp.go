package experiments

import (
	"fmt"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/parallel"
	"pgridfile/internal/stats"
	"pgridfile/internal/workload"
)

// spWorkers are the SP-2 node counts of the paper's Section 3.5.
var spWorkers = []int{4, 8, 16}

// buildEngine declusters the 4-D dataset with minimax (the paper's choice
// for the SP-2 experiments) and builds an engine.
func (l *Lab) buildEngine(workers int) (*parallel.Engine, *built, error) {
	b, err := l.dataset("DSMC.4d")
	if err != nil {
		return nil, nil, err
	}
	alloc, err := (&core.Minimax{Seed: l.opts.Seed}).Decluster(b.grid, workers)
	if err != nil {
		return nil, nil, err
	}
	disk := diskmodel.DefaultParams()
	disk.BlockBytes = b.ds.PageBytes
	eng, err := parallel.New(b.file, alloc, parallel.Config{Disk: disk, RecordBytes: b.ds.RecordBytes})
	if err != nil {
		return nil, nil, err
	}
	return eng, b, nil
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// Table4 reproduces the animation-query experiment: for each node count, a
// sweep of r=0.1 slab queries per snapshot covering the whole volume.
// Caching effects appear because the temporal dimension has far fewer grid
// partitions than snapshots, so consecutive snapshots reuse blocks.
func (l *Lab) Table4() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Table 4 — animation queries on the SPMD engine (minimax declustering)",
		"processors", "queries", "response (blocks fetched)", "comm (s)", "elapsed (s)", "cache hit rate")
	for _, workers := range spWorkers {
		eng, b, err := l.buildEngine(workers)
		if err != nil {
			return nil, err
		}
		steps := int(b.grid.Domain[0].Length())
		queries := workload.AnimationSweep(b.grid.Domain, 0.1, steps)
		tot, err := eng.Run(queries)
		if err != nil {
			return nil, err
		}
		hitRate := 0.0
		if tot.Blocks > 0 {
			hitRate = float64(tot.CacheHits) / float64(tot.Blocks)
		}
		t.AddRow(workers, tot.Queries, tot.ResponseBlocks,
			seconds(tot.Comm), seconds(tot.Elapsed), hitRate)
	}
	return []*stats.Table{t}, nil
}

// Table5 reproduces the random range-query experiment: 100 random 4-D
// queries per configuration with r ∈ {0.01, 0.05, 0.1}, cold caches.
func (l *Lab) Table5() ([]*stats.Table, error) {
	t := stats.NewTable(
		"Table 5 — random range queries on the SPMD engine (minimax declustering)",
		"processors", "query ratio", "response (blocks fetched)", "comm (s)", "elapsed (s)")
	nQueries := 100
	for _, workers := range spWorkers {
		eng, b, err := l.buildEngine(workers)
		if err != nil {
			return nil, err
		}
		for _, r := range []float64{0.01, 0.05, 0.1} {
			eng.DropCaches()
			queries := workload.RandomRange4D(b.grid.Domain, r, nQueries, l.opts.Seed+int64(1000*r))
			tot, err := eng.Run(queries)
			if err != nil {
				return nil, err
			}
			t.AddRow(workers, fmt.Sprintf("%.2f", r), tot.ResponseBlocks,
				seconds(tot.Comm), seconds(tot.Elapsed))
		}
	}
	return []*stats.Table{t}, nil
}
