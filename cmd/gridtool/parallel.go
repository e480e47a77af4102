package main

import (
	"flag"
	"fmt"

	"pgridfile/internal/core"
	"pgridfile/internal/parallel"
	"pgridfile/internal/workload"
)

func runParallel(args []string) error {
	fs := flag.NewFlagSet("parallel", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	alg := fs.String("alg", "minimax", "declustering algorithm")
	workers := fs.Int("workers", 8, "number of worker nodes")
	disksPer := fs.Int("disks-per-node", 1, "local disks per node")
	queries := fs.Int("queries", 100, "random square range queries")
	ratio := fs.Float64("r", 0.05, "query volume ratio")
	seed := fs.Int64("seed", 1, "workload/heuristic seed")
	pageCells := fs.Int("dir-page-cells", 0, "paged coordinator directory (0 = flat)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("parallel: -file is required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	allocator, err := core.ParseAllocator(*alg, *seed, 0)
	if err != nil {
		return err
	}
	alloc, err := allocator.Decluster(core.FromGridFile(f), *workers)
	if err != nil {
		return err
	}
	eng, err := parallel.New(f, alloc, parallel.Config{
		DisksPerWorker:     *disksPer,
		DirectoryPageCells: *pageCells,
	})
	if err != nil {
		return err
	}

	qs := workload.SquareRange(f.Domain(), *ratio, *queries, *seed)
	tot, err := eng.Run(qs)
	if err != nil {
		return err
	}
	hitRate := 0.0
	if tot.Blocks > 0 {
		hitRate = float64(tot.CacheHits) / float64(tot.Blocks)
	}
	fmt.Printf("declustering:        %s over %d nodes x %d disk(s)\n", allocator.Name(), *workers, *disksPer)
	fmt.Printf("queries:             %d (r=%.2f)\n", tot.Queries, *ratio)
	fmt.Printf("records returned:    %d\n", tot.Records)
	fmt.Printf("blocks fetched:      %d (response by definition: %d)\n", tot.Blocks, tot.ResponseBlocks)
	fmt.Printf("cache hit rate:      %.2f\n", hitRate)
	fmt.Printf("communication time:  %.3f s\n", tot.Comm.Seconds())
	fmt.Printf("elapsed (simulated): %.3f s\n", tot.Elapsed.Seconds())
	return nil
}
