// Parallel grid file walkthrough: stand up the SPMD coordinator/worker
// engine on a 4-D dataset, run individual queries, and inspect the
// per-query execution profile — block fan-out across workers, simulated
// disk and communication components, and cache behaviour. This is the
// engine behind Tables 4 and 5; the example shows its moving parts at
// query granularity.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/parallel"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

func main() {
	ds := synth.DSMC4D(12, 4000, 7)
	file, err := ds.Build()
	if err != nil {
		log.Fatal(err)
	}
	grid := core.FromGridFile(file)
	fmt.Printf("dataset: %d records, %d buckets\n", file.Len(), file.NumBuckets())

	const workers = 8
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(grid, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimax declustering over %d workers; buckets per worker: ", workers)

	disk := diskmodel.DefaultParams()
	disk.BlockBytes = ds.PageBytes
	eng, err := parallel.New(file, alloc, parallel.Config{Disk: disk, RecordBytes: ds.RecordBytes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(eng.BucketsPerWorker())

	queries := workload.RandomRange4D(grid.Domain, 0.15, 5, 9)
	fmt.Printf("\n%-4s %-8s %-18s %-8s %-10s %-10s %-8s\n",
		"q#", "blocks", "response (blocks)", "records", "comm (ms)", "total (ms)", "hits")
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %-8d %-18d %-8d %-10.2f %-10.2f %-8d\n",
			i, res.Blocks, res.ResponseBlocks, res.Records,
			float64(res.Comm.Microseconds())/1000,
			float64(res.Elapsed.Microseconds())/1000,
			res.CacheHits)
	}

	// Re-run the same queries: worker caches now hold the blocks.
	fmt.Println("\nsecond pass over the same queries (warm caches):")
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("q%-3d total %.2f ms, %d/%d fetches cached\n",
			i, float64(res.Elapsed.Microseconds())/1000, res.CacheHits, res.Blocks)
	}

	fmt.Println("\nper-worker disk statistics:")
	for w, st := range eng.DiskStats() {
		fmt.Printf("worker %d: %4d reads, %5.1f%% cache hits, %8.2f ms busy\n",
			w, st.Reads, 100*st.HitRate(), float64(st.BusyTime.Microseconds())/1000)
	}
}
