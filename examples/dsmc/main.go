// DSMC snapshot animation: the workload that motivates the paper. A
// time-dependent particle simulation periodically dumps snapshots into a
// 4-D (t, x, y, z) grid file; visualizing the simulation replays range
// queries that sweep each snapshot's volume. This example declusters the
// grid file with minimax, runs the animation sweep on the shared-nothing
// SPMD engine at several node counts, and prints the paper's Table 4
// metrics — including the cache effects from consecutive snapshots sharing
// temporal grid partitions.
//
// Run with: go run ./examples/dsmc
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
	// A reduced DSMC series: 24 snapshots of 6000 particles (the paper's
	// full run is 59 x ~51k; scale up for the real numbers).
	const snapshots, particles = 24, 6000
	fmt.Printf("generating %d DSMC snapshots x %d particles...\n", snapshots, particles)
	ds := synth.DSMC4D(snapshots, particles, 1996)
	file, err := ds.Build()
	if err != nil {
		log.Fatal(err)
	}
	st := file.Stats()
	fmt.Printf("grid file: %d records, grid %v, %d buckets of %d records\n\n",
		st.Records, st.CellsPerDim, st.Buckets, ds.BucketCapacity())

	grid := core.FromGridFile(file)
	queries := workload.AnimationSweep(grid.Domain, 0.1, snapshots)
	fmt.Printf("animation sweep: %d queries (10 slabs per snapshot, r=0.1)\n\n", len(queries))

	fmt.Printf("%-6s %-22s %-10s %-12s %-10s\n",
		"nodes", "response (blocks)", "comm (s)", "elapsed (s)", "hit rate")
	for _, workers := range []int{4, 8, 16} {
		alloc, err := (&core.Minimax{Seed: 1}).Decluster(grid, workers)
		if err != nil {
			log.Fatal(err)
		}
		disk := diskmodel.DefaultParams()
		disk.BlockBytes = ds.PageBytes
		eng, err := parallel.New(file, alloc, parallel.Config{Disk: disk, RecordBytes: ds.RecordBytes})
		if err != nil {
			log.Fatal(err)
		}
		tot, err := eng.Run(queries)
		if err != nil {
			log.Fatal(err)
		}
		hitRate := float64(tot.CacheHits) / float64(tot.Blocks)
		fmt.Printf("%-6d %-22d %-10.2f %-12.2f %-10.2f\n",
			workers, tot.ResponseBlocks, tot.Comm.Seconds(), tot.Elapsed.Seconds(), hitRate)
	}
	fmt.Println("\nresponse blocks halve as nodes double (minimax balance);")
	fmt.Println("cache hits come from consecutive snapshots sharing temporal partitions")
}
