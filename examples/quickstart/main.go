// Quickstart: build a grid file over 2-D points, decluster it with the
// paper's minimax algorithm, and compare its parallel response time against
// disk modulo on a batch of range queries.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

func main() {
	// 1. Generate a skewed dataset (a central hot spot over uniform
	// background) and load it into a grid file with 4 KB buckets.
	ds := synth.Hotspot2D(10000, 42)
	file, err := ds.Build()
	if err != nil {
		log.Fatal(err)
	}
	st := file.Stats()
	fmt.Printf("grid file: %d records in %d buckets over a %v grid (%d merged buckets)\n",
		st.Records, st.Buckets, st.CellsPerDim, st.MergedBuckets)

	// 2. A point lookup and a range query through the sequential API.
	q := geom.NewRect([]float64{900, 900}, []float64{1100, 1100})
	fmt.Printf("range %v: %d records in %d buckets\n",
		q, file.RangeCount(q), len(file.BucketsInRange(q)))

	// 3. Decluster the buckets over 16 disks two ways.
	grid := core.FromGridFile(file)
	const disks = 16
	algorithms := []core.Allocator{
		&core.Minimax{Seed: 1}, // the paper's algorithm
		mustDM(),               // the classic baseline
	}

	// 4. Replay 1000 square range queries (5% of the domain volume each)
	// and report the paper's metrics.
	queries := workload.SquareRange(file.Domain(), 0.05, 1000, 7)
	fmt.Printf("\n%-10s %-18s %-14s %-14s\n", "method", "mean response", "balance", "closest pairs")
	for _, alg := range algorithms {
		alloc, err := alg.Decluster(grid, disks)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Replay(file, alloc, file.IndexByID(), queries)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %-18.3f %-14.3f %-14d\n",
			alg.Name(), res.MeanResponseTime,
			sim.DataBalanceDegree(alloc),
			sim.CountSameDisk(sim.NearestCompanions(grid), alloc))
	}
	fmt.Println("\n(lower response time is better; balance 1.0 is perfect;")
	fmt.Println(" closest pairs counts neighbouring buckets stuck on one disk)")

	// 5. Persist the grid file and read it back.
	var buf bytes.Buffer
	n, err := file.WriteTo(&buf)
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := gridfile.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserialized to %d bytes and reloaded: %d records\n", n, reloaded.Len())
}

func mustDM() core.Allocator {
	alg, err := core.NewIndexBased("DM", "D", 1)
	if err != nil {
		log.Fatal(err)
	}
	return alg
}
