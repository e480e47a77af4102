package parallel_test

import (
	"fmt"

	"pgridfile/internal/core"
	"pgridfile/internal/parallel"
	"pgridfile/internal/synth"
)

// ExampleEngine stands up the SPMD engine on a small 4-D dataset and runs a
// full-volume query: the coordinator translates it against the grid
// directory, each worker fetches its blocks and ships back the qualified
// record count. All timing comes from the deterministic cost model, so the
// output is stable.
func ExampleEngine() {
	ds := synth.DSMC4D(4, 1000, 7)
	file, err := ds.Build()
	if err != nil {
		panic(err)
	}
	grid := core.FromGridFile(file)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(grid, 4)
	if err != nil {
		panic(err)
	}
	eng, err := parallel.New(file, alloc, parallel.Config{})
	if err != nil {
		panic(err)
	}

	res, err := eng.Query(file.Domain())
	if err != nil {
		panic(err)
	}
	fmt.Printf("records: %d of %d\n", res.Records, file.Len())
	fmt.Printf("blocks fetched: %d (response %d from the busiest worker)\n",
		res.Blocks, res.ResponseBlocks)
	fmt.Printf("balanced: %v\n", res.ResponseBlocks <= (file.NumBuckets()+3)/4)
	// Output:
	// records: 4000 of 4000
	// blocks fetched: 24 (response 6 from the busiest worker)
	// balanced: true
}
