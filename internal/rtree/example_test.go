package rtree_test

import (
	"fmt"

	"pgridfile/internal/geom"
	"pgridfile/internal/rtree"
)

// ExampleBulkLoad packs points into an STR R-tree and runs a range query
// over the leaf pages.
func ExampleBulkLoad() {
	var pts []geom.Point
	for x := 0.0; x < 10; x++ {
		for y := 0.0; y < 10; y++ {
			pts = append(pts, geom.Point{x, y})
		}
	}
	tr, err := rtree.BulkLoad(pts, rtree.Config{LeafCapacity: 10})
	if err != nil {
		panic(err)
	}
	q := geom.NewRect([]float64{0, 0}, []float64{4, 4})
	fmt.Printf("points: %d in %d leaves (height %d)\n", tr.RangeCount(tr.Domain()), tr.NumLeaves(), tr.Height())
	fmt.Printf("range [0,4]^2: %d points from %d leaves\n",
		tr.RangeCount(q), len(tr.BucketsInRange(q)))
	// Output:
	// points: 100 in 12 leaves (height 3)
	// range [0,4]^2: 25 points from 3 leaves
}
