package store_test

import (
	"context"
	"fmt"
	"os"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// ExampleWrite lays a declustered grid file out as per-disk page files —
// the paper simulator's "separate files corresponding to every disk" — and
// reads a bucket back with real file I/O.
func ExampleWrite() {
	file, err := synth.Hotspot2D(1000, 7).Build()
	if err != nil {
		panic(err)
	}
	grid := core.FromGridFile(file)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(grid, 4)
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "layout")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	pls, err := store.Write(dir, file, alloc, 4096)
	if err != nil {
		panic(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	defer s.Close()

	// One read call serves any batch of buckets from one disk; a single
	// bucket is a batch of one, read from the disk that holds it.
	first := pls[0]
	recs := make([]geom.Flat, 1)
	pages, err := s.ReadFlatsFromTimed(context.Background(), first.Disk, []int32{first.ID}, recs, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("disks: %d, buckets laid out: %d\n", s.Manifest().Disks, len(pls))
	fmt.Printf("bucket %d: %d records from %d page(s)\n", first.ID, recs[0].Len(), pages)
	// Output:
	// disks: 4, buckets laid out: 28
	// bucket 0: 35 records from 1 page(s)
}
