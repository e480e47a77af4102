package main

import (
	"context"
	"flag"
	"fmt"

	"pgridfile/internal/core"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/sim"
	"pgridfile/internal/store"
	"pgridfile/internal/workload"
)

func runLayout(args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	alg := fs.String("alg", "minimax", "declustering algorithm")
	disks := fs.Int("disks", 16, "number of disks")
	pageBytes := fs.Int("page", 4096, "largest page size in bytes; a page is never larger than a full bucket needs")
	seed := fs.Int64("seed", 1, "seed for randomized phases")
	out := fs.String("out", "", "layout directory (required)")
	replicas := fs.Int("replicas", 1, "copies of every bucket, each on a distinct disk (1 = no replication)")
	fs.Parse(args)
	if *path == "" || *out == "" {
		return fmt.Errorf("layout: -file and -out are required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	allocator, err := core.ParseAllocator(*alg, *seed, 0)
	if err != nil {
		return err
	}
	g := core.FromGridFile(f)
	alloc, err := allocator.Decluster(g, *disks)
	if err != nil {
		return err
	}
	rm, err := (&replica.Placer{Replicas: *replicas}).Place(g, alloc)
	if err != nil {
		return err
	}
	pls, err := store.WriteReplicated(*out, f, rm, *pageBytes)
	if err != nil {
		return err
	}

	// Verify the layout before declaring success: one scrub pass checks every
	// page of every copy on every disk, checksum included, so a torn replica
	// copy fails the build rather than the first failover that routes to it.
	s, err := store.Open(*out)
	if err != nil {
		return fmt.Errorf("layout verification: %w", err)
	}
	defer s.Close()
	if st, err := s.Scrub(context.Background(), 0); err != nil {
		return fmt.Errorf("layout verification: %w", err)
	} else if st.Corrupt != 0 {
		return fmt.Errorf("layout verification: %d of %d page copies corrupt", st.Corrupt, st.Pages)
	}
	sizes, err := s.DiskSizes()
	if err != nil {
		return err
	}
	if *replicas > 1 {
		fmt.Printf("laid out %d buckets (%d records) over %d disks with %s, %d copies each\n",
			len(pls), f.Len(), *disks, allocator.Name(), *replicas)
	} else {
		fmt.Printf("laid out %d buckets (%d records) over %d disks with %s\n",
			len(pls), f.Len(), *disks, allocator.Name())
	}
	fmt.Printf("pages per disk: %v\n", sizes)
	if err := printResponse(f, pls, *disks, *seed); err != nil {
		return err
	}
	fmt.Printf("layout is self-contained (the grid file is in layout.grd); serve it with: gridserver serve -store %s\n", *out)
	return nil
}

// printResponse costs a sample of range queries against the written layout
// (primary copies) two ways: the paper's response time — buckets on the
// busiest disk — and the positioned reads the store's span planner needs on
// the busiest disk, given where the buckets actually sit in the disk files.
func printResponse(f *gridfile.File, pls []*store.Placement, disks int, seed int64) error {
	const ratio, queries = 0.01, 1000
	alloc := core.Allocation{Disks: disks, Assign: make([]int, len(pls))}
	lay := sim.DiskLayout{Page: make([]int64, len(pls)), Pages: make([]int, len(pls))}
	for i, pl := range pls { // the writer's order is f.Buckets() order
		alloc.Assign[i], lay.Page[i], lay.Pages[i] = pl.OwnerDisks[0], pl.OwnerPages[0], pl.Pages
	}
	idx := f.IndexByID()
	qs := workload.SquareRange(f.Domain(), ratio, queries, seed)
	res, err := sim.Replay(f, alloc, idx, qs)
	if err != nil {
		return err
	}
	sr, err := sim.ReplaySpans(f, alloc, idx, qs, lay, store.ReadThroughPages)
	if err != nil {
		return err
	}
	fmt.Printf("%d range queries (r=%g): mean response %.3f buckets = %.3f spans on the busiest disk (%.1f buckets in %.1f spans per query, %.1f gap pages)\n",
		queries, ratio, res.MeanResponseTime, sr.MeanResponseSpans, res.MeanBuckets, sr.MeanSpans, sr.MeanGapPages)
	return nil
}
