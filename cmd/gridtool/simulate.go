package main

import (
	"flag"
	"fmt"
	"strings"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/sim"
	"pgridfile/internal/store"
	"pgridfile/internal/workload"
)

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	algs := fs.String("algs", "DM/D,FX/D,HCAM/D,SSP,minimax", "comma-separated algorithms")
	disks := fs.Int("disks", 16, "number of disks")
	ratio := fs.Float64("r", 0.05, "query volume ratio")
	queries := fs.Int("queries", 1000, "number of random square range queries")
	seed := fs.Int64("seed", 1, "workload and heuristic seed")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("simulate: -file is required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	g := core.FromGridFile(f)
	idx := f.IndexByID()
	qs := workload.SquareRange(f.Domain(), *ratio, *queries, *seed)

	// Beside the paper's bucket-based response time, cost each query in
	// positioned reads on its busiest disk under three within-disk layouts
	// of one page per bucket: bucket-id order, the page store's Hilbert
	// order, and Hilbert order with the store's read-through at the page
	// size the store would write the file in.
	ones := make([]int, len(g.Buckets))
	idOrder := make([]int, len(g.Buckets))
	for i := range ones {
		ones[i], idOrder[i] = 1, i
	}
	hilbertOrder := store.LayoutOrder(f)
	pageBytes := store.PageSize(f, defaultPageBytes)
	readThrough := store.ReadThroughPages(pageBytes)
	fmt.Printf("span read-through: %d KiB = %d pages of %d B\n", store.ReadThroughBytes>>10, readThrough, pageBytes)
	fmt.Printf("%-12s %-14s %-12s %-10s %-14s %-9s %-13s %-15s\n",
		"method", "mean response", "optimal", "balance", "closest pairs",
		"spans:id", "spans:hilbert", fmt.Sprintf("spans:hilb+%dKiB", store.ReadThroughBytes>>10))
	nn := sim.NearestCompanions(g)
	for _, name := range strings.Split(*algs, ",") {
		alg, err := core.ParseAllocator(strings.TrimSpace(name), *seed, 0)
		if err != nil {
			return err
		}
		alloc, err := alg.Decluster(g, *disks)
		if err != nil {
			return err
		}
		res, err := sim.Replay(f, alloc, idx, qs)
		if err != nil {
			return err
		}
		byID := sim.LayoutInOrder(alloc, idOrder, ones)
		byCurve := sim.LayoutInOrder(alloc, hilbertOrder, ones)
		var spans [3]float64
		for i, c := range []struct {
			lay         sim.DiskLayout
			readThrough int
		}{{byID, 0}, {byCurve, 0}, {byCurve, readThrough}} {
			sr, err := sim.ReplaySpans(f, alloc, idx, qs, c.lay, c.readThrough)
			if err != nil {
				return err
			}
			spans[i] = sr.MeanResponseSpans
		}
		fmt.Printf("%-12s %-14.3f %-12.3f %-10.3f %-14d %-9.3f %-13.3f %-15.3f\n",
			alg.Name(), res.MeanResponseTime, res.MeanOptimal,
			sim.DataBalanceDegree(alloc), sim.CountSameDisk(nn, alloc),
			spans[0], spans[1], spans[2])
	}
	return nil
}

func runKNN(args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	point := fs.String("point", "", "query point as comma-separated floats (required)")
	k := fs.Int("k", 5, "number of neighbours")
	fs.Parse(args)
	if *path == "" || *point == "" {
		return fmt.Errorf("knn: -file and -point are required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	parts := strings.Split(*point, ",")
	p := make(geom.Point, len(parts))
	for i, s := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%f", &p[i]); err != nil {
			return fmt.Errorf("bad coordinate %q", s)
		}
	}
	for i, n := range f.NearestNeighbors(p, *k) {
		fmt.Printf("%d: %v (distance %.4f)\n", i+1, n.Record.Key, n.Distance)
	}
	return nil
}
