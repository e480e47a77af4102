// Declustering gallery: renders the hot.2d grid file as SVG once per
// declustering algorithm, colouring every bucket by its disk. Looking at
// the pictures makes the paper's story immediate — DM paints diagonal
// stripes (the collision pattern behind its saturation), HCAM paints curve
// segments, and minimax scatters colours so no two neighbouring regions
// match. Also prints each algorithm's conflict and quality numbers.
//
// Run with: go run ./examples/gallery   (writes gallery_*.svg + .txt)
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"pgridfile/internal/core"
	"pgridfile/internal/render"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

func main() {
	file, err := synth.Hotspot2D(10000, 42).Build()
	if err != nil {
		log.Fatal(err)
	}
	grid := core.FromGridFile(file)
	const disks = 8

	// Conflict pressure per scheme (why grid files need resolution at all).
	fmt.Println("conflict statistics (merged buckets force a choice of disk):")
	for _, s := range []core.Scheme{core.DM{}, core.FX{}, core.HCAM()} {
		st := core.Conflicts(grid, s, disks)
		fmt.Printf("  %-5s %d of %d buckets conflicted (mean %.2f candidate disks)\n",
			s.Name(), st.Conflicted, st.Buckets, st.MeanCandidates)
	}
	fmt.Println()

	algorithms := []core.Allocator{
		mustAlg("DM", "D"),
		mustAlg("FX", "D"),
		mustAlg("HCAM", "D"),
		&core.SSP{Seed: 1},
		&core.Minimax{Seed: 1},
	}
	queries := workload.SquareRange(file.Domain(), 0.05, 1000, 7)
	nn := sim.NearestCompanions(grid)

	fmt.Printf("%-8s %-14s %-10s %-14s %s\n", "method", "mean response", "balance", "closest pairs", "svg")
	for _, alg := range algorithms {
		alloc, err := alg.Decluster(grid, disks)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Replay(file, alloc, file.IndexByID(), queries)
		if err != nil {
			log.Fatal(err)
		}
		svg, err := render.SVG(file, render.SVGOptions{Width: 480, Allocation: &alloc})
		if err != nil {
			log.Fatal(err)
		}
		name := sanitize(alg.Name())
		path := fmt.Sprintf("gallery_%s.svg", name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-14.3f %-10.3f %-14d %s\n",
			alg.Name(), res.MeanResponseTime,
			sim.DataBalanceDegree(alloc), sim.CountSameDisk(nn, alloc), path)
	}

	// An ASCII sketch of the directory for terminal-only sessions.
	sketch, err := render.ASCII(file, 60)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("gallery_directory.txt", []byte(sketch), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndirectory sketch written to gallery_directory.txt")
}

func mustAlg(scheme, resolver string) core.Allocator {
	alg, err := core.NewIndexBased(scheme, resolver, 1)
	if err != nil {
		log.Fatal(err)
	}
	return alg
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
}
