package core

// BenchmarkDecluster is the micro-benchmark of the declustering *build*
// path — the pairwise-weight engine — across grid and disk sizes, one row
// per (algorithm, N, M). The repo benchmark (bench/) times the same path at
// full scale as core.decluster_s.
//
// Run: go test -run '^$' -bench='^BenchmarkDecluster$' -benchtime 1x ./internal/core

import (
	"strconv"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// declusterBenchGrid builds a side×side Cartesian grid over the synthetic
// datasets' [0,2000]² domain: exact bucket counts (1024 … 40000) without
// the cost of inserting records.
func declusterBenchGrid(tb testing.TB, side int) Grid {
	tb.Helper()
	dom := geom.Rect{{Lo: 0, Hi: 2000}, {Lo: 0, Hi: 2000}}
	cf, err := gridfile.NewCartesian([]int{side, side}, dom)
	if err != nil {
		tb.Fatal(err)
	}
	return FromCartesian(cf)
}

func BenchmarkDecluster(b *testing.B) {
	type cfg struct {
		alg   string
		side  int // N = side²
		disks int
	}
	var cfgs []cfg
	for _, side := range []int{32, 64, 128} {
		for _, disks := range []int{16, 64} {
			cfgs = append(cfgs, cfg{"minimax", side, disks})
		}
	}
	// N = 40000 shows the scaling: the full sweeps' N²/2 = 800 M weights took
	// 11–15 s here.
	cfgs = append(cfgs, cfg{"minimax", 200, 16})
	// One mid-size point each tracks SSP and MST without dominating the
	// suite.
	cfgs = append(cfgs, cfg{"ssp", 64, 16}, cfg{"mst", 64, 16})

	for _, c := range cfgs {
		n := c.side * c.side
		g := declusterBenchGrid(b, c.side)
		name := c.alg + "/N=" + strconv.Itoa(n) + "/M=" + strconv.Itoa(c.disks)
		b.Run(name, func(b *testing.B) {
			var w work
			for i := 0; i < b.N; i++ {
				var err error
				switch c.alg {
				case "minimax":
					_, w, err = (&Minimax{Seed: 1}).decluster(g, c.disks)
				case "ssp":
					_, err = (&SSP{Seed: 1}).Decluster(g, c.disks)
				case "mst":
					_, err = (&MST{Seed: 1}).Decluster(g, c.disks)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "buckets")
			if c.alg == "minimax" {
				// Kernel evaluations of one run: deterministic, so not a mean.
				b.ReportMetric(float64(w.weights), "weights/op")
				b.ReportMetric(float64(w.bounds), "bounds/op")
			}
		})
	}
}

// onePassBenchSide is the grid the two sweeps that were a single N² pass
// before the pruning are timed on: 96² = 9216 buckets, the scale of the repo
// benchmark's grid file.
const onePassBenchSide = 96

// BenchmarkNearestCompanions times the simulator's closest-pair sweep.
func BenchmarkNearestCompanions(b *testing.B) {
	g := declusterBenchGrid(b, onePassBenchSide)
	for i := 0; i < b.N; i++ {
		NewPairEngine(g, false).NearestCompanions()
	}
}

// BenchmarkResidualAssign times one replica level's placement (the repo
// benchmark's replica.place_s).
func BenchmarkResidualAssign(b *testing.B) {
	const disks = 8
	g := declusterBenchGrid(b, onePassBenchSide)
	primary, err := (&Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		b.Fatal(err)
	}
	owners := make([][]int, len(primary.Assign))
	for x, d := range primary.Assign {
		owners[x] = []int{d}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ResidualAssign(g, disks, owners); err != nil {
			b.Fatal(err)
		}
	}
}
