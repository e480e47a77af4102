package pgridfile

// BenchmarkDecluster is the micro-benchmark of the declustering *build*
// path — the pairwise-weight engine — across grid and disk sizes, one row
// per (algorithm, N, M). The repo benchmark (bench/) times the same path at
// full scale as core.decluster_s.
//
// Run: go test -run '^$' -bench='^BenchmarkDecluster$' -benchtime 1x .

import (
	"strconv"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
)

// declusterBenchGrid builds a side×side Cartesian grid over the synthetic
// datasets' [0,2000]² domain: exact bucket counts (1024/4096/16384) without
// the cost of inserting records.
func declusterBenchGrid(tb testing.TB, side int) core.Grid {
	tb.Helper()
	dom := geom.Rect{{Lo: 0, Hi: 2000}, {Lo: 0, Hi: 2000}}
	cf, err := gridfile.NewCartesian([]int{side, side}, dom)
	if err != nil {
		tb.Fatal(err)
	}
	return core.FromCartesian(cf)
}

// declusterBenchAlloc returns the allocator under test.
func declusterBenchAlloc(alg string) core.Allocator {
	switch alg {
	case "minimax":
		return &core.Minimax{Seed: 1}
	case "ssp":
		return &core.SSP{Seed: 1}
	case "mst":
		return &core.MST{Seed: 1}
	}
	panic("unknown algorithm " + alg)
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
	// One mid-size point each tracks SSP and MST without dominating the
	// suite.
	cfgs = append(cfgs, cfg{"ssp", 64, 16}, cfg{"mst", 64, 16})

	for _, c := range cfgs {
		n := c.side * c.side
		g := declusterBenchGrid(b, c.side)
		name := c.alg + "/N=" + strconv.Itoa(n) + "/M=" + strconv.Itoa(c.disks)
		b.Run(name, func(b *testing.B) {
			alloc := declusterBenchAlloc(c.alg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Decluster(g, c.disks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "buckets")
		})
	}
}

// onePassBenchSide is the grid the two single-pass N² sweeps are timed on:
// 96² = 9216 buckets, the scale of the repo benchmark's grid file.
const onePassBenchSide = 96

// BenchmarkNearestCompanions times the simulator's closest-pair sweep, one
// of the engine's two single-pass N² sweeps that split rows across
// goroutines (DESIGN.md S34). Run it with -cpu 1,2 to see each side of
// that choice.
func BenchmarkNearestCompanions(b *testing.B) {
	g := declusterBenchGrid(b, onePassBenchSide)
	for i := 0; i < b.N; i++ {
		sim.NearestCompanions(g, nil)
	}
}

// BenchmarkResidualAssign times one replica level's placement (the repo
// benchmark's replica.place_s), whose first pass is the other split sweep.
func BenchmarkResidualAssign(b *testing.B) {
	const disks = 8
	g := declusterBenchGrid(b, onePassBenchSide)
	primary, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		b.Fatal(err)
	}
	owners := make([][]int, len(primary.Assign))
	for x, d := range primary.Assign {
		owners[x] = []int{d}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ResidualAssign(g, disks, owners, nil); err != nil {
			b.Fatal(err)
		}
	}
}
