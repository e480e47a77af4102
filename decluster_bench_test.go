package pgridfile

// BenchmarkDecluster tracks the declustering *build* path the way
// BenchmarkServerThroughput tracks the serving path: the pairwise-weight
// engine with its sweeps on one worker versus on GOMAXPROCS workers, across
// grid and disk sizes. scripts/bench.sh parses the output into
// BENCH_decluster.json.
//
// Every workers=max variant also asserts, outside the timed loop, that its
// assignment is byte-identical to the workers=1 one — the determinism
// contract that makes the parallel sweeps safe to enable by default. (The
// textbook serial loops the engine is held to live in
// internal/core/reference_test.go.)
//
// Run: go test -bench='^BenchmarkDecluster$' -benchtime 1x .

import (
	"strconv"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
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

// declusterBenchAlloc returns the allocator under test at the given engine
// worker count (0 = GOMAXPROCS).
func declusterBenchAlloc(alg string, workers int) core.Allocator {
	switch alg {
	case "minimax":
		return &core.Minimax{Seed: 1, Workers: workers}
	case "ssp":
		return &core.SSP{Seed: 1, Workers: workers}
	case "mst":
		return &core.MST{Seed: 1, Workers: workers}
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
		b.Run(name+"/workers=1", func(b *testing.B) {
			alloc := declusterBenchAlloc(c.alg, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Decluster(g, c.disks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "buckets")
		})
		b.Run(name+"/workers=max", func(b *testing.B) {
			alloc := declusterBenchAlloc(c.alg, 0)
			var got core.Allocation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if got, err = alloc.Decluster(g, c.disks); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "buckets")
			want, err := declusterBenchAlloc(c.alg, 1).Decluster(g, c.disks)
			if err != nil {
				b.Fatal(err)
			}
			for x := range want.Assign {
				if got.Assign[x] != want.Assign[x] {
					b.Fatalf("workers=max assignment diverges from workers=1 at bucket %d: got disk %d, want %d",
						x, got.Assign[x], want.Assign[x])
				}
			}
		})
	}
}
