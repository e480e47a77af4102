package pgridfile

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations from DESIGN.md and micro-benchmarks of the core algorithms.
// Each experiment benchmark regenerates its artifact at benchmark scale
// (~1/8 datasets, 150 queries — the shapes are preserved; see
// experiments.BenchOptions) and reports headline metrics via ReportMetric:
//
//	rt@32disks      mean response time (buckets) at the largest disk count
//	opt@32disks     the optimal reference at the same point
//	balance@32      degree of data balance
//	pairs@32        closest pairs co-located
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/experiments"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// runExperiment executes one experiment driver b.N times and returns the
// last run's tables for metric extraction.
func runExperiment(b *testing.B, id string) []*stats.Table {
	b.Helper()
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.BenchOptions())
		var err error
		tables, err = lab.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tables
}

// lastValue extracts the final numeric cell of the labelled row in a table.
func lastValue(b *testing.B, t *stats.Table, label string) float64 {
	b.Helper()
	for _, line := range strings.Split(t.Render(), "\n") {
		if !strings.HasPrefix(line, label+" ") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			b.Fatalf("row %q: %v", label, err)
		}
		return v
	}
	b.Fatalf("row %q not found in %q", label, t.Title)
	return 0
}

func BenchmarkFig2GridFiles(b *testing.B) {
	runExperiment(b, "fig2")
}

func BenchmarkFig3ConflictResolution(b *testing.B) {
	tables := runExperiment(b, "fig3")
	fx := tables[1]
	b.ReportMetric(lastValue(b, fx, "FX/D"), "FX/D-rt@32disks")
	b.ReportMetric(lastValue(b, fx, "FX/R"), "FX/R-rt@32disks")
}

func BenchmarkFig4IndexBased(b *testing.B) {
	tables := runExperiment(b, "fig4")
	hot := tables[1]
	b.ReportMetric(lastValue(b, hot, "DM/D"), "DM-rt@32disks")
	b.ReportMetric(lastValue(b, hot, "HCAM/D"), "HCAM-rt@32disks")
	b.ReportMetric(lastValue(b, hot, "optimal"), "opt@32disks")
}

func BenchmarkTable1DataBalance(b *testing.B) {
	tables := runExperiment(b, "tab1")
	t := tables[0]
	b.ReportMetric(lastValue(b, t, "HCAM/D"), "HCAM-balance@32")
	b.ReportMetric(lastValue(b, t, "MiniMax"), "MiniMax-balance@32")
}

func BenchmarkTheorem1DM(b *testing.B) {
	runExperiment(b, "thm1")
}

func BenchmarkTheorem2FX(b *testing.B) {
	runExperiment(b, "thm2")
}

func BenchmarkHCAMScaling(b *testing.B) {
	tables := runExperiment(b, "hcam-scaling")
	// Last row of the 8x8 table: disks=64.
	lines := strings.Split(tables[0].Render(), "\n")
	last := strings.Fields(lines[len(lines)-2])
	for i, name := range []string{"DM", "FX", "HCAM"} {
		v, err := strconv.ParseFloat(last[i+1], 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, name+"-rt@64disks")
	}
}

func BenchmarkFig5Distributions(b *testing.B) {
	runExperiment(b, "fig5")
}

func BenchmarkFig6AllAlgorithms(b *testing.B) {
	tables := runExperiment(b, "fig6")
	stock := tables[2]
	b.ReportMetric(lastValue(b, stock, "MiniMax"), "MiniMax-rt@32disks")
	b.ReportMetric(lastValue(b, stock, "SSP"), "SSP-rt@32disks")
	b.ReportMetric(lastValue(b, stock, "HCAM/D"), "HCAM-rt@32disks")
	b.ReportMetric(lastValue(b, stock, "optimal"), "opt@32disks")
}

func BenchmarkTables23ClosestPairs(b *testing.B) {
	var t2, t3 *stats.Table
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.BenchOptions())
		a, err := lab.Run("tab2")
		if err != nil {
			b.Fatal(err)
		}
		c, err := lab.Run("tab3")
		if err != nil {
			b.Fatal(err)
		}
		t2, t3 = a[0], c[0]
	}
	b.ReportMetric(lastValue(b, t2, "MiniMax"), "DSMC-MiniMax-pairs@32")
	b.ReportMetric(lastValue(b, t2, "DM/D"), "DSMC-DM-pairs@32")
	b.ReportMetric(lastValue(b, t3, "MiniMax"), "stock-MiniMax-pairs@32")
}

func BenchmarkFig7QuerySize(b *testing.B) {
	tables := runExperiment(b, "fig7")
	sp := tables[1]
	b.ReportMetric(lastValue(b, sp, "MiniMax, r=0.01"), "MiniMax-speedup@32")
	b.ReportMetric(lastValue(b, sp, "HCAM/D, r=0.01"), "HCAM-speedup@32")
}

func BenchmarkTable4Animation(b *testing.B) {
	tables := runExperiment(b, "tab4")
	// Rows: 4, 8, 16 workers; columns: processors, queries, response,
	// comm, elapsed, hit rate. Report the 16-worker elapsed seconds.
	lines := strings.Split(tables[0].Render(), "\n")
	last := strings.Fields(lines[len(lines)-2])
	elapsed, err := strconv.ParseFloat(last[4], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(elapsed, "elapsed-s@16workers")
}

func BenchmarkTable5RandomQueries(b *testing.B) {
	tables := runExperiment(b, "tab5")
	lines := strings.Split(tables[0].Render(), "\n")
	last := strings.Fields(lines[len(lines)-2]) // 16 workers, r=0.10
	blocks, err := strconv.ParseFloat(last[2], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(blocks, "respblocks@16workers-r0.10")
}

func BenchmarkAblationCurves(b *testing.B) {
	tables := runExperiment(b, "ablation-sfc")
	t := tables[0]
	b.ReportMetric(lastValue(b, t, "HCAM/D"), "hilbert-rt@32disks")
	b.ReportMetric(lastValue(b, t, "ZCAM/D"), "zorder-rt@32disks")
	b.ReportMetric(lastValue(b, t, "GrayCAM/D"), "gray-rt@32disks")
}

func BenchmarkAblationMinimaxVsMST(b *testing.B) {
	tables := runExperiment(b, "ablation-mst")
	rt, bal := tables[0], tables[1]
	b.ReportMetric(lastValue(b, rt, "MiniMax"), "MiniMax-rt@32disks")
	b.ReportMetric(lastValue(b, rt, "MST"), "MST-rt@32disks")
	b.ReportMetric(lastValue(b, bal, "MST"), "MST-balance@32")
}

func BenchmarkAblationEdgeWeight(b *testing.B) {
	tables := runExperiment(b, "ablation-weight")
	rt := tables[0]
	b.ReportMetric(lastValue(b, rt, "MiniMax"), "proximity-rt@32disks")
	b.ReportMetric(lastValue(b, rt, "MiniMax(euclid)"), "euclid-rt@32disks")
}

func BenchmarkRTreeDeclustering(b *testing.B) {
	tables := runExperiment(b, "rtree")
	rt := tables[0]
	b.ReportMetric(lastValue(b, rt, "MiniMax"), "MiniMax-rt@32disks")
	b.ReportMetric(lastValue(b, rt, "CentroidCurve(hilbert)"), "CentroidCurve-rt@32disks")
}

func BenchmarkAblationSplitPolicy(b *testing.B) {
	tables := runExperiment(b, "ablation-split")
	lines := strings.Split(tables[0].Render(), "\n")
	parseRT := func(line string) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			b.Fatalf("bad row %q", line)
		}
		return v
	}
	b.ReportMetric(parseRT(lines[3]), "largest-extent-rt@16")
	b.ReportMetric(parseRT(lines[4]), "cyclic-rt@16")
}

func BenchmarkOptimalityGap(b *testing.B) {
	runExperiment(b, "optimality")
}

func BenchmarkDiskUtilization(b *testing.B) {
	tables := runExperiment(b, "utilization")
	lines := strings.Split(tables[0].Render(), "\n")
	// Last data row is MiniMax; column 1 is mean active disks.
	last := strings.Fields(lines[len(lines)-2])
	v, err := strconv.ParseFloat(last[1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "MiniMax-active-disks@16")
}

func BenchmarkQuadtreeDeclustering(b *testing.B) {
	tables := runExperiment(b, "quadtree")
	rt := tables[0]
	b.ReportMetric(lastValue(b, rt, "MiniMax"), "MiniMax-rt@32disks")
	b.ReportMetric(lastValue(b, rt, "CentroidCurve(hilbert)"), "CentroidCurve-rt@32disks")
}

func BenchmarkTraceWorkload(b *testing.B) {
	tables := runExperiment(b, "trace")
	// First row: DSMC.4d trace; second: DSMC.4d random. Compare hit rates.
	lines := strings.Split(tables[0].Render(), "\n")
	parseHit := func(line string) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			b.Fatalf("bad row %q", line)
		}
		return v
	}
	b.ReportMetric(parseHit(lines[3]), "trace-hitrate")
	b.ReportMetric(parseHit(lines[4]), "random-hitrate")
}

func BenchmarkAblationSeqIO(b *testing.B) {
	tables := runExperiment(b, "ablation-seqio")
	lines := strings.Split(tables[0].Render(), "\n")
	// Row 3: sequential=false, row 4: sequential=true; elapsed is column 3.
	parseElapsed := func(line string) float64 {
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			b.Fatalf("bad row %q", line)
		}
		return v
	}
	b.ReportMetric(parseElapsed(lines[3]), "elapsed-s-random")
	b.ReportMetric(parseElapsed(lines[4]), "elapsed-s-elevator")
}

func BenchmarkDirectoryPaging(b *testing.B) {
	tables := runExperiment(b, "dirio")
	lines := strings.Split(tables[0].Render(), "\n")
	first := strings.Fields(lines[3]) // smallest page size row
	v, err := strconv.ParseFloat(first[2], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "pages-per-query@64cells")
}

func BenchmarkAblationRefine(b *testing.B) {
	tables := runExperiment(b, "ablation-refine")
	t := tables[0]
	b.ReportMetric(lastValue(b, t, "MiniMax"), "MiniMax-rt@32disks")
	b.ReportMetric(lastValue(b, t, "Refine(MiniMax)"), "Refined-rt@32disks")
}

func BenchmarkAblationGDM(b *testing.B) {
	tables := runExperiment(b, "ablation-gdm")
	t := tables[0]
	b.ReportMetric(lastValue(b, t, "DM/D"), "DM-rt@32disks")
	b.ReportMetric(lastValue(b, t, "GDM/D"), "GDM-rt@32disks")
}

func BenchmarkPartialMatch(b *testing.B) {
	tables := runExperiment(b, "pm")
	uniform := tables[0]
	b.ReportMetric(lastValue(b, uniform, "DM/D"), "DM-rt@32disks")
	b.ReportMetric(lastValue(b, uniform, "optimal"), "opt@32disks")
}

func BenchmarkTheorem1KD(b *testing.B) {
	runExperiment(b, "thm1-kd")
}

func BenchmarkTable6MultiDisk(b *testing.B) {
	tables := runExperiment(b, "tab6")
	lines := strings.Split(tables[0].Render(), "\n")
	last := strings.Fields(lines[len(lines)-2]) // 7 disks per node
	elapsed, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(elapsed, "elapsed-s@7disks-per-node")
}

// --- micro-benchmarks of the core algorithms -------------------------------

func benchGrid(b *testing.B) core.Grid {
	b.Helper()
	f, err := synth.Hotspot2D(10000, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	return core.FromGridFile(f)
}

func BenchmarkDeclusterMinimax(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.Minimax{Seed: 1}).Decluster(g, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Buckets)), "buckets")
}

func BenchmarkDeclusterSSP(b *testing.B) {
	g := benchGrid(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.SSP{Seed: 1}).Decluster(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeclusterHCAMDataBalance(b *testing.B) {
	g := benchGrid(b)
	alg, err := core.NewIndexBased("HCAM", "D", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Decluster(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridFileInsert(b *testing.B) {
	ds := synth.Uniform2D(b.N+1000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	if _, err := ds.Build(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGridFileRangeQuery(b *testing.B) {
	f, err := synth.Hotspot2D(10000, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.SquareRange(f.Domain(), 0.05, 256, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.BucketsInRange(queries[i%len(queries)])
	}
}

func BenchmarkReplayWorkload(b *testing.B) {
	f, err := synth.Hotspot2D(10000, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 16)
	if err != nil {
		b.Fatal(err)
	}
	idx := f.IndexByID()
	queries := workload.SquareRange(f.Domain(), 0.05, 1000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Replay(f, alloc, idx, queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput measures end-to-end queries/second of the
// network query service (internal/server) over real per-disk files, under
// two declustering schemes and two server configurations: baseline (no
// bucket cache: every bucket a query touches is read from its disk file) and
// tuned (the defaults, with the sharded bucket cache).
// The workload is count-only range queries from 8 closed-loop clients, so
// the numbers isolate how well the allocation spreads bucket fetches across
// the per-disk I/O goroutines and how much of that I/O the cache absorbs.
// Each variant also reports client-observed p50/p95/p99 latency, the run's
// cache hit rate, and the replication overhead gauges (disk-bytes,
// write-amp); the tuned-r2 variant repeats the tuned configuration over an
// r=2 replicated layout so the r=1 vs r=2 qps and storage cost land in
// BENCH_server.json.
//
//	go test -bench=ServerThroughput -benchtime=2000x
func BenchmarkServerThroughput(b *testing.B) {
	configs := []struct {
		name     string
		replicas int
		pipeline int
		workers  int // closed-loop workers (0 = one per connection)
		cfg      server.Config
	}{
		{"baseline", 1, 0, 0, server.Config{MaxInflight: 32, CacheBytes: -1}},
		{"tuned", 1, 0, 0, server.Config{MaxInflight: 32}},
		// Tuned defaults with every query stage-traced: quantifies the
		// observability overhead and lands the per-stage medians
		// (<stage>-p50-us) in BENCH_server.json for regression bisection.
		{"traced", 1, 0, 0, server.Config{MaxInflight: 32, TraceSample: 1}},
		// Tuned defaults over an r=2 replicated layout with no disk failed:
		// together with the disk-bytes and write-amp gauges this lands the
		// replication overhead (storage and fault-free qps cost of load-aware
		// owner selection) in BENCH_server.json next to the r=1 rows.
		{"tuned-r2", 2, 0, 0, server.Config{MaxInflight: 32}},
		// Tuned defaults with request pipelining: 64 closed-loop workers
		// multiplexed over the same 8 connections, each connection keeping up
		// to 32 tagged requests in flight; the server executes them
		// concurrently and its per-connection writer coalesces adjacent
		// responses into single writev submissions. Without pipelining, 8
		// connections cap the in-flight work at 8 — the delta against
		// "tuned" is what the pipelined serving path buys from the same
		// sockets.
		{"tuned-pipelined", 1, 32, 64, server.Config{MaxInflight: 64}},
	}
	for _, scheme := range []string{"minimax", "DM/D"} {
		for _, c := range configs {
			b.Run(strings.ReplaceAll(scheme, "/", "-")+"/"+c.name, func(b *testing.B) {
				f, err := synth.Uniform2D(3000, 7).Build()
				if err != nil {
					b.Fatal(err)
				}
				g := core.FromGridFile(f)
				var allocator core.Allocator
				if scheme == "minimax" {
					allocator = &core.Minimax{Seed: 1}
				} else {
					allocator, err = core.NewIndexBased("DM", "D", 1)
					if err != nil {
						b.Fatal(err)
					}
				}
				alloc, err := allocator.Decluster(g, 8)
				if err != nil {
					b.Fatal(err)
				}
				dir := b.TempDir()
				if c.replicas > 1 {
					p := replica.Placer{Replicas: c.replicas}
					rm, err := p.Place(g, alloc)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
						b.Fatal(err)
					}
				} else if _, err := store.Write(dir, f, alloc, 4096); err != nil {
					b.Fatal(err)
				}
				s, err := server.OpenDir(dir, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				cl, err := server.NewClient(server.ClientConfig{
					Addr: s.Addr().String(), PoolSize: 8, Pipeline: c.pipeline,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				ranges := workload.SquareRange(f.Domain(), 0.02, 512, 3)

				clients := c.workers
				if clients == 0 {
					clients = 8
				}
				var next atomic.Int64
				var wg sync.WaitGroup
				lats := make([][]float64, clients) // per-worker, merged after
				b.ResetTimer()
				start := time.Now()
				for w := 0; w < clients; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							i := int(next.Add(1)) - 1
							if i >= b.N {
								return
							}
							t0 := time.Now()
							if _, _, err := cl.RangeCount(ranges[i%len(ranges)]); err != nil {
								b.Error(err)
								return
							}
							lats[w] = append(lats[w], float64(time.Since(t0).Microseconds())/1000)
						}
					}(w)
				}
				wg.Wait()
				elapsed := time.Since(start)

				var all []float64
				for _, l := range lats {
					all = append(all, l...)
				}
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
				b.ReportMetric(stats.Percentile(all, 50), "p50-ms")
				b.ReportMetric(stats.Percentile(all, 95), "p95-ms")
				b.ReportMetric(stats.Percentile(all, 99), "p99-ms")
				snap := s.Snapshot()
				hitRate := 0.0
				if cs := snap.Cache; cs != nil {
					if total := cs.Hits + cs.Shared + cs.Misses; total > 0 {
						hitRate = float64(cs.Hits+cs.Shared) / float64(total)
					}
				}
				b.ReportMetric(hitRate, "cache-hit-rate")
				// Replication overhead: total bytes across per-disk files and
				// the write amplification factor (total/unique pages). 1.0 at
				// r=1; the r=2 row shows the storage price of failover.
				b.ReportMetric(float64(snap.DiskBytes), "disk-bytes")
				b.ReportMetric(snap.WriteAmp, "write-amp")
				// The stage histograms observe nanoseconds (DESIGN S26); the
				// µs medians reported here come from the derived scaled view.
				for name, q := range snap.StagesMicros {
					b.ReportMetric(q.P50, name+"-p50-us")
				}
			})
		}
	}
}

// BenchmarkServerOpenLoop measures the serving path under the open-loop
// harness (internal/loadgen, DESIGN S26): b.N queries arrive on a seeded
// Poisson schedule at a fixed offered rate, pipelined 32-deep per
// connection, and every latency is measured from the query's intended send
// time — so percentiles here include queueing delay the closed-loop
// BenchmarkServerThroughput structurally cannot see. Variants cover both
// declustering schemes at r=1 and r=2; achieved-qps falling below
// offered-qps is the saturation signature.
//
//	go test -bench=ServerOpenLoop -benchtime=2000x
func BenchmarkServerOpenLoop(b *testing.B) {
	const offeredRate = 15000 // high enough to stress, low enough to sustain
	for _, scheme := range []string{"minimax", "DM/D"} {
		for _, replicas := range []int{1, 2} {
			name := fmt.Sprintf("%s/r%d", strings.ReplaceAll(scheme, "/", "-"), replicas)
			b.Run(name, func(b *testing.B) {
				f, err := synth.Uniform2D(3000, 7).Build()
				if err != nil {
					b.Fatal(err)
				}
				g := core.FromGridFile(f)
				var allocator core.Allocator
				if scheme == "minimax" {
					allocator = &core.Minimax{Seed: 1}
				} else {
					allocator, err = core.NewIndexBased("DM", "D", 1)
					if err != nil {
						b.Fatal(err)
					}
				}
				alloc, err := allocator.Decluster(g, 8)
				if err != nil {
					b.Fatal(err)
				}
				dir := b.TempDir()
				if replicas > 1 {
					p := replica.Placer{Replicas: replicas}
					rm, err := p.Place(g, alloc)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
						b.Fatal(err)
					}
				} else if _, err := store.Write(dir, f, alloc, 4096); err != nil {
					b.Fatal(err)
				}
				s, err := server.OpenDir(dir, server.Config{MaxInflight: 64})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				cl, err := server.NewClient(server.ClientConfig{
					Addr: s.Addr().String(), PoolSize: 4, Pipeline: 32,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				ranges := workload.SquareRange(f.Domain(), 0.02, 512, 3)

				b.ResetTimer()
				res, err := loadgen.Run(context.Background(), loadgen.Options{
					Rate: offeredRate, N: b.N, Seed: 3, MaxInFlight: 512,
				}, func(ctx context.Context, i int) error {
					_, _, err := cl.RangeCountCtx(ctx, ranges[i%len(ranges)])
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Errors > 0 {
					b.Fatalf("open-loop run hit %d errors", res.Errors)
				}
				msOf := func(d time.Duration) float64 { return float64(d) / 1e6 }
				b.ReportMetric(res.Offered, "offered-qps")
				b.ReportMetric(res.Achieved, "achieved-qps")
				b.ReportMetric(msOf(res.Latency.P50), "p50-ms")
				b.ReportMetric(msOf(res.Latency.P99), "p99-ms")
				b.ReportMetric(msOf(res.Latency.P999), "p999-ms")
				b.ReportMetric(msOf(res.MaxLag), "max-lag-ms")
			})
		}
	}
}
