package pgridfile

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations from DESIGN.md and micro-benchmarks of the core algorithms.
// Each experiment benchmark regenerates its artifact at benchmark scale
// (benchOptions: ~1/8 datasets, 150 queries, four disk counts — the shapes
// are preserved) and reports headline metrics via ReportMetric:
//
//	rt@32disks      mean response time (buckets) at the largest disk count
//	opt@32disks     the optimal reference at the same point
//	balance@32      degree of data balance
//	pairs@32        closest pairs co-located
//
// Run: go test -bench=. -benchmem

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/experiments"
	"pgridfile/internal/replica"
	"pgridfile/internal/sim"
	"pgridfile/internal/stats"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

var benchOptions = experiments.Options{Seed: 1996, Queries: 150, Scale: 0.125, Disks: []int{4, 8, 16, 32}}

// runExperiment executes one experiment driver b.N times and returns the
// last run's tables for metric extraction.
func runExperiment(b *testing.B, id string) []*stats.Table {
	b.Helper()
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchOptions)
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
		lab := experiments.NewLab(benchOptions)
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

func BenchmarkOptimalityGap(b *testing.B) {
	runExperiment(b, "optimality")
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

// BenchmarkSetupPipeline times, stage by stage, the set-up the repo
// benchmark's setup_s measures: 400 k hot.2d records → grid file build →
// minimax on 8 disks → an r = 2 replica placement of that allocation (the
// write-mix workload's layout; the layout written here stays r = 1) →
// store.Write → store.Open. It reports each stage's
// milliseconds, the megabytes the build allocates and the megabytes of disk
// files the layout holds, so a set-up regression — a stage that stops being
// linear in its input — shows in `make bench`. It fails when the layout
// takes more than twice its keys' bytes: pages padded far beyond what a full
// bucket needs (4 KiB pages held these 2-D buckets at about 6.5×).
func BenchmarkSetupPipeline(b *testing.B) {
	const records, disks, pageBytes = 400_000, 8, 4096
	dir := b.TempDir()
	var synthMS, buildMS, declusterMS, placeMS, writeMS, openMS, buildMB, layoutMB float64
	for i := 0; i < b.N; i++ {
		t := time.Now()
		lap := func() float64 {
			ms := float64(time.Since(t)) / float64(time.Millisecond)
			t = time.Now()
			return ms
		}
		ds := synth.Hotspot2D(records, 1)
		synthMS += lap()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := ds.Build()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		buildMS += lap()
		buildMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6

		g := core.FromGridFile(f)
		alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
		if err != nil {
			b.Fatal(err)
		}
		declusterMS += lap()

		if _, err := (&replica.Placer{Replicas: 2}).Place(g, alloc); err != nil {
			b.Fatal(err)
		}
		placeMS += lap()

		if _, err := store.Write(dir, f, alloc, pageBytes); err != nil {
			b.Fatal(err)
		}
		writeMS += lap()

		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		openMS += lap()
		if st.Grid().Len() != records {
			b.Fatalf("opened %d records, want %d", st.Grid().Len(), records)
		}
		pages, err := st.DiskSizes()
		page := int64(st.Manifest().PageBytes)
		st.Close()
		if err != nil {
			b.Fatal(err)
		}
		var layout int64
		for _, n := range pages {
			layout += n * page
		}
		if keys := int64(records * f.Dims() * 8); layout > 2*keys {
			b.Fatalf("layout holds %d bytes of disk files for %d bytes of keys: over 2×", layout, keys)
		}
		layoutMB += float64(layout) / 1e6
	}
	n := float64(b.N)
	b.ReportMetric(synthMS/n, "synth-ms")
	b.ReportMetric(buildMS/n, "build-ms")
	b.ReportMetric(declusterMS/n, "decluster-ms")
	b.ReportMetric(placeMS/n, "place-ms")
	b.ReportMetric(writeMS/n, "write-ms")
	b.ReportMetric(openMS/n, "open-ms")
	b.ReportMetric(buildMB/n, "build-MB")
	b.ReportMetric(layoutMB/n, "layout-MB")
}
