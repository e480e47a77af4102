package sim

import (
	"math"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

func buildHot(t *testing.T) (*gridfile.File, core.Grid) {
	t.Helper()
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	return f, core.FromGridFile(f)
}

func TestReplayBasics(t *testing.T) {
	f, g := buildHot(t)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.SquareRange(f.Domain(), 0.05, 200, 7)
	res, err := Replay(f, alloc, f.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 200 {
		t.Errorf("Queries = %d", res.Queries)
	}
	if res.MeanResponseTime < res.MeanOptimal {
		t.Errorf("response time %.3f below optimal %.3f", res.MeanResponseTime, res.MeanOptimal)
	}
	if res.MeanResponseTime > res.MeanBuckets {
		t.Errorf("response time %.3f above total buckets %.3f", res.MeanResponseTime, res.MeanBuckets)
	}
	if res.MeanBuckets <= 0 {
		t.Error("no buckets accessed")
	}
	if res.MaxResponseTime < int(math.Ceil(res.MeanResponseTime)) {
		t.Error("max below mean")
	}
}

func TestReplaySingleDiskEqualsBucketCount(t *testing.T) {
	f, g := buildHot(t)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.SquareRange(f.Domain(), 0.05, 50, 9)
	res, err := Replay(f, alloc, f.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseTime != res.MeanBuckets {
		t.Errorf("1 disk: response %.3f != buckets %.3f", res.MeanResponseTime, res.MeanBuckets)
	}
	if res.MeanOptimal != res.MeanBuckets {
		t.Errorf("1 disk: optimal %.3f != buckets %.3f", res.MeanOptimal, res.MeanBuckets)
	}
}

func TestReplayEmptyWorkloadErrors(t *testing.T) {
	f, g := buildHot(t)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	if _, err := Replay(f, alloc, f.IndexByID(), nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestMoreDisksNeverHurtMinimax(t *testing.T) {
	f, g := buildHot(t)
	queries := workload.SquareRange(f.Domain(), 0.05, 300, 11)
	prev := math.Inf(1)
	for _, m := range []int{4, 8, 16, 32} {
		alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(f, alloc, f.IndexByID(), queries)
		if err != nil {
			t.Fatal(err)
		}
		// Allow a little noise but the trend must be non-increasing.
		if res.MeanResponseTime > prev*1.05 {
			t.Errorf("m=%d: response %.3f noticeably above previous %.3f", m, res.MeanResponseTime, prev)
		}
		prev = res.MeanResponseTime
	}
}

func TestDataBalanceDegree(t *testing.T) {
	perfect := core.Allocation{Disks: 4, Assign: []int{0, 1, 2, 3, 0, 1, 2, 3}}
	if got := DataBalanceDegree(perfect); got != 1 {
		t.Errorf("perfect balance degree = %v, want 1", got)
	}
	skewed := core.Allocation{Disks: 4, Assign: []int{0, 0, 0, 0, 0, 0, 1, 2}}
	// loads 6,1,1,0: Bmax*M/Bsum = 6*4/8 = 3.
	if got := DataBalanceDegree(skewed); got != 3 {
		t.Errorf("skewed balance degree = %v, want 3", got)
	}
	if got := DataBalanceDegree(core.Allocation{Disks: 2}); got != 0 {
		t.Errorf("empty allocation degree = %v, want 0", got)
	}
}

func TestClosestPairsSameDisk(t *testing.T) {
	// 1-D line of 8 cells: closest companion of each cell is a neighbour.
	dom := geom.NewRect([]float64{0}, []float64{8})
	c, err := gridfile.NewCartesian([]int{8}, dom)
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromCartesian(c)
	// Round-robin over 2 disks: neighbours always on different disks.
	rr := core.Allocation{Disks: 2, Assign: []int{0, 1, 0, 1, 0, 1, 0, 1}}
	if got := ClosestPairsSameDisk(g, rr, nil); got != 0 {
		t.Errorf("round-robin closest pairs = %d, want 0", got)
	}
	// Blocked: first half disk 0, second half disk 1 -> every bucket's
	// neighbour shares the disk except at the boundary.
	blocked := core.Allocation{Disks: 2, Assign: []int{0, 0, 0, 0, 1, 1, 1, 1}}
	got := ClosestPairsSameDisk(g, blocked, nil)
	if got < 6 {
		t.Errorf("blocked closest pairs = %d, want >= 6", got)
	}
}

func TestMinimaxBeatsBlockedOnClosestPairs(t *testing.T) {
	_, g := buildHot(t)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	mm := ClosestPairsSameDisk(g, alloc, nil)
	// Paper: minimax keeps this near zero even for hundreds of buckets.
	if mm > len(g.Buckets)/20 {
		t.Errorf("minimax closest pairs %d of %d buckets", mm, len(g.Buckets))
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 25); got != 4 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Errorf("Speedup by zero = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	f, g := buildHot(t)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.SquareRange(f.Domain(), 0.05, 200, 7)
	res, err := Replay(f, alloc, f.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.Percentile(50)
	p95 := res.Percentile(95)
	p100 := res.Percentile(100)
	if p50 > p95 || p95 > p100 {
		t.Errorf("percentiles not monotone: p50=%d p95=%d p100=%d", p50, p95, p100)
	}
	if p100 != res.MaxResponseTime {
		t.Errorf("p100 = %d, max = %d", p100, res.MaxResponseTime)
	}
	if float64(p50) > res.MeanBuckets+1 && res.MeanBuckets > 0 {
		t.Errorf("median %d implausible vs mean buckets %.2f", p50, res.MeanBuckets)
	}
	// Degenerate arguments.
	if res.Percentile(0) != 0 {
		t.Error("p0 should be 0")
	}
	if res.Percentile(150) != res.MaxResponseTime {
		t.Error("p>100 should clamp to the max")
	}
	if (Result{}).Percentile(50) != 0 {
		t.Error("empty result percentile nonzero")
	}
}

func TestTailIsWorseForUnbalancedAllocations(t *testing.T) {
	f, g := buildHot(t)
	queries := workload.SquareRange(f.Domain(), 0.05, 300, 13)
	mm, err := (&core.Minimax{Seed: 1}).Decluster(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := (&core.MST{Seed: 1}).Decluster(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	rMM, err := Replay(f, mm, f.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	rMST, err := Replay(f, mst, f.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if rMST.Percentile(95) < rMM.Percentile(95) {
		t.Errorf("MST p95 %d below minimax p95 %d despite unbalanced partitions",
			rMST.Percentile(95), rMM.Percentile(95))
	}
}

// serialNearestCompanions is the pre-engine reference scan, kept in the test
// to pin NearestCompanions' output against.
func serialNearestCompanions(g core.Grid) []int {
	n := len(g.Buckets)
	nn := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestVal := -1, -1.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if v := geom.Proximity(g.Buckets[i].Region, g.Buckets[j].Region, g.Domain); v > bestVal {
				best, bestVal = j, v
			}
		}
		nn[i] = best
	}
	return nn
}

// TestNearestCompanionsMatchesSerial is the regression test for the
// engine-backed NearestCompanions: on the paper's uniform.2d and hot.2d
// grids it must reproduce the serial reference exactly.
func TestNearestCompanionsMatchesSerial(t *testing.T) {
	datasets := map[string]*synth.Dataset{
		"uniform.2d": synth.Uniform2D(3000, 5),
		"hot.2d":     synth.Hotspot2D(3000, 5),
	}
	for name, ds := range datasets {
		f, err := ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := core.FromGridFile(f)
		want := serialNearestCompanions(g)
		got := NearestCompanions(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: companion[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestResponseSpansByHand costs one query on a six-bucket, two-disk layout
// worked out by hand, at read-through 0 and 2.
func TestResponseSpansByHand(t *testing.T) {
	// Disk 0 holds buckets 0,2,4 and disk 1 holds 1,3,5, appended in the
	// order 4,0,1,2,3,5; bucket 0 takes two pages.
	alloc := core.Allocation{Disks: 2, Assign: []int{0, 1, 0, 1, 0, 1}}
	lay := LayoutInOrder(alloc, []int{4, 0, 1, 2, 3, 5}, []int{2, 1, 1, 1, 1, 1})
	wantPage := []int64{1, 0, 3, 1, 0, 2} // disk 0: 4@0 0@1-2 2@3; disk 1: 1@0 3@1 5@2
	for i, p := range lay.Page {
		if p != wantPage[i] {
			t.Fatalf("bucket %d laid at page %d, want %d", i, p, wantPage[i])
		}
	}
	// The query wants 4 and 2 on disk 0 (pages 0 and 3: a two-page gap) and
	// 1, 3 on disk 1 (pages 0, 1: adjacent).
	q := []int{2, 1, 4, 3}
	if got, want := ResponseSpans(q, alloc, lay, 0), (QuerySpans{Busiest: 2, Total: 3}); got != want {
		t.Errorf("exact adjacency: %+v, want %+v", got, want)
	}
	if got, want := ResponseSpans(q, alloc, lay, 2), (QuerySpans{Busiest: 1, Total: 2, GapPages: 2}); got != want {
		t.Errorf("read-through 2: %+v, want %+v", got, want)
	}
	if got, want := ResponseSpans(q, alloc, lay, 1), (QuerySpans{Busiest: 2, Total: 3}); got != want {
		t.Errorf("read-through 1 must not cross a two-page gap: %+v, want %+v", got, want)
	}
}

// TestReplaySpansBounds ties the span metric to the bucket metric: a query
// never needs more spans on a disk than buckets, and with unlimited
// read-through it needs exactly one span per active disk.
func TestReplaySpansBounds(t *testing.T) {
	f, g := buildHot(t)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	order, ones := make([]int, len(g.Buckets)), make([]int, len(g.Buckets))
	for i := range order {
		order[i], ones[i] = i, 1
	}
	lay := LayoutInOrder(alloc, order, ones)
	queries := workload.SquareRange(f.Domain(), 0.05, 200, 7)
	idx := f.IndexByID()
	res, err := Replay(f, alloc, idx, queries)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ReplaySpans(f, alloc, idx, queries, lay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.MeanResponseSpans > res.MeanResponseTime || exact.MeanSpans > res.MeanBuckets || exact.MeanGapPages != 0 {
		t.Errorf("exact adjacency: %+v against %.3f buckets on the busiest disk, %.3f in all", exact, res.MeanResponseTime, res.MeanBuckets)
	}
	all, err := ReplaySpans(f, alloc, idx, queries, lay, len(g.Buckets))
	if err != nil {
		t.Fatal(err)
	}
	var activeDisks float64
	for _, q := range queries {
		active := map[int]bool{}
		for _, id := range f.BucketsInRange(q) {
			active[alloc.Assign[idx[id]]] = true
		}
		activeDisks += float64(len(active))
	}
	activeDisks /= float64(len(queries))
	if all.MeanResponseSpans != 1 || all.MeanSpans != activeDisks {
		t.Errorf("unlimited read-through: %+v, want 1 span on each of %.3f active disks", all, activeDisks)
	}
	if _, err := ReplaySpans(f, alloc, idx, nil, lay, 0); err == nil {
		t.Error("empty workload accepted")
	}
}
