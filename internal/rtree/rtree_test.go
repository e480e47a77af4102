package rtree

import (
	"math/rand"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

func randomPoints(n, dims int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 2000
		}
		pts[i] = p
	}
	return pts
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoad(nil, Config{LeafCapacity: 4}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := BulkLoad(randomPoints(10, 2, 1), Config{LeafCapacity: 1}); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := BulkLoad(randomPoints(10, 2, 1), Config{LeafCapacity: 4, Fanout: 1}); err == nil {
		t.Error("fanout 1 accepted")
	}
	mixed := []geom.Point{{1, 2}, {3}}
	if _, err := BulkLoad(mixed, Config{LeafCapacity: 4}); err == nil {
		t.Error("mixed dimensionality accepted")
	}
	if _, err := BulkLoad(randomPoints(10, 2, 1), Config{
		LeafCapacity: 4, Domain: geom.NewRect([]float64{0}, []float64{1}),
	}); err == nil {
		t.Error("domain dimensionality mismatch accepted")
	}
}

func TestLeafCapacityAndCoverage(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		pts := randomPoints(2000, dims, int64(dims))
		tr, err := BulkLoad(pts, Config{LeafCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, v := range tr.Leaves() {
			if v.Records > 16 {
				t.Fatalf("leaf %d holds %d points, capacity 16", v.ID, v.Records)
			}
			total += v.Records
		}
		if total != 2000 {
			t.Fatalf("leaves hold %d points", total)
		}
		// A full-domain query touches all leaves and counts all points.
		if got := tr.RangeCount(tr.Domain()); got != 2000 {
			t.Fatalf("full-domain RangeCount = %d", got)
		}
		if got := len(tr.BucketsInRange(tr.Domain())); got != tr.NumLeaves() {
			t.Fatalf("full-domain query hit %d of %d leaves", got, tr.NumLeaves())
		}
	}
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	pts := randomPoints(3000, 2, 7)
	tr, err := BulkLoad(pts, Config{LeafCapacity: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		q := make(geom.Rect, 2)
		for d := range q {
			a := rng.Float64() * 2000
			b := a + rng.Float64()*600
			q[d] = geom.Interval{Lo: a, Hi: b}
		}
		want := 0
		for _, p := range pts {
			if q.ContainsPoint(p) {
				want++
			}
		}
		if got := tr.RangeCount(q); got != want {
			t.Fatalf("trial %d: RangeCount = %d, brute force %d", trial, got, want)
		}
	}
}

func TestSTRTilesAreLocal(t *testing.T) {
	// STR packing should produce leaves whose MBR area is tiny relative to
	// the domain (tight tiles, not slivers spanning the space).
	pts := randomPoints(4000, 2, 9)
	tr, err := BulkLoad(pts, Config{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	domainArea := tr.Domain().Volume()
	leaves := tr.Leaves()
	var totalArea float64
	for _, v := range leaves {
		totalArea += v.Region.Volume()
	}
	// Perfect tiling sums to the domain area; STR should stay within ~2x.
	if totalArea > 2*domainArea {
		t.Errorf("leaf MBRs sum to %.0f, domain area %.0f: tiles overlap heavily",
			totalArea, domainArea)
	}
	if tr.Height() < 2 {
		t.Errorf("tree of %d leaves has height %d", tr.NumLeaves(), tr.Height())
	}
}

func TestDeclusterRTreeLeaves(t *testing.T) {
	// The paper's proximity-based algorithms apply to R-tree leaves
	// unchanged; minimax must beat the centroid-curve baseline on closest
	// pairs, mirroring the grid-file result.
	ds := synth.Stock3D(60, 80, 11)
	pts := make([]geom.Point, len(ds.Records))
	for i, r := range ds.Records {
		pts[i] = r.Key
	}
	tr, err := BulkLoad(pts, Config{LeafCapacity: 64, Domain: ds.Domain})
	if err != nil {
		t.Fatal(err)
	}
	g := core.Grid{
		Sizes:   make([]int, tr.Dims()), // no grid: cells unused
		Domain:  tr.Domain(),
		Buckets: tr.Leaves(),
	}
	for i := range g.Sizes {
		g.Sizes[i] = 1
	}

	const disks = 16
	mm, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := (&core.CentroidCurve{}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	nn := sim.NearestCompanions(g)
	mmPairs := sim.CountSameDisk(nn, mm)
	ccPairs := sim.CountSameDisk(nn, cc)
	if mmPairs > ccPairs {
		t.Errorf("minimax closest pairs %d above centroid-curve %d", mmPairs, ccPairs)
	}

	// Replay a workload through the generalized simulator.
	queries := workload.SquareRange(tr.Domain(), 0.01, 300, 13)
	resMM, err := sim.ReplaySource(tr, mm, tr.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	resCC, err := sim.ReplaySource(tr, cc, tr.IndexByID(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if resMM.MeanResponseTime > resCC.MeanResponseTime*1.1 {
		t.Errorf("minimax response %.3f clearly above centroid-curve %.3f",
			resMM.MeanResponseTime, resCC.MeanResponseTime)
	}
}

func TestCentroidCurveBalanced(t *testing.T) {
	pts := randomPoints(1500, 2, 21)
	tr, err := BulkLoad(pts, Config{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := core.Grid{Sizes: []int{1, 1}, Domain: tr.Domain(), Buckets: tr.Leaves()}
	alloc, err := (&core.CentroidCurve{}).Decluster(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	loads := alloc.DiskLoads()
	max, min := loads[0], loads[0]
	for _, l := range loads {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if max-min > 1 {
		t.Errorf("round-robin loads uneven: %v", loads)
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	tr, err := BulkLoad(randomPoints(100, 2, 31), Config{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ids := tr.BucketsInRange(geom.Rect{{Lo: 0, Hi: 1}}); ids != nil {
		t.Error("1-D query on 2-D tree returned leaves")
	}
}

func TestPropertySTRInvariantsAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		dims := 1 + rng.Intn(3)
		n := 100 + rng.Intn(3000)
		capacity := 2 + rng.Intn(60)
		pts := randomPoints(n, dims, int64(trial))
		tr, err := BulkLoad(pts, Config{LeafCapacity: capacity})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := 0
		for _, v := range tr.Leaves() {
			if v.Records > capacity {
				t.Fatalf("trial %d: leaf over capacity", trial)
			}
			if v.Records == 0 {
				t.Fatalf("trial %d: empty leaf", trial)
			}
			total += v.Records
			// Every leaf MBR must lie inside the inferred domain.
			if !tr.Domain().Intersects(v.Region) {
				t.Fatalf("trial %d: leaf MBR outside domain", trial)
			}
		}
		if total != n {
			t.Fatalf("trial %d: leaves hold %d of %d points", trial, total, n)
		}
		// Random point queries: a degenerate box at an indexed point finds it.
		for probe := 0; probe < 10; probe++ {
			p := pts[rng.Intn(len(pts))]
			q := make(geom.Rect, dims)
			for d := range q {
				q[d] = geom.Interval{Lo: p[d], Hi: p[d]}
			}
			if tr.RangeCount(q) < 1 {
				t.Fatalf("trial %d: indexed point not found", trial)
			}
		}
	}
}
