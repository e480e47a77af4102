package gridfile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pgridfile/internal/geom"
)

func TestScanVisitsEverything(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 400, 201)
	count := 0
	f.Scan(func([]float64) bool {
		count++
		return true
	})
	if count != 400 {
		t.Errorf("Scan visited %d records, want 400", count)
	}
	// Early stop.
	count = 0
	f.Scan(func([]float64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-stopped Scan visited %d records", count)
	}
}

// bruteKNN is the oracle: sort all points by distance.
func bruteKNN(pts []geom.Point, p geom.Point, k int) []float64 {
	dists := make([]float64, len(pts))
	for i, q := range pts {
		d := 0.0
		for j := range q {
			diff := q[j] - p[j]
			d += diff * diff
		}
		dists[i] = math.Sqrt(d)
	}
	sort.Float64s(dists)
	if len(dists) > k {
		dists = dists[:k]
	}
	return dists
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		f := newTestFile(t, dims, 6)
		pts := insertUniform(t, f, 800, int64(300+dims))
		rng := rand.New(rand.NewSource(17))
		dom := f.Domain()
		for trial := 0; trial < 30; trial++ {
			p := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				p[d] = dom[d].Lo + rng.Float64()*dom[d].Length()
			}
			for _, k := range []int{1, 5, 17} {
				got := f.NearestNeighbors(p, k)
				want := bruteKNN(pts, p, k)
				if len(got) != len(want) {
					t.Fatalf("dims=%d k=%d: got %d neighbours, want %d", dims, k, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i].Distance-want[i]) > 1e-9 {
						t.Fatalf("dims=%d k=%d trial=%d: neighbour %d at distance %v, want %v",
							dims, k, trial, i, got[i].Distance, want[i])
					}
				}
				// Results sorted ascending.
				for i := 1; i < len(got); i++ {
					if got[i].Distance < got[i-1].Distance {
						t.Fatalf("results not sorted at %d", i)
					}
				}
			}
		}
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	f := newTestFile(t, 2, 4)
	if got := f.NearestNeighbors(geom.Point{1, 1}, 3); got != nil {
		t.Error("k-NN on empty file returned results")
	}
	insertUniform(t, f, 5, 401)
	// k larger than the file.
	got := f.NearestNeighbors(geom.Point{1000, 1000}, 50)
	if len(got) != 5 {
		t.Errorf("k=50 on 5 records returned %d", len(got))
	}
	if f.NearestNeighbors(geom.Point{1, 1}, 0) != nil {
		t.Error("k=0 returned results")
	}
	if f.NearestNeighbors(geom.Point{-10, 1}, 1) != nil {
		t.Error("out-of-domain query returned results")
	}
	if f.NearestNeighbors(geom.Point{1}, 1) != nil {
		t.Error("wrong-dimension query returned results")
	}
}

func TestNearestNeighborExactPoint(t *testing.T) {
	f := newTestFile(t, 2, 4)
	pts := insertUniform(t, f, 300, 501)
	for _, p := range pts[:20] {
		got := f.NearestNeighbors(p, 1)
		if len(got) != 1 || got[0].Distance != 0 {
			t.Fatalf("nearest of an indexed point %v: %+v", p, got)
		}
	}
}

func TestBulkLoadEquivalence(t *testing.T) {
	cfg := Config{
		Dims:           2,
		Domain:         domain2D(),
		BucketCapacity: 8,
	}
	rng := rand.New(rand.NewSource(601))
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = Record{Key: geom.Point{rng.Float64() * 2000, rng.Float64() * 2000}}
	}
	bulk, err := BulkLoad(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != len(recs) {
		t.Fatalf("bulk file has %d records", bulk.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}

	incr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := incr.InsertAll(recs); err != nil {
		t.Fatal(err)
	}

	// Same answers to every query.
	qrng := rand.New(rand.NewSource(602))
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(qrng, bulk.Domain())
		if a, b := bulk.RangeCount(q), incr.RangeCount(q); a != b {
			t.Fatalf("trial %d: bulk %d records, incremental %d", trial, a, b)
		}
	}
	// Structure lands in the same class (bucket counts within 40%).
	nb, ni := bulk.NumBuckets(), incr.NumBuckets()
	lo, hi := ni*6/10, ni*14/10
	if nb < lo || nb > hi {
		t.Errorf("bulk %d buckets vs incremental %d: structures diverge", nb, ni)
	}
}

func TestBulkLoadEmptyAndErrors(t *testing.T) {
	cfg := Config{Dims: 2, Domain: domain2D(), BucketCapacity: 4}
	f, err := BulkLoad(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Error("empty bulk load has records")
	}
	if _, err := BulkLoad(cfg, []Record{{Key: geom.Point{-5, 0}}}); err == nil {
		t.Error("out-of-domain record accepted")
	}
	if _, err := BulkLoad(Config{Dims: 0}, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestBulkLoadHighDimensionalFallback(t *testing.T) {
	const dims = 16 // 16 dims forces bits down to 4; still a valid curve
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for i := range hi {
		hi[i] = 10
	}
	cfg := Config{Dims: dims, Domain: geom.NewRect(lo, hi), BucketCapacity: 8}
	rng := rand.New(rand.NewSource(603))
	recs := make([]Record, 200)
	for i := range recs {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 10
		}
		recs[i] = Record{Key: p}
	}
	f, err := BulkLoad(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 200 {
		t.Fatalf("loaded %d records", f.Len())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
