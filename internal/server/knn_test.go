package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// TestKNNMatchesGridFile holds the served kNN to the grid file's own
// NearestNeighbors on lattice data, where most keys have many equidistant
// neighbours and which of the tied rows come back is the search's choice:
// the served distances must be ascending and, as a multiset, equal to the
// grid file's, and every row a stored record. k runs from 1 through more
// than one probe's rows to more than the whole file (the exit where the
// probe box covers the domain). Each query is asked twice, so the second
// answer comes from the cache. Every probe reads its whole box, so the
// buckets a kNN reports are the sum of its probes' boxes; k = 60 and k = 250
// must take more than one probe, the cases where a probe re-reads the one
// before it.
func TestKNNMatchesGridFile(t *testing.T) {
	const side = 30 // a side × side lattice on [0, side-1]²
	var recs []gridfile.Record
	stored := map[[2]float64]int{}
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			recs = append(recs, gridfile.Record{Key: geom.Point{float64(x), float64(y)}})
			stored[[2]float64{float64(x), float64(y)}]++
		}
	}
	f, err := gridfile.BulkLoad(gridfile.Config{
		Dims:           2,
		Domain:         geom.Rect{{Lo: 0, Hi: side - 1}, {Lo: 0, Hi: side - 1}},
		BucketCapacity: 16,
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	s := engineAt(t, writeTestLayout(t, f, 4, 1), Config{})

	keys := []geom.Point{
		{0, 0}, {side - 1, side - 1}, {14, 15}, // on lattice points, corners included
		{14.5, 14.5}, {0.5, 20.5}, {7, 7.5}, // between them: four and two rows tie at every distance
	}
	for _, k := range []int{1, 4, 9, 60, 250, side*side + 100} {
		for _, key := range keys {
			t.Run(fmt.Sprintf("k=%d/%v", k, key), func(t *testing.T) {
				want := f.NearestNeighbors(key, k)
				if len(want) != min(k, side*side) {
					t.Fatalf("grid file found %d neighbours, want %d", len(want), min(k, side*side))
				}
				probes, buckets := knnProbes(s.st.Grid(), key, k, want)
				if (k == 60 || k == 250) && probes < 2 {
					t.Fatalf("%d probe, want more than one", probes)
				}
				for pass := 0; pass < 2; pass++ {
					fr, err := encodeRequest(Request{Verb: VerbKNN, Key: key, K: k})
					if err != nil {
						t.Fatal(err)
					}
					out := s.exec(nil, fr)
					res, err := DecodeResult(Frame{Verb: Verb(out[0]), Payload: out[1:]})
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					if res.Count != len(want) || len(res.Points) != len(want) {
						t.Fatalf("pass %d: %d rows (count %d), want %d", pass, len(res.Points), res.Count, len(want))
					}
					got := make([]float64, len(res.Points))
					for i, p := range res.Points {
						if stored[[2]float64{p[0], p[1]}] == 0 {
							t.Fatalf("pass %d: row %v is not a stored record", pass, p)
						}
						got[i] = euclid(p, key)
					}
					if !slices.IsSorted(got) {
						t.Fatalf("pass %d: distances not ascending: %v", pass, got)
					}
					for i, n := range want {
						if got[i] != n.Distance {
							t.Fatalf("pass %d: distance %d is %v, the grid file's %v", pass, i, got[i], n.Distance)
						}
					}
					if seen := countDistinct(res.Points); seen != len(res.Points) {
						t.Fatalf("pass %d: %d rows, %d distinct: a row came back twice", pass, len(res.Points), seen)
					}
					if res.Info.Buckets != buckets {
						t.Fatalf("pass %d: %d buckets read, want %d over %d whole-box probes", pass, res.Info.Buckets, buckets, probes)
					}
				}
			})
		}
	}
}

// knnProbes replays the probe boxes knnQuery grows around key on grid g: the
// first reaches one average cell extent from key, each next twice as far,
// and the last is the first whose radius reaches the k-th distance in want
// (the grid file's own answer) or that covers the domain. It returns how many probes that
// takes and the buckets they read between them.
func knnProbes(g *gridfile.File, key geom.Point, k int, want []gridfile.Neighbor) (probes, buckets int) {
	dom := g.Domain()
	r := 0.0
	for d, n := range g.CellSizes() {
		r = max(r, dom[d].Length()/float64(n))
	}
	q := make(geom.Rect, len(key))
	for ; ; r *= 2 {
		covers := true
		for d := range key {
			q[d] = geom.Interval{Lo: max(key[d]-r, dom[d].Lo), Hi: min(key[d]+r, dom[d].Hi)}
			covers = covers && q[d].Lo <= dom[d].Lo && q[d].Hi >= dom[d].Hi
		}
		probes++
		buckets += len(g.BucketsInRange(q))
		if covers || (len(want) == k && want[k-1].Distance <= r) {
			return probes, buckets
		}
	}
}

func countDistinct(pts []geom.Point) int {
	seen := map[[2]float64]bool{}
	for _, p := range pts {
		seen[[2]float64{p[0], p[1]}] = true
	}
	return len(seen)
}

// TestKNNAcrossSplits asks kNN while inserts split the buckets around its
// keys. A probe reads its whole box through fetchTranslated, which
// translates and reads again when a split lands between the two, so every
// answer must still be k distinct stored rows in ascending distance, the
// k-th no farther than the k-th before the inserts began: inserts only add
// records.
func TestKNNAcrossSplits(t *testing.T) {
	const writers, readers, inserts, wantSplits = 2, 4, 900, 25
	// Sixteen records a bucket: k = 60 takes more than one probe, so splits
	// land between a kNN's probes as well as inside them.
	ds := synth.Uniform2D(1500, 3)
	ds.PageBytes = 16 * ds.RecordBytes
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := engineAt(t, writeTestLayout(t, f, 4, 2), Config{Writable: true})
	dom := f.Domain()
	keys := testKeys(dom, 3, 11)
	ks := []int{1, 8, 60}
	bound := map[[2]int]float64{} // (key, k) -> k-th distance before the inserts
	for i, key := range keys {
		for _, k := range ks {
			bound[[2]int{i, k}] = f.NearestNeighbors(key, k)[k-1].Distance
		}
	}
	ask := func(req Request) Result {
		fr, err := encodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		out := s.exec(nil, fr)
		res, err := DecodeResult(Frame{Verb: Verb(out[0]), Payload: out[1:]})
		if err != nil {
			t.Errorf("%v: %v", req.Verb, err)
		}
		return res
	}

	var splits atomic.Int64
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			// Keys within 2 % of the domain's extent of a kNN key, so the
			// splits land in the buckets its probes read.
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < inserts/writers; i++ {
				key := slices.Clone(keys[i%len(keys)])
				for d, iv := range dom {
					key[d] = min(max(key[d]+(rng.Float64()-0.5)*0.04*iv.Length(), iv.Lo), iv.Hi)
				}
				splits.Add(int64(ask(Request{Verb: VerbInsert, Key: key}).Splits))
			}
		}(w)
	}
	var mu sync.Mutex
	seen := map[[2]float64]bool{}
	var answers atomic.Int64
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for n := r; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i, k := n%len(keys), ks[n/len(keys)%len(ks)]
				res := ask(Request{Verb: VerbKNN, Key: keys[i], K: k})
				answers.Add(1)
				if len(res.Points) != k || countDistinct(res.Points) != k {
					t.Errorf("k=%d: %d rows, %d distinct", k, len(res.Points), countDistinct(res.Points))
					return
				}
				dist := make([]float64, k)
				for j, p := range res.Points {
					dist[j] = euclid(p, keys[i])
				}
				if !slices.IsSorted(dist) {
					t.Errorf("k=%d: distances not ascending: %v", k, dist)
				}
				if b := bound[[2]int{i, k}]; dist[k-1] > b {
					t.Errorf("k=%d: k-th distance %v, %v before any insert", k, dist[k-1], b)
				}
				mu.Lock()
				for _, p := range res.Points {
					seen[[2]float64{p[0], p[1]}] = true
				}
				mu.Unlock()
			}
		}(r)
	}
	writing.Wait()
	close(done)
	reading.Wait()

	stored := map[[2]float64]bool{}
	s.st.Grid().Scan(func(key []float64) bool {
		stored[[2]float64{key[0], key[1]}] = true
		return true
	})
	for p := range seen {
		if !stored[p] {
			t.Errorf("row %v is not a stored record", p)
		}
	}
	t.Logf("%d kNN answers across %d splits", answers.Load(), splits.Load())
	if splits.Load() < wantSplits {
		t.Fatalf("%d splits in %d inserts, want %d", splits.Load(), inserts, wantSplits)
	}
}
