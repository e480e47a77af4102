package server

import (
	"fmt"
	"slices"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/store"
)

// TestKNNMatchesGridFile holds the served kNN to the grid file's own
// NearestNeighbors on lattice data, where most keys have many equidistant
// neighbours and which of the tied rows come back is the search's choice:
// the served distances must be ascending and, as a multiset, equal to the
// grid file's, and every row a stored record. k runs from 1 through more
// than one probe's rows to more than the whole file (the exit where the
// probe box covers the domain). Each query is asked twice, so the second
// answer comes from the cache.
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
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.Write(dir, f, alloc, 4096); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newEngine(st, Config{})
	t.Cleanup(func() {
		s.Close()
		st.Close()
	})

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
				}
			})
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
