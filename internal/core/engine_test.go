package core

import (
	"math/rand"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// TestPermPrefix pins the seeding satellite's contract: permPrefix must
// reproduce rand.Perm(n)[:m] exactly AND leave the RNG in the same state, so
// a given Seed keeps producing the identical seed sequence it always has.
func TestPermPrefix(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{1, 1}, {2, 1}, {2, 2}, {10, 3}, {57, 8}, {100, 100}, {1000, 16}, {1000, 64},
	} {
		for seed := int64(0); seed < 5; seed++ {
			ref := rand.New(rand.NewSource(seed))
			want := ref.Perm(tc.n)[:tc.m]
			got := permPrefix(rand.New(rand.NewSource(seed)), tc.n, tc.m)
			if len(got) != len(want) {
				t.Fatalf("n=%d m=%d seed=%d: len %d, want %d", tc.n, tc.m, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d m=%d seed=%d: prefix[%d] = %d, want %d",
						tc.n, tc.m, seed, i, got[i], want[i])
				}
			}
			// Same number of draws consumed: the next value must agree.
			rng := rand.New(rand.NewSource(seed))
			permPrefix(rng, tc.n, tc.m)
			if g, w := rng.Int63(), ref.Int63(); g != w {
				t.Fatalf("n=%d m=%d seed=%d: RNG state diverged after prefix", tc.n, tc.m, seed)
			}
		}
	}
}

func TestKindOf(t *testing.T) {
	if kindOf(nil) != kindProximity {
		t.Error("kindOf(nil) != kindProximity")
	}
	if kindOf(ProximityWeight) != kindProximity {
		t.Error("kindOf(ProximityWeight) != kindProximity")
	}
	if kindOf(EuclideanWeight) != kindEuclid {
		t.Error("kindOf(EuclideanWeight) != kindEuclid")
	}
	custom := func(a, b gridfile.BucketView, d geom.Rect) float64 { return 0 }
	if kindOf(custom) != kindGeneric {
		t.Error("kindOf(custom closure) != kindGeneric")
	}
	// A custom weight gets an engine like any other, pinned to one worker
	// whatever was asked.
	for _, asked := range []int{0, 1, 8} {
		e := NewPairEngine(Grid{Domain: geom.Rect{{Lo: 0, Hi: 1}}}, custom, asked)
		if e.kind != kindGeneric || e.workers != 1 {
			t.Fatalf("NewPairEngine(custom, workers=%d): kind %d on %d workers, want the generic kernel on 1",
				asked, e.kind, e.workers)
		}
		e.Close()
	}
	e := NewPairEngine(Grid{Domain: geom.Rect{{Lo: 0, Hi: 1}}}, nil, 8)
	defer e.Close()
	if e.workers != 8 {
		t.Errorf("built-in weight: workers = %d, want the 8 asked for", e.workers)
	}
}

// TestEngineWeighMatchesClosure checks the flattened kernels reproduce the
// closure weights bit-for-bit on an irregular grid — the property the
// engine's byte-identical-assignment guarantee rests on.
func TestEngineWeighMatchesClosure(t *testing.T) {
	g := testGrid(t)
	for _, tc := range []struct {
		name string
		w    Weight
	}{
		{"proximity", ProximityWeight},
		{"euclid", EuclideanWeight},
	} {
		e := NewPairEngine(g, tc.w, 2)
		if e.kind == kindGeneric {
			t.Fatalf("%s: a built-in weight got the generic kernel", tc.name)
		}
		n := len(g.Buckets)
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 11 {
				got := e.Weigh(i, j)
				want := tc.w(g.Buckets[i], g.Buckets[j], g.Domain)
				if got != want {
					t.Fatalf("%s: Weigh(%d,%d) = %v, want %v (must be bit-identical)",
						tc.name, i, j, got, want)
				}
			}
		}
		e.Close()
	}
}

// inverseProximity is a weight that is not a built-in, so it runs on the
// generic kernel: far buckets attract, near ones repel.
func inverseProximity(a, b gridfile.BucketView, d geom.Rect) float64 {
	return 1 - ProximityWeight(a, b, d)
}

func proximityAllocators(seed int64, w Weight, name string, workers int) []Allocator {
	return []Allocator{
		&Minimax{Weight: w, WeightName: name, Seed: seed, Workers: workers},
		&SSP{Weight: w, Seed: seed, Workers: workers},
		&MST{Weight: w, Seed: seed, Workers: workers},
	}
}

// TestDeclusterDeterministicAcrossWorkers is the determinism property test:
// every proximity-based allocator, under both built-in weights, must produce
// an identical assignment for workers ∈ {1, 2, 4, 8}. Run under -race by
// make check, this also exercises the sweeps' disjoint-write discipline.
func TestDeclusterDeterministicAcrossWorkers(t *testing.T) {
	grids := map[string]Grid{
		"hotspot":   testGrid(t),
		"cartesian": cartesianGrid(t, []int{17, 13}),
	}
	weights := map[string]Weight{"proximity": nil, "euclid": EuclideanWeight}
	for gname, g := range grids {
		for wname, w := range weights {
			for _, disks := range []int{4, 16} {
				ref := proximityAllocators(3, w, wname, 1)
				for ai, alg := range ref {
					want, err := alg.Decluster(g, disks)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{2, 4, 8} {
						alg2 := proximityAllocators(3, w, wname, workers)[ai]
						got, err := alg2.Decluster(g, disks)
						if err != nil {
							t.Fatal(err)
						}
						for x := range want.Assign {
							if got.Assign[x] != want.Assign[x] {
								t.Fatalf("%s/%s/%s disks=%d: workers=%d diverges from workers=1 at bucket %d (%d vs %d)",
									alg2.Name(), gname, wname, disks, workers, x,
									got.Assign[x], want.Assign[x])
							}
						}
					}
				}
			}
		}
	}
}

// TestEngineMatchesSerialReference asserts the engine reproduces the
// textbook serial loops of reference_test.go byte-for-byte: every
// proximity-based allocator and ResidualAssign, under both inlined built-in
// weights and under a closure that takes the generic kernel.
func TestEngineMatchesSerialReference(t *testing.T) {
	const disks, seed = 8, 7
	grids := map[string]Grid{
		"hotspot":   testGrid(t),
		"cartesian": cartesianGrid(t, []int{16, 16}),
	}
	weights := map[string]Weight{
		"proximity": ProximityWeight,
		"euclid":    EuclideanWeight,
		"inverse":   inverseProximity,
	}
	same := func(t *testing.T, got, want []int) {
		t.Helper()
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("engine diverges from serial reference at bucket %d (%d vs %d)", x, got[x], want[x])
			}
		}
	}
	for gname, g := range grids {
		for wname, w := range weights {
			refs := []func(Grid, Weight, int64, int) []int{referenceMinimax, referenceSSP, referenceMST}
			for ai, alg := range proximityAllocators(seed, w, wname, 0) {
				t.Run(alg.Name()+"/"+gname+"/"+wname, func(t *testing.T) {
					got, err := alg.Decluster(g, disks)
					if err != nil {
						t.Fatal(err)
					}
					same(t, got.Assign, refs[ai](g, w, seed, disks))
				})
			}
			t.Run("residual/"+gname+"/"+wname, func(t *testing.T) {
				// Two levels: the second sees buckets with two owners each.
				owners := make([][]int, len(g.Buckets))
				for x, k := range referenceMinimax(g, w, seed, disks) {
					owners[x] = []int{k}
				}
				for level := 1; level <= 2; level++ {
					got, err := ResidualAssign(g, disks, owners, w, 0)
					if err != nil {
						t.Fatal(err)
					}
					same(t, got, referenceResidual(g, disks, owners, w))
					for x := range owners {
						owners[x] = append(owners[x], got[x])
					}
				}
			})
		}
	}
}

// TestCustomWeightPinnedToOneGoroutine runs every engine caller with a
// closure that mutates unsynchronized state, asking for 8 workers on a grid
// large enough that a built-in weight would shard the sweeps. Under -race
// this fails if any sweep calls the closure from a pool goroutine.
func TestCustomWeightPinnedToOneGoroutine(t *testing.T) {
	g := cartesianGrid(t, []int{32, 32}) // 1024 buckets: 4 shards of minShard
	calls := 0
	stateful := func(a, b gridfile.BucketView, d geom.Rect) float64 {
		calls++
		return ProximityWeight(a, b, d)
	}
	const disks = 4
	var base Allocation
	for _, alg := range proximityAllocators(1, stateful, "stateful", 8) {
		var err error
		if base, err = alg.Decluster(g, disks); err != nil {
			t.Fatal(err)
		}
	}
	owners := make([][]int, len(g.Buckets))
	for x, k := range base.Assign {
		owners[x] = []int{k}
	}
	if _, err := ResidualAssign(g, disks, owners, stateful, 8); err != nil {
		t.Fatal(err)
	}
	e := NewPairEngine(g, stateful, 8)
	e.NearestCompanions()
	e.Close()
	if calls == 0 {
		t.Fatal("the custom weight was never called")
	}
}

// TestEngineNearestCompanions checks the engine's row-parallel companion
// sweep against the serial scan for several worker counts.
func TestEngineNearestCompanions(t *testing.T) {
	g := testGrid(t)
	n := len(g.Buckets)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestVal := -1, -1.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if v := ProximityWeight(g.Buckets[i], g.Buckets[j], g.Domain); v > bestVal {
				best, bestVal = j, v
			}
		}
		want[i] = best
	}
	for _, workers := range []int{1, 2, 8} {
		e := NewPairEngine(g, nil, workers)
		got := e.NearestCompanions()
		e.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: companion[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
