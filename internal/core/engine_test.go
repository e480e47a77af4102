package core

import (
	"math/rand"
	"runtime"
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
	// A custom weight gets an engine like any other, on the generic kernel.
	if e := NewPairEngine(Grid{Domain: geom.Rect{{Lo: 0, Hi: 1}}}, custom); e.kind != kindGeneric {
		t.Fatalf("NewPairEngine(custom): kind %d, want the generic kernel", e.kind)
	}
}

// flatAxis returns g with axis d collapsed to the point 0 in the domain and
// in every bucket region: a degenerate axis, which the proximity kernels skip.
func flatAxis(g Grid, d int) Grid {
	g.Domain[d] = geom.Interval{}
	for _, b := range g.Buckets {
		b.Region[d] = geom.Interval{}
	}
	return g
}

// engineTestGrids are the inputs the engine is held to the oracle on: the 2-D
// ones dispatch to proxBatch2, the 3-D ones to the d-dimensional proxBatch.
func engineTestGrids(t *testing.T) map[string]Grid {
	return map[string]Grid{
		"hotspot":     testGrid(t),
		"cartesian":   cartesianGrid(t, []int{16, 16}),
		"cartesian3d": cartesianGrid(t, []int{6, 5, 4}),
		"flat-axis3d": flatAxis(cartesianGrid(t, []int{8, 2, 8}), 1),
	}
}

// TestEngineWeighMatchesClosure checks the flattened kernels reproduce the
// closure weights bit-for-bit — the property the engine's
// byte-identical-assignment guarantee rests on.
func TestEngineWeighMatchesClosure(t *testing.T) {
	for gname, g := range engineTestGrids(t) {
		for _, tc := range []struct {
			name string
			w    Weight
		}{
			{"proximity", ProximityWeight},
			{"euclid", EuclideanWeight},
		} {
			e := NewPairEngine(g, tc.w)
			if e.kind == kindGeneric {
				t.Fatalf("%s: a built-in weight got the generic kernel", tc.name)
			}
			n := len(g.Buckets)
			for i := 0; i < n; i += 7 {
				for j := 0; j < n; j += 11 {
					got := e.Weigh(i, j)
					want := tc.w(g.Buckets[i], g.Buckets[j], g.Domain)
					if got != want {
						t.Fatalf("%s/%s: Weigh(%d,%d) = %v, want %v (must be bit-identical)",
							gname, tc.name, i, j, got, want)
					}
				}
			}
		}
	}
}

// inverseProximity is a weight that is not a built-in, so it runs on the
// generic kernel: far buckets attract, near ones repel.
func inverseProximity(a, b gridfile.BucketView, d geom.Rect) float64 {
	return 1 - ProximityWeight(a, b, d)
}

func proximityAllocators(seed int64, w Weight, name string) []Allocator {
	return []Allocator{
		&Minimax{Weight: w, WeightName: name, Seed: seed},
		&SSP{Weight: w, Seed: seed},
		&MST{Weight: w, Seed: seed},
	}
}

// TestEngineMatchesSerialReference asserts the engine reproduces the
// textbook serial loops of reference_test.go byte-for-byte: every
// proximity-based allocator and ResidualAssign, under both inlined built-in
// weights and under a closure that takes the generic kernel.
func TestEngineMatchesSerialReference(t *testing.T) {
	const disks, seed = 8, 7
	grids := engineTestGrids(t)
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
			for ai, alg := range proximityAllocators(seed, w, wname) {
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
					got, err := ResidualAssign(g, disks, owners, w)
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

// TestEngineNearestCompanions checks the engine's companion sweep against
// the serial scan.
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
	got := NewPairEngine(g, nil).NearestCompanions()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("companion[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSplitSweepsMatchSerial runs the two sweeps that split their rows across
// goroutines on a grid large enough to be cut in four, with four CPUs asked
// for whatever the host has. The built-in weights must reproduce the serial
// references; a closure that mutates unsynchronized state must stay on the
// calling goroutine, which fails under -race if splitRows ever spawns for it.
func TestSplitSweepsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const disks = 4
	g := cartesianGrid(t, []int{32, 33}) // 1056 rows: four uneven ranges
	n := len(g.Buckets)
	calls := 0
	stateful := func(a, b gridfile.BucketView, d geom.Rect) float64 {
		calls++
		return ProximityWeight(a, b, d)
	}
	owners := make([][]int, n)
	for x := range owners {
		owners[x] = []int{x % disks}
	}
	for name, w := range map[string]Weight{"proximity": ProximityWeight, "euclid": EuclideanWeight, "stateful": stateful} {
		got, err := ResidualAssign(g, disks, owners, w)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceResidual(g, disks, owners, w)
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("%s: residual diverges from the serial reference at bucket %d (%d vs %d)", name, x, got[x], want[x])
			}
		}
		nn := NewPairEngine(g, w).NearestCompanions()
		for i := 0; i < n; i++ {
			best, bestVal := -1, -1.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if v := w(g.Buckets[i], g.Buckets[j], g.Domain); v > bestVal {
					best, bestVal = j, v
				}
			}
			if nn[i] != best {
				t.Fatalf("%s: companion[%d] = %d, want %d", name, i, nn[i], best)
			}
		}
	}
	if calls == 0 {
		t.Fatal("the custom weight was never called")
	}
}
