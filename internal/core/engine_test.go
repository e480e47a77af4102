package core

import (
	"math"
	"math/rand"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
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

// flatAxis returns g with axis d collapsed to the point 0 in the domain and
// in every bucket region: a degenerate axis, which the proximity kernels skip.
func flatAxis(g Grid, d int) Grid {
	g.Domain[d] = geom.Interval{}
	for _, b := range g.Buckets {
		b.Region[d] = geom.Interval{}
	}
	return g
}

// doubled returns g with every bucket listed twice: duplicate regions, so
// every weight and every row value ties with its twin's.
func doubled(g Grid) Grid {
	n := len(g.Buckets)
	g.Buckets = append(g.Buckets[:n:n], g.Buckets...)
	for i := n; i < 2*n; i++ {
		g.Buckets[i].Index = i
	}
	return g
}

// hotspotGrid builds the hot.2d grid file of n records (seed 5).
func hotspotGrid(t *testing.T, n int) Grid {
	t.Helper()
	f, err := synth.Hotspot2D(n, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	return FromGridFile(f)
}

// engineTestGrids are the inputs the engine is held to the oracle on: one to
// four dimensions (the 2-D ones dispatch to proxBatch2, the others to the
// d-dimensional proxBatch), a degenerate domain axis, tie-heavy Cartesian
// grids, duplicate regions, and bucket counts below one block, of exactly
// eight blocks, and not a multiple of the block size. Super-blocks: below
// one (395 buckets in 13 blocks), one full and one partial (794 buckets, a
// grid file's irregular regions), and three, the last a single block (1056).
func engineTestGrids(t *testing.T) map[string]Grid {
	return map[string]Grid{
		"hotspot":      testGrid(t),
		"hotspot-395":  hotspotGrid(t, 15000),
		"hotspot-794":  hotspotGrid(t, 30000),
		"line1d":       cartesianGrid(t, []int{50}),
		"sub-block":    cartesianGrid(t, []int{5, 5}),
		"cartesian":    cartesianGrid(t, []int{16, 16}),
		"cartesian-33": cartesianGrid(t, []int{32, 33}),
		"duplicates":   doubled(cartesianGrid(t, []int{6, 7})),
		"cartesian3d":  cartesianGrid(t, []int{6, 5, 4}),
		"flat-axis3d":  flatAxis(cartesianGrid(t, []int{8, 2, 8}), 1),
		"cartesian4d":  cartesianGrid(t, []int{3, 3, 3, 3}),
	}
}

// weighOne evaluates the engine's edge weight for one bucket pair (j may be
// a block id, n+b, for the block's bounding box, or a super-block id,
// n+blocks+s, for the super-block's), through the same batch kernel the
// sweeps run.
func weighOne(e *PairEngine, i, j int) float64 {
	var out [1]float64
	e.weighBatch(int32(i), []int32{int32(j)}, out[:])
	return out[0]
}

// engineWeights are the engine's two kernels, each with its per-pair
// reference.
var engineWeights = []struct {
	name   string
	euclid bool
	ref    pairWeight
}{
	{"proximity", false, proximity},
	{"euclid", true, euclidean},
}

// TestEngineWeighMatchesClosure checks the flattened kernels reproduce the
// per-pair reference weights bit-for-bit — the property the engine's
// byte-identical-assignment guarantee rests on.
func TestEngineWeighMatchesClosure(t *testing.T) {
	for gname, g := range engineTestGrids(t) {
		for _, tc := range engineWeights {
			e := NewPairEngine(g, tc.euclid)
			n := len(g.Buckets)
			for i := 0; i < n; i += 7 {
				for j := 0; j < n; j += 11 {
					got := weighOne(e, i, j)
					want := tc.ref(g.Buckets[i], g.Buckets[j], g.Domain)
					if got != want {
						t.Fatalf("%s/%s: weight(%d,%d) = %v, want %v (must be bit-identical)",
							gname, tc.name, i, j, got, want)
					}
				}
			}
		}
	}
}

// sameAssign fails unless the engine's result is the reference's.
func sameAssign(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("engine returns %d entries, serial reference %d", len(got), len(want))
	}
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("engine diverges from serial reference at bucket %d (%d vs %d)", x, got[x], want[x])
		}
	}
}

// TestEngineMatchesSerialReference asserts the engine reproduces the
// textbook serial loops of reference_test.go byte-for-byte: every
// proximity-based allocator, minimax under the Euclidean weight too,
// ResidualAssign (copies two and three) and NearestCompanions under both
// kernels, with one tree and with several.
func TestEngineMatchesSerialReference(t *testing.T) {
	const seed = 7
	// SSP, MST and ResidualAssign weigh by proximity; their euclid rows run
	// the same code on a Euclidean engine, whose sweeps have no bounds, so
	// that the unbounded branches are held to the textbook too.
	ssp, mst := &SSP{Seed: seed}, &MST{Seed: seed}
	allocators := []struct {
		name string
		alg  func(g Grid, euclid bool, disks int) (Allocation, error)
		ref  func(Grid, pairWeight, int64, int) []int
	}{
		{"MiniMax", func(g Grid, euclid bool, disks int) (Allocation, error) {
			return (&Minimax{Euclid: euclid, Seed: seed}).Decluster(g, disks)
		}, referenceMinimax},
		{"SSP", func(g Grid, euclid bool, disks int) (Allocation, error) {
			if euclid {
				return ssp.declusterOn(NewPairEngine(g, true), disks), nil
			}
			return ssp.Decluster(g, disks)
		}, referenceSSP},
		{"MST", func(g Grid, euclid bool, disks int) (Allocation, error) {
			if euclid {
				return mst.declusterOn(NewPairEngine(g, true), disks), nil
			}
			return mst.Decluster(g, disks)
		}, referenceMST},
	}
	for gname, g := range engineTestGrids(t) {
		for _, w := range engineWeights {
			for _, disks := range []int{8, 1} {
				for _, a := range allocators {
					name := a.name
					if name == "MiniMax" {
						name += "(" + w.name + ")"
					}
					name += "/" + gname + "/" + w.name
					if disks == 1 {
						name += "/one-tree"
					}
					t.Run(name, func(t *testing.T) {
						got, err := a.alg(g, w.euclid, disks)
						if err != nil {
							t.Fatal(err)
						}
						sameAssign(t, got.Assign, a.ref(g, w.ref, seed, disks))
					})
				}
			}
			t.Run("residual/"+gname+"/"+w.name, func(t *testing.T) {
				// Two levels: the second sees buckets with two owners each.
				const disks = 8
				owners := make([][]int, len(g.Buckets))
				for x, k := range referenceMinimax(g, w.ref, seed, disks) {
					owners[x] = []int{k}
				}
				for level := 1; level <= 2; level++ {
					var got []int
					if w.euclid {
						got = residualOn(NewPairEngine(g, true), disks, owners)
					} else {
						var err error
						if got, err = ResidualAssign(g, disks, owners); err != nil {
							t.Fatal(err)
						}
					}
					sameAssign(t, got, referenceResidual(g, disks, owners, w.ref))
					for x := range owners {
						owners[x] = append(owners[x], got[x])
					}
				}
			})
			t.Run("companions/"+gname+"/"+w.name, func(t *testing.T) {
				sameAssign(t, NewPairEngine(g, w.euclid).NearestCompanions(), referenceCompanions(g, w.ref))
			})
		}
	}
}

// TestEngineAtLeastAsManyDisksAsBuckets covers M ≥ N: Minimax and MST give
// every bucket its own disk without building an engine, SSP and
// ResidualAssign run their usual course.
func TestEngineAtLeastAsManyDisksAsBuckets(t *testing.T) {
	const seed = 7
	g := cartesianGrid(t, []int{5, 5})
	n := len(g.Buckets)
	own := make([]int, n)
	owners := make([][]int, n)
	for x := range own {
		own[x] = x
		owners[x] = []int{x}
	}
	for _, disks := range []int{n, n + 3} {
		for _, alg := range []Allocator{&Minimax{Seed: seed}, &MST{Seed: seed}} {
			got, err := alg.Decluster(g, disks)
			if err != nil {
				t.Fatal(err)
			}
			sameAssign(t, got.Assign, own)
		}
		got, err := (&SSP{Seed: seed}).Decluster(g, disks)
		if err != nil {
			t.Fatal(err)
		}
		sameAssign(t, got.Assign, referenceSSP(g, proximity, seed, disks))
		second, err := ResidualAssign(g, disks, owners)
		if err != nil {
			t.Fatal(err)
		}
		sameAssign(t, second, referenceResidual(g, disks, owners, proximity))
	}
}

// TestEuclidWeighsOncePerPair pins what a kernel with no proven bound costs:
// the Euclidean kernel has none, so minimax under it pays exactly one weight
// for each (pivot, other) pair the textbook loop compares, and no bound.
func TestEuclidWeighsOncePerPair(t *testing.T) {
	const disks = 4
	g := cartesianGrid(t, []int{7, 9})
	n := int64(len(g.Buckets))
	_, w, err := (&Minimax{Euclid: true, Seed: 1}).decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	// Each seed against the n-M others, then each pick against the rest.
	if want := disks*(n-disks) + (n-disks)*(n-disks-1)/2; w.weights != want || w.bounds != 0 {
		t.Fatalf("Minimax(euclid) paid %d weights and %d bounds, want %d and 0", w.weights, w.bounds, want)
	}
}

// TestMinimaxAtQuotaBoundary holds Minimax to the textbook loop where the
// ⌈N/M⌉ quota of the expansion it shares with ResidualAssign is tightest: N
// just above M and on either side of 2M, under both kernels. A quota, a
// stall or the leftover pass acting on a minimax run would show here first.
func TestMinimaxAtQuotaBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	domain := geom.Rect{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}
	for _, disks := range []int{2, 8, 64} {
		for _, n := range []int{disks + 1, 2*disks - 1, 2 * disks, 2*disks + 1} {
			g := Grid{Sizes: []int{1, 1}, Domain: domain, Buckets: randomBoxes(rng, domain, n)}
			for _, w := range engineWeights {
				for seed := int64(0); seed < 4; seed++ {
					got, err := (&Minimax{Euclid: w.euclid, Seed: seed}).Decluster(g, disks)
					if err != nil {
						t.Fatal(err)
					}
					sameAssign(t, got.Assign, referenceMinimax(g, w.ref, seed, disks))
				}
			}
		}
	}
}

// randomBoxes returns n well-formed boxes inside domain whose coordinates
// come half from a coarse lattice of sevenths — so that boxes touch, nest,
// coincide, collapse to zero width and sit on the domain's edge, at values
// that do not round cleanly — and half from anywhere.
func randomBoxes(rng *rand.Rand, domain geom.Rect, n int) []gridfile.BucketView {
	coord := func(iv geom.Interval) float64 {
		if rng.Intn(2) == 0 {
			return iv.Lo + float64(rng.Intn(8))/7*iv.Length()
		}
		return min(iv.Lo+rng.Float64()*iv.Length(), iv.Hi)
	}
	views := make([]gridfile.BucketView, n)
	for i := range views {
		region := make(geom.Rect, len(domain))
		for d, iv := range domain {
			a, b := coord(iv), coord(iv)
			region[d] = geom.Interval{Lo: min(a, b), Hi: max(a, b)}
		}
		views[i] = gridfile.BucketView{Index: i, Region: region}
	}
	return views
}

// TestBlockBoundDominates checks the property the pruning rests on, against
// geom.Proximity rather than against the engine's own kernel: the kernel
// applied to a block's box, and to a super-block's, is at least the
// proximity of every member, bit for bit, and the kernel on the members
// themselves still equals geom.Proximity. A region outside the domain, where
// the argument does not hold, must switch the bounds off at both levels.
func TestBlockBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	domains := map[string]geom.Rect{
		"1d":      {{Lo: -3, Hi: 4}},
		"2d":      {{Lo: 0, Hi: 2000}, {Lo: 0, Hi: 0.7}},
		"3d":      {{Lo: 0, Hi: 1}, {Lo: 1e6, Hi: 1e6 + 3}, {Lo: -1, Hi: 1}},
		"4d":      {{Lo: 0, Hi: 10}, {Lo: 0, Hi: 10}, {Lo: 0, Hi: 1e-3}, {Lo: 5, Hi: 6}},
		"flat-2d": {{Lo: 0, Hi: 3}, {Lo: 2, Hi: 2}},
	}
	for name, domain := range domains {
		// 600 buckets: 19 blocks, one full super-block and one of three.
		g := Grid{Sizes: make([]int, len(domain)), Domain: domain, Buckets: randomBoxes(rng, domain, 600)}
		e := NewPairEngine(g, false)
		if !e.bounded {
			t.Fatalf("%s: regions inside the domain, but the block bounds are off", name)
		}
		nb := len(e.live)
		for i := range g.Buckets {
			for s := range e.slive {
				usb := weighOne(e, i, e.n+nb+s)
				lo, hi := e.blocksOf(s)
				for b := lo; b < hi; b++ {
					ub := weighOne(e, i, e.n+b)
					for _, x := range e.block(b) {
						want := geom.Proximity(g.Buckets[i].Region, g.Buckets[x].Region, domain)
						if got := weighOne(e, i, int(x)); got != want {
							t.Fatalf("%s: weight(%d,%d) = %v, geom.Proximity %v", name, i, x, got, want)
						}
						if ub < want {
							t.Fatalf("%s: bound of bucket %d to block %d is %v, below member %d's proximity %v",
								name, i, b, ub, x, want)
						}
						if usb < want {
							t.Fatalf("%s: bound of bucket %d to super-block %d is %v, below member %d's proximity %v",
								name, i, s, usb, x, want)
						}
					}
				}
			}
		}
	}

	domain := geom.Rect{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}
	for name, stray := range map[string]geom.Interval{
		"outside":  {Lo: 0.5, Hi: 3},
		"inverted": {Lo: 0.6, Hi: 0.4},
		"nan":      {Lo: math.NaN(), Hi: 1},
	} {
		g := Grid{Sizes: []int{1, 1}, Domain: domain, Buckets: randomBoxes(rng, domain, 600)}
		g.Buckets[517].Region[1] = stray
		e := NewPairEngine(g, false)
		if e.bounded {
			t.Errorf("%s region: the block bounds must be off", name)
		}
		for s, usb := range e.boundSupers(0) {
			for b, ub := range e.boundBlocks(0, s) {
				if !math.IsInf(ub, 1) {
					t.Errorf("%s region: block %d bound %v, want +Inf", name, b, ub)
				}
			}
			if !math.IsInf(usb, 1) {
				t.Errorf("%s region: super-block %d bound %v, want +Inf", name, s, usb)
			}
		}
		if e.bounds != 0 {
			t.Errorf("%s region: %d bounds evaluated, want none", name, e.bounds)
		}
	}
}

// TestPrunedWorkBudget holds the pruning to a budget of kernel evaluations —
// counts, not clocks — on the 128×128 Cartesian grid: the full sweeps cost
// N²/2 weights for Minimax and 3N²/2 for one ResidualAssign level, and one
// bound per block and step costs N·⌈N/32⌉ bounds for Minimax and twice that
// for a level. The bounds budgets, N²/128 and N²/64, need the super-blocks.
// NearestCompanions is held on a hot.2d grid file, whose irregular regions
// put the block with the largest bound outside the super-block with the
// largest bound: a companion search that starts at the best block pays about
// two blocks' weights per bucket.
func TestPrunedWorkBudget(t *testing.T) {
	g := cartesianGrid(t, []int{128, 128})
	n := int64(len(g.Buckets))
	for _, disks := range []int{8, 64} {
		alloc, w, err := (&Minimax{Seed: 1}).decluster(g, disks)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Minimax M=%d: %d weights + %d bounds (full sweeps: %d weights)", disks, w.weights, w.bounds, n*n/2)
		if w.weights+w.bounds > n*n/8 {
			t.Errorf("Minimax M=%d: %d kernel evaluations, budget N²/8 = %d", disks, w.weights+w.bounds, n*n/8)
		}
		if w.bounds > n*n/128 {
			t.Errorf("Minimax M=%d: %d bounds, budget N²/128 = %d", disks, w.bounds, n*n/128)
		}
		owners := make([][]int, n)
		for x, k := range alloc.Assign {
			owners[x] = []int{k}
		}
		_, w, err = residualAssign(g, disks, owners)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("ResidualAssign M=%d: %d weights + %d bounds (full sweeps: %d weights)", disks, w.weights, w.bounds, 3*n*n/2)
		if w.weights+w.bounds > n*n/4 {
			t.Errorf("ResidualAssign M=%d: %d kernel evaluations, budget N²/4 = %d", disks, w.weights+w.bounds, n*n/4)
		}
		if w.bounds > n*n/64 {
			t.Errorf("ResidualAssign M=%d: %d bounds, budget N²/64 = %d", disks, w.bounds, n*n/64)
		}
	}

	hot := hotspotGrid(t, 100000)
	e := NewPairEngine(hot, false)
	e.NearestCompanions()
	nh := int64(len(hot.Buckets))
	t.Logf("NearestCompanions N=%d: %d weights + %d bounds (full sweep: %d weights)", nh, e.weights, e.bounds, nh*(nh-1))
	if e.weights > 70*nh {
		t.Errorf("NearestCompanions N=%d: %d weights, budget 70·N = %d", nh, e.weights, 70*nh)
	}
}
