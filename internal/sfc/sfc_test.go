package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// curves under test, constructed fresh for given dims/bits.
func allCurves(dims, bits int) []Curve {
	return []Curve{NewHilbert(dims, bits), NewZOrder(dims, bits), NewGray(dims, bits)}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		max  uint32
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9},
	}
	for _, c := range cases {
		if got := BitsFor(c.max); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestHilbert2DOrder4(t *testing.T) {
	// The 2-D Hilbert curve on a 2x2 grid visits (0,0),(0,1),(1,1),(1,0)
	// (up to a fixed orientation). Verify the exact order produced by the
	// Skilling transform: it must be a Hamiltonian path of unit steps
	// starting at the origin.
	h := NewHilbert(2, 1)
	var prev []uint32
	for key := uint64(0); key < 4; key++ {
		out := make([]uint32, 2)
		h.Coords(key, out)
		if key == 0 {
			if out[0] != 0 || out[1] != 0 {
				t.Fatalf("curve does not start at origin: %v", out)
			}
		} else {
			if dist := manhattan(prev, out); dist != 1 {
				t.Fatalf("step %d is not a unit step: %v -> %v", key, prev, out)
			}
		}
		prev = out
	}
}

func manhattan(a, b []uint32) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

// TestBijectivity checks Key∘Coords = id and Coords∘Key = id exhaustively
// for small spaces across all curves and several (dims,bits) combinations.
func TestBijectivity(t *testing.T) {
	configs := []struct{ dims, bits int }{
		{1, 4}, {2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}, {5, 2},
	}
	for _, cfg := range configs {
		for _, c := range allCurves(cfg.dims, cfg.bits) {
			total := uint64(1) << (cfg.dims * cfg.bits)
			seen := make(map[uint64]bool, total)
			coords := make([]uint32, cfg.dims)
			for key := uint64(0); key < total; key++ {
				c.Coords(key, coords)
				back := c.Key(coords)
				if back != key {
					t.Fatalf("%T d=%d b=%d: Key(Coords(%d)) = %d", c, cfg.dims, cfg.bits, key, back)
				}
				if seen[back] {
					t.Fatalf("%T d=%d b=%d: duplicate key %d", c, cfg.dims, cfg.bits, back)
				}
				seen[back] = true
			}
			if uint64(len(seen)) != total {
				t.Fatalf("%T: only %d of %d keys visited", c, len(seen), total)
			}
		}
	}
}

// TestHilbertAdjacency checks the defining Hilbert property: consecutive
// positions along the curve are grid neighbours (Manhattan distance exactly
// one). Z-order and Gray do NOT have this property, which is exactly why
// HCAM uses Hilbert.
func TestHilbertAdjacency(t *testing.T) {
	configs := []struct{ dims, bits int }{
		{2, 5}, {3, 3}, {4, 2},
	}
	for _, cfg := range configs {
		h := NewHilbert(cfg.dims, cfg.bits)
		total := uint64(1) << (cfg.dims * cfg.bits)
		prev := make([]uint32, cfg.dims)
		cur := make([]uint32, cfg.dims)
		h.Coords(0, prev)
		for key := uint64(1); key < total; key++ {
			h.Coords(key, cur)
			if manhattan(prev, cur) != 1 {
				t.Fatalf("hilbert d=%d b=%d: non-unit step at key %d: %v -> %v",
					cfg.dims, cfg.bits, key, prev, cur)
			}
			copy(prev, cur)
		}
	}
}

// TestZOrderKnownValues pins the Morton interleaving.
func TestZOrderKnownValues(t *testing.T) {
	z := NewZOrder(2, 2)
	cases := []struct {
		coords []uint32
		want   uint64
	}{
		{[]uint32{0, 0}, 0},
		{[]uint32{0, 1}, 1}, // y contributes the low bit of each pair
		{[]uint32{1, 0}, 2},
		{[]uint32{1, 1}, 3},
		{[]uint32{2, 0}, 8},
		{[]uint32{3, 3}, 15},
	}
	for _, c := range cases {
		if got := z.Key(c.coords); got != c.want {
			t.Errorf("ZOrder.Key(%v) = %d, want %d", c.coords, got, c.want)
		}
	}
}

func TestGrayCodeRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		return grayDecode(grayEncode(v)) == v && grayEncode(grayDecode(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGraySuccessiveKeysDifferInOneBit(t *testing.T) {
	// Along the Gray curve, interleaved codes of successive positions
	// differ in exactly one bit.
	g := NewGray(2, 4)
	z := NewZOrder(2, 4)
	total := uint64(1 << 8)
	coords := make([]uint32, 2)
	var prevCode uint64
	for key := uint64(0); key < total; key++ {
		g.Coords(key, coords)
		code := z.Key(coords)
		if key > 0 {
			diff := code ^ prevCode
			if diff == 0 || diff&(diff-1) != 0 {
				t.Fatalf("gray codes at %d and %d differ in != 1 bit: %b vs %b",
					key-1, key, prevCode, code)
			}
		}
		prevCode = code
	}
}

// TestRandomRoundTrip64Bit exercises large keys near the 64-bit budget.
func TestRandomRoundTrip64Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	configs := []struct{ dims, bits int }{
		{2, 32}, {3, 21}, {4, 16}, {8, 8},
	}
	for _, cfg := range configs {
		for _, c := range allCurves(cfg.dims, cfg.bits) {
			for trial := 0; trial < 200; trial++ {
				coords := make([]uint32, cfg.dims)
				for i := range coords {
					coords[i] = uint32(rng.Uint64() & ((1 << cfg.bits) - 1))
				}
				key := c.Key(coords)
				out := make([]uint32, cfg.dims)
				c.Coords(key, out)
				for i := range coords {
					if coords[i] != out[i] {
						t.Fatalf("%T d=%d b=%d: round trip %v -> %d -> %v",
							c, cfg.dims, cfg.bits, coords, key, out)
					}
				}
			}
		}
	}
}

func TestHilbertClusteringBeatsZOrder(t *testing.T) {
	// The clustering property HCAM relies on (Faloutsos & Roseman): a range
	// query's cells form fewer contiguous runs ("clusters") along the
	// Hilbert curve than along Z-order. Count clusters for every 4x4 query
	// window on a 64x64 grid and compare totals.
	const dims, bits = 2, 6
	const q = 4
	h := NewHilbert(dims, bits)
	z := NewZOrder(dims, bits)
	side := uint32(1) << bits
	clusters := func(c Curve, x0, y0 uint32) int {
		keys := make([]uint64, 0, q*q)
		for x := x0; x < x0+q; x++ {
			for y := y0; y < y0+q; y++ {
				keys = append(keys, c.Key([]uint32{x, y}))
			}
		}
		sortUint64(keys)
		n := 1
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[i-1]+1 {
				n++
			}
		}
		return n
	}
	// Slide by 1 so most windows are unaligned: aligned power-of-two
	// windows are single clusters under both curves and would mask the
	// difference.
	var hTotal, zTotal int
	for x0 := uint32(0); x0+q <= side; x0++ {
		for y0 := uint32(0); y0+q <= side; y0++ {
			hTotal += clusters(h, x0, y0)
			zTotal += clusters(z, x0, y0)
		}
	}
	if hTotal >= zTotal {
		t.Errorf("hilbert total clusters %d not below zorder %d", hTotal, zTotal)
	}
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestParamValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dims=0", func() { NewHilbert(0, 4) })
	mustPanic("bits=0", func() { NewZOrder(2, 0) })
	mustPanic("overflow", func() { NewGray(9, 8) })
	mustPanic("coord too large", func() { NewHilbert(2, 2).Key([]uint32{4, 0}) })
	mustPanic("wrong length", func() { NewHilbert(2, 2).Key([]uint32{1}) })
	mustPanic("wrong out length", func() { NewHilbert(2, 2).Coords(0, make([]uint32, 3)) })
}

func BenchmarkHilbertKey2D(b *testing.B) {
	h := NewHilbert(2, 16)
	coords := []uint32{12345, 54321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Key(coords)
	}
}

func BenchmarkHilbertKey4D(b *testing.B) {
	h := NewHilbert(4, 16)
	coords := []uint32{1, 2000, 30000, 444}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Key(coords)
	}
}
