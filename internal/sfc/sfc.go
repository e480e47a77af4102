// Package sfc implements the space-filling curves used for linearizing grid
// cells: the d-dimensional Hilbert curve (the basis of the HCAM declustering
// scheme), and the Z-order (bit interleaving) and Gray-coded curves, which
// the paper cites as the weaker alternatives Hilbert is known to beat. All
// three map a cell coordinate vector to a one-dimensional key such that
// sorting cells by key produces the curve's visiting order.
//
// The Hilbert implementation follows John Skilling's "Programming the
// Hilbert curve" (AIP Conf. Proc. 707, 2004): coordinates are converted to
// and from the "transpose" form of the Hilbert index with O(d·bits) bit
// operations and no recursion.
package sfc

import "fmt"

// Curve linearizes d-dimensional cell coordinates. Implementations must be
// bijections from [0,2^bits)^d onto [0, 2^(d·bits)).
type Curve interface {
	// Key maps a coordinate vector to its position along the curve.
	Key(coords []uint32) uint64
	// Coords inverts Key, filling out with the coordinate vector of key.
	Coords(key uint64, out []uint32)
	// Bits returns the number of bits per dimension.
	Bits() int
}

func checkParams(dims, bits int) {
	if dims < 1 {
		panic(fmt.Sprintf("sfc: dims must be >= 1, got %d", dims))
	}
	if bits < 1 {
		panic(fmt.Sprintf("sfc: bits must be >= 1, got %d", bits))
	}
	if dims*bits > 64 {
		panic(fmt.Sprintf("sfc: dims*bits = %d exceeds 64-bit key space", dims*bits))
	}
}

// BitsFor returns the minimum number of bits needed to address max+1 values,
// i.e. the smallest b with 2^b > max. It returns at least 1.
func BitsFor(max uint32) int {
	b := 1
	for (uint64(1) << b) <= uint64(max) {
		b++
	}
	return b
}

// Hilbert is the d-dimensional Hilbert curve over a 2^bits-sided grid.
type Hilbert struct {
	dims, bits int
}

// NewHilbert returns a Hilbert curve over [0,2^bits)^dims. It panics when
// dims*bits exceeds 64, since keys are uint64.
func NewHilbert(dims, bits int) *Hilbert {
	checkParams(dims, bits)
	return &Hilbert{dims: dims, bits: bits}
}

func (h *Hilbert) Bits() int { return h.bits }

// Key maps coords to the Hilbert index. It panics if len(coords) != dims
// or any coordinate overflows the per-dimension bit budget.
func (h *Hilbert) Key(coords []uint32) uint64 {
	if len(coords) != h.dims {
		panic(fmt.Sprintf("sfc: coordinate length %d, want %d", len(coords), h.dims))
	}
	var buf [64]uint32 // dims·bits ≤ 64: the working copy needs no heap
	x := buf[:h.dims]
	limit := uint64(1) << h.bits
	for i, c := range coords {
		if uint64(c) >= limit {
			panic(fmt.Sprintf("sfc: coordinate %d = %d exceeds %d bits", i, c, h.bits))
		}
		x[i] = c
	}
	axesToTranspose(x, h.bits)
	return interleaveTranspose(x, h.bits)
}

// Coords fills out with the coordinates of the cell at position key.
func (h *Hilbert) Coords(key uint64, out []uint32) {
	if len(out) != h.dims {
		panic(fmt.Sprintf("sfc: Coords output length %d, want %d", len(out), h.dims))
	}
	deinterleaveTranspose(key, out, h.bits)
	transposeToAxes(out, h.bits)
}

// axesToTranspose converts coordinates in place into the transposed form of
// the Hilbert index (Skilling's AxestoTranspose).
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << (bits - 1)

	// Inverse undo of the Gray-code/rotation recursion.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else {
				t := (x[0] ^ x[i]) & p // exchange low bits of x[0] and x[i]
				x[0] ^= t
				x[i] ^= t
			}
		}
	}

	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose (Skilling's TransposetoAxes).
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	m := uint32(2) << (bits - 1)

	// Gray decode.
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t

	// Undo the excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTranspose packs the transpose form into a single integer key.
// Bit j (counting from the most significant of each coordinate) of x[i]
// becomes bit position (bits-1-j)*n + (n-1-i) of the key, i.e. the key reads
// x[0]'s top bit first, then x[1]'s top bit, and so on.
func interleaveTranspose(x []uint32, bits int) uint64 {
	n := len(x)
	var key uint64
	for j := bits - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			key = (key << 1) | uint64((x[i]>>j)&1)
		}
	}
	return key
}

// deinterleaveTranspose unpacks a key into transpose form.
func deinterleaveTranspose(key uint64, x []uint32, bits int) {
	n := len(x)
	for i := range x {
		x[i] = 0
	}
	pos := n*bits - 1
	for j := bits - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			bit := (key >> pos) & 1
			x[i] |= uint32(bit) << j
			pos--
		}
	}
}

// ZOrder is the Morton (bit-interleaving) curve.
type ZOrder struct {
	dims, bits int
}

// NewZOrder returns a Z-order curve over [0,2^bits)^dims.
func NewZOrder(dims, bits int) *ZOrder {
	checkParams(dims, bits)
	return &ZOrder{dims: dims, bits: bits}
}

func (z *ZOrder) Bits() int { return z.bits }

// Key interleaves coordinate bits most-significant first.
func (z *ZOrder) Key(coords []uint32) uint64 {
	if len(coords) != z.dims {
		panic(fmt.Sprintf("sfc: coordinate length %d, want %d", len(coords), z.dims))
	}
	var key uint64
	for j := z.bits - 1; j >= 0; j-- {
		for i := 0; i < z.dims; i++ {
			key = (key << 1) | uint64((coords[i]>>j)&1)
		}
	}
	return key
}

// Coords inverts Key.
func (z *ZOrder) Coords(key uint64, out []uint32) {
	if len(out) != z.dims {
		panic(fmt.Sprintf("sfc: Coords output length %d, want %d", len(out), z.dims))
	}
	for i := range out {
		out[i] = 0
	}
	pos := z.dims*z.bits - 1
	for j := z.bits - 1; j >= 0; j-- {
		for i := 0; i < z.dims; i++ {
			out[i] |= uint32((key>>pos)&1) << j
			pos--
		}
	}
}

// Gray is the Gray-coded curve: the Z-order key is interpreted as a
// binary-reflected Gray code, so the curve position is its Gray decode.
// Successive positions along this curve differ in exactly one interleaved
// bit, which gives it mildly better locality than plain Z-order.
type Gray struct {
	z ZOrder
}

// NewGray returns a Gray-coded curve over [0,2^bits)^dims.
func NewGray(dims, bits int) *Gray {
	checkParams(dims, bits)
	return &Gray{z: ZOrder{dims: dims, bits: bits}}
}

func (g *Gray) Bits() int { return g.z.bits }

// Key returns the position of coords along the Gray-coded curve.
func (g *Gray) Key(coords []uint32) uint64 {
	return grayDecode(g.z.Key(coords))
}

// Coords inverts Key.
func (g *Gray) Coords(key uint64, out []uint32) {
	g.z.Coords(grayEncode(key), out)
}

// grayEncode returns the binary-reflected Gray code of v.
func grayEncode(v uint64) uint64 { return v ^ (v >> 1) }

// grayDecode inverts grayEncode.
func grayDecode(g uint64) uint64 {
	v := g
	for shift := 1; shift < 64; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}
