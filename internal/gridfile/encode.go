package gridfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pgridfile/internal/geom"
	"pgridfile/internal/le"
)

// Binary persistence. The format is a compact little-endian encoding:
//
//	magic "GRDF" | version u32
//	dims u32 | capacity u32
//	domain: dims × (lo f64, hi f64)
//	per dim: nsplits u32, splits f64...
//	nbucketSlots u32, then per slot: present u8; if present:
//	    lo i32×dims, hi i32×dims, nrec u32, keys f64×nrec×dims,
//	    hasData u8, if hasData: per record u32 len + bytes
//	directory: ncells u32, ids i32...
//
// The directory is stored explicitly (rather than recomputed) so a loaded
// file is bit-identical to the saved one, including bucket ids, which the
// declustering experiments rely on.

const (
	fileMagic   = "GRDF"
	fileVersion = 1
)

// WriteTo serializes the grid file. It implements io.WriterTo. Every value
// is appended little-endian to one chunk buffer that goes to w each time it
// fills — no reflection and no call into w per field, because a store
// checkpoint encodes the whole grid every time.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	e := leWriter{w: w, buf: make([]byte, 0, 2*leChunk)}
	e.raw([]byte(fileMagic))
	e.u32(fileVersion)
	e.u32(uint32(f.cfg.Dims))
	e.u32(uint32(f.cfg.BucketCapacity))
	for _, iv := range f.cfg.Domain {
		e.f64(iv.Lo)
		e.f64(iv.Hi)
	}
	for d := 0; d < f.cfg.Dims; d++ {
		e.u32(uint32(len(f.scales[d])))
		e.f64s(f.scales[d])
	}
	e.u32(uint32(len(f.bkts)))
	for _, b := range f.bkts {
		if b == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.i32s(b.lo)
		e.i32s(b.hi)
		e.u32(uint32(b.count(f.cfg.Dims)))
		e.f64s(b.keys)
		if b.data == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		for _, d := range b.data {
			e.u32(uint32(len(d)))
			e.raw(d)
		}
	}
	e.u32(uint32(len(f.dir)))
	e.i32s(f.dir)
	return e.flush()
}

// leChunk is how many encoded bytes leWriter gathers before handing them on.
const leChunk = 64 << 10

// leWriter appends little-endian values to buf and writes buf out whenever it
// holds leChunk bytes or more. After the first failed write it only discards;
// flush reports the bytes written and that error.
type leWriter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

func (e *leWriter) flush() (int64, error) {
	if e.err == nil && len(e.buf) > 0 {
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
	return e.n, e.err
}

func (e *leWriter) spill() {
	if len(e.buf) >= leChunk {
		e.flush()
	}
}

func (e *leWriter) u8(v uint8)   { e.buf = append(e.buf, v); e.spill() }
func (e *leWriter) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v); e.spill() }
func (e *leWriter) raw(p []byte) { e.buf = append(e.buf, p...); e.spill() }
func (e *leWriter) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	e.spill()
}

func (e *leWriter) f64s(vs []float64) {
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *leWriter) i32s(vs []int32) {
	for _, v := range vs {
		e.u32(uint32(v))
	}
}

// maxReasonable caps decoded counts to guard against corrupt or hostile
// inputs producing huge allocations before the invariant check can reject
// them. 2^22 elements comfortably covers the full-scale 4-D dataset
// (a ~20k-bucket directory over ~160k cells) while keeping the worst-case
// bogus allocation at a few tens of megabytes.
const maxReasonable = 1 << 22

// Read deserializes a grid file written by WriteTo and validates its
// invariants. It reads r to its end and ignores whatever follows the grid
// file; Decode is the form that returns those bytes.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gridfile: %w", err)
	}
	f, _, err := Decode(data)
	return f, err
}

// Decode deserializes the grid file WriteTo wrote at the front of data and
// validates its invariants. rest is the bytes behind it, so a container can
// carry further sections there (the store's checkpoint file does). The file
// shares no memory with data. Every count is checked before it sizes
// anything, and a slice is sized only once its bytes have been taken.
func Decode(data []byte) (f *File, rest []byte, err error) {
	r := le.NewReader(data)
	short := func() (*File, []byte, error) { return nil, nil, fmt.Errorf("gridfile: %w", r.Err()) }

	magic, version, dims, capacity := r.Take(4), r.U32(), r.U32(), r.U32()
	if r.Err() != nil {
		return short()
	}
	if string(magic) != fileMagic {
		return nil, nil, fmt.Errorf("gridfile: bad magic %q", magic)
	}
	if version != fileVersion {
		return nil, nil, fmt.Errorf("gridfile: unsupported version %d", version)
	}
	if dims == 0 || dims > 64 {
		return nil, nil, fmt.Errorf("gridfile: implausible dims %d", dims)
	}
	domain := make(geom.Rect, dims)
	for d := range domain {
		domain[d] = geom.Interval{Lo: r.F64(), Hi: r.F64()}
	}
	if r.Err() != nil {
		return short()
	}
	cfg := Config{Dims: int(dims), Domain: domain, BucketCapacity: int(capacity)}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}

	f = &File{cfg: cfg, scales: make([][]float64, dims), sizes: make([]int32, dims)}
	for d := range f.scales {
		n := r.U32()
		if n > maxReasonable {
			return nil, nil, fmt.Errorf("gridfile: implausible split count %d", n)
		}
		f.scales[d] = f64s(r.Take(8 * int(n)))
		f.sizes[d] = int32(n) + 1
	}

	nslots := r.U32()
	if nslots > maxReasonable {
		return nil, nil, fmt.Errorf("gridfile: implausible bucket count %d", nslots)
	}
	if r.Err() != nil || int(nslots) > r.Len() { // a slot takes a byte at least
		return short()
	}
	f.bkts = make([]*bucket, nslots)
	for i := range f.bkts {
		if present := r.U8(); present == 0 {
			continue
		}
		b := &bucket{lo: i32s(r.Take(4 * int(dims))), hi: i32s(r.Take(4 * int(dims)))}
		nrec := r.U32()
		if uint64(nrec)*uint64(dims) > maxReasonable {
			return nil, nil, fmt.Errorf("gridfile: implausible record count %d", nrec)
		}
		b.keys = f64s(r.Take(8 * int(nrec) * int(dims)))
		// hasData reads 0 once a read has failed, so only a record count
		// whose keys are all there sizes the payloads.
		if hasData := r.U8(); hasData != 0 {
			b.data = make([][]byte, nrec)
			for j := range b.data {
				n := r.U32()
				if n > maxReasonable {
					return nil, nil, fmt.Errorf("gridfile: implausible payload size %d", n)
				}
				b.data[j] = bytes.Clone(r.Take(int(n)))
			}
		}
		if r.Err() != nil {
			return short()
		}
		for _, k := range b.keys {
			if math.IsNaN(k) {
				return nil, nil, fmt.Errorf("gridfile: NaN key in bucket %d", i)
			}
		}
		f.bkts[i] = b
		f.live++
		f.nrec += int(nrec)
	}

	ncells := r.U32()
	if r.Err() != nil {
		return short()
	}
	if int(ncells) != totalCells(f.sizes) {
		return nil, nil, fmt.Errorf("gridfile: directory size %d, want %d", ncells, totalCells(f.sizes))
	}
	if f.dir = i32s(r.Take(4 * int(ncells))); r.Err() != nil {
		return short()
	}

	if err := f.checkInvariants(); err != nil {
		return nil, nil, fmt.Errorf("gridfile: loaded file fails invariants: %w", err)
	}
	return f, r.Rest(), nil
}

// f64s decodes src's little-endian float64s into a new slice.
func f64s(src []byte) []float64 {
	out := make([]float64, len(src)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// i32s decodes src's little-endian int32s into a new slice.
func i32s(src []byte) []int32 {
	out := make([]int32, len(src)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}
