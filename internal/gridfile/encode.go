package gridfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pgridfile/internal/geom"
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
// invariants. From a *bufio.Reader of the default size or larger it reads
// exactly the bytes WriteTo wrote and no more, so a container can carry
// further sections behind them (the store's checkpoint file does).
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gridfile: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("gridfile: bad magic %q", magic)
	}
	var version, dims, capacity uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("gridfile: unsupported version %d", version)
	}
	if err := read(&dims); err != nil {
		return nil, err
	}
	if err := read(&capacity); err != nil {
		return nil, err
	}
	if dims == 0 || dims > 64 {
		return nil, fmt.Errorf("gridfile: implausible dims %d", dims)
	}
	domain := make(geom.Rect, dims)
	for d := range domain {
		if err := read(&domain[d].Lo); err != nil {
			return nil, err
		}
		if err := read(&domain[d].Hi); err != nil {
			return nil, err
		}
	}
	cfg := Config{Dims: int(dims), Domain: domain, BucketCapacity: int(capacity)}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	f := &File{cfg: cfg, scales: make([][]float64, dims), sizes: make([]int32, dims)}
	for d := 0; d < int(dims); d++ {
		var n uint32
		if err := read(&n); err != nil {
			return nil, err
		}
		if n > maxReasonable {
			return nil, fmt.Errorf("gridfile: implausible split count %d", n)
		}
		f.scales[d] = make([]float64, n)
		if err := read(f.scales[d]); err != nil {
			return nil, err
		}
		f.sizes[d] = int32(n) + 1
	}

	var nslots uint32
	if err := read(&nslots); err != nil {
		return nil, err
	}
	if nslots > maxReasonable {
		return nil, fmt.Errorf("gridfile: implausible bucket count %d", nslots)
	}
	f.bkts = make([]*bucket, nslots)
	for i := range f.bkts {
		var present uint8
		if err := read(&present); err != nil {
			return nil, err
		}
		if present == 0 {
			continue
		}
		b := &bucket{lo: make([]int32, dims), hi: make([]int32, dims)}
		if err := read(b.lo); err != nil {
			return nil, err
		}
		if err := read(b.hi); err != nil {
			return nil, err
		}
		var nrec uint32
		if err := read(&nrec); err != nil {
			return nil, err
		}
		if uint64(nrec)*uint64(dims) > maxReasonable {
			return nil, fmt.Errorf("gridfile: implausible record count %d", nrec)
		}
		b.keys = make([]float64, int(nrec)*int(dims))
		if err := read(b.keys); err != nil {
			return nil, err
		}
		for _, k := range b.keys {
			if math.IsNaN(k) {
				return nil, fmt.Errorf("gridfile: NaN key in bucket %d", i)
			}
		}
		var hasData uint8
		if err := read(&hasData); err != nil {
			return nil, err
		}
		if hasData != 0 {
			b.data = make([][]byte, nrec)
			for j := range b.data {
				var n uint32
				if err := read(&n); err != nil {
					return nil, err
				}
				if n > maxReasonable {
					return nil, fmt.Errorf("gridfile: implausible payload size %d", n)
				}
				b.data[j] = make([]byte, n)
				if _, err := io.ReadFull(br, b.data[j]); err != nil {
					return nil, err
				}
			}
		}
		f.bkts[i] = b
		f.live++
		f.nrec += int(nrec)
	}

	var ncells uint32
	if err := read(&ncells); err != nil {
		return nil, err
	}
	if int(ncells) != totalCells(f.sizes) {
		return nil, fmt.Errorf("gridfile: directory size %d, want %d", ncells, totalCells(f.sizes))
	}
	f.dir = make([]int32, ncells)
	if err := read(f.dir); err != nil {
		return nil, err
	}

	if err := f.checkInvariants(); err != nil {
		return nil, fmt.Errorf("gridfile: loaded file fails invariants: %w", err)
	}
	return f, nil
}
