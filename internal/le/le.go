// Package le decodes little-endian values from a byte slice. Its Reader is
// the one decode cursor of the repository: the wire protocol's request and
// answer decoders, the grid file's decoder and the store's checkpoint reader
// all read through it.
package le

import (
	"encoding/binary"
	"errors"
	"math"
)

// errShort is the error a Reader keeps once a read runs past its last byte:
// the server answers "server: short payload" from it.
var errShort = errors.New("short payload")

// Reader is a bounds-checked cursor over a byte slice. The first read that
// runs past the end sticks errShort: it and every read after it return zero
// values (Take nil) and leave the cursor where it stood, so a decoder can read
// a run of fields and check Err once. Take hands out no slice until all of its
// bytes are there, so a decoder that takes a count's bytes before sizing
// anything by the count never allocates for bytes the input lacks.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err is errShort once a read has run past the end, else nil.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not yet read; Rest is those bytes.
func (r *Reader) Len() int     { return len(r.b) }
func (r *Reader) Rest() []byte { return r.b }

// Take returns the next n bytes, which alias the input, or nil when fewer
// than n are left or an earlier read failed.
func (r *Reader) Take(n int) []byte {
	if r.err == nil && (n < 0 || len(r.b) < n) {
		r.err = errShort
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// zeros is what a fixed-width read decodes once the reader has failed.
var zeros [8]byte

// word is the next n ≤ 8 bytes, or n zeros.
func (r *Reader) word(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8() uint8    { return r.word(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.word(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.word(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.word(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
