package gridfile

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"pgridfile/internal/geom"
)

func geomRect(lo, hi []float64) geom.Rect { return geom.NewRect(lo, hi) }
func newRand(seed int64) *rand.Rand       { return rand.New(rand.NewSource(seed)) }

// FuzzRead hardens the binary decoder: any input must either be rejected
// with an error or produce a file that passes the structural invariants —
// never panic, never corrupt — and that WriteTo encodes to the bytes the
// reference encoder (referenceWriteTo) gives, which Read then takes back to
// the same bytes again. A container's contract holds too: that encoding
// followed by arbitrary bytes (the input itself) decodes to the same file, and
// Decode returns exactly those bytes as the rest. Seeds are valid encodings of
// small files; run with `go test -fuzz=FuzzRead ./internal/gridfile` for a
// real fuzzing session (without -fuzz the seeds replay as regular tests).
func FuzzRead(f *testing.F) {
	// Seed corpus: valid encodings at a few sizes and dimensionalities.
	for _, seed := range []struct {
		dims, capacity, records int
	}{
		{1, 2, 0}, {2, 4, 50}, {3, 8, 200},
	} {
		lo := make([]float64, seed.dims)
		hi := make([]float64, seed.dims)
		for i := range hi {
			hi[i] = 2000
		}
		gf, err := New(Config{Dims: seed.dims, Domain: geomRect(lo, hi), BucketCapacity: seed.capacity})
		if err != nil {
			f.Fatal(err)
		}
		rng := newRand(int64(seed.records + 1))
		for i := 0; i < seed.records; i++ {
			p := make([]float64, seed.dims)
			for d := range p {
				p[d] = rng.Float64() * 2000
			}
			if err := gf.Insert(Record{Key: p}); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := gf.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("GRDF"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gf, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		if err := gf.checkInvariants(); err != nil {
			t.Fatalf("Read accepted a structurally invalid file: %v", err)
		}
		// The accepted file must be usable.
		_ = gf.BucketsInRange(gf.Domain())
		_ = gf.Stats()

		var got, want bytes.Buffer
		if _, err := gf.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteTo(gf, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteTo gave %d bytes, the reference encoder %d (or they differ)", got.Len(), want.Len())
		}
		again, err := Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("Read refused WriteTo's encoding: %v", err)
		}
		var re bytes.Buffer
		if _, err := again.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), got.Bytes()) {
			t.Fatal("a decoded encoding re-encodes to other bytes")
		}

		carried, rest, err := Decode(append(got.Bytes(), data...))
		if err != nil {
			t.Fatalf("Decode refused WriteTo's encoding with %d bytes behind it: %v", len(data), err)
		}
		if !bytes.Equal(rest, data) {
			t.Fatalf("Decode returned %d bytes as the rest, want the %d behind the grid file", len(rest), len(data))
		}
		re.Reset()
		if _, err := carried.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), got.Bytes()) {
			t.Fatal("the encoding with bytes behind it decodes to another file")
		}
	})
}

// referenceWriteTo is the encoder WriteTo replaced — one binary.Write per
// field — kept as the byte-for-byte reference the fuzzer holds WriteTo to.
func referenceWriteTo(f *File, w io.Writer) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	vals := []any{[]byte(fileMagic), uint32(fileVersion), uint32(f.cfg.Dims), uint32(f.cfg.BucketCapacity)}
	for _, iv := range f.cfg.Domain {
		vals = append(vals, iv.Lo, iv.Hi)
	}
	for d := 0; d < f.cfg.Dims; d++ {
		vals = append(vals, uint32(len(f.scales[d])), f.scales[d])
	}
	vals = append(vals, uint32(len(f.bkts)))
	for _, b := range f.bkts {
		if b == nil {
			vals = append(vals, uint8(0))
			continue
		}
		vals = append(vals, uint8(1), b.lo, b.hi, uint32(b.count(f.cfg.Dims)), b.keys, uint8(0))
	}
	vals = append(vals, uint32(len(f.dir)), f.dir)
	for _, v := range vals {
		if err := write(v); err != nil {
			return err
		}
	}
	return nil
}
