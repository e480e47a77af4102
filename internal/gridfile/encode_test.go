package gridfile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pgridfile/internal/geom"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := newTestFile(t, 3, 8)
	pts := insertUniform(t, f, 1500, 101)
	// Delete some to create dead bucket slots (exercises the sparse table).
	for _, p := range pts[:200] {
		if !f.Delete(p) {
			t.Fatalf("Delete(%v) failed", p)
		}
	}

	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}

	g, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.Len() != f.Len() {
		t.Fatalf("loaded Len = %d, want %d", g.Len(), f.Len())
	}
	if g.NumBuckets() != f.NumBuckets() {
		t.Fatalf("loaded NumBuckets = %d, want %d", g.NumBuckets(), f.NumBuckets())
	}
	if !reflect.DeepEqual(g.CellSizes(), f.CellSizes()) {
		t.Fatalf("loaded CellSizes = %v, want %v", g.CellSizes(), f.CellSizes())
	}
	// Identical query behaviour.
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, f.Domain())
		a := f.BucketsInRange(q)
		b := g.BucketsInRange(q)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: bucket sets differ: %v vs %v", trial, a, b)
		}
		if f.RangeCount(q) != g.RangeCount(q) {
			t.Fatalf("trial %d: record counts differ", trial)
		}
	}
}

// withPayloads returns enc, a WriteTo encoding whose last bucket slot is live
// and holds records records, with that bucket's reserved byte set and a
// one-byte payload per record behind it: a bucket with payloads, as WriteTo
// wrote one while records carried them. cells is the directory's size, the
// section behind the last slot.
func withPayloads(enc []byte, records, cells int) []byte {
	at := len(enc) - 4*(1+cells) - 1
	out := append(bytes.Clone(enc[:at]), 1)
	for range records {
		out = append(out, 1, 0, 0, 0, 'x')
	}
	return append(out, enc[at+1:]...)
}

// TestDecodeRefusesPayloads: a record is its key, so a bucket whose reserved
// byte is set is refused by name, not decoded with its payloads dropped; the
// same bytes with the byte clear still decode.
func TestDecodeRefusesPayloads(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 200, 7)
	last := f.bkts[len(f.bkts)-1]
	if last == nil {
		t.Fatal("the last bucket slot is dead; the test edits the last live one")
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if at := buf.Len() - 4*(1+f.NumCells()) - 1; buf.Bytes()[at] != 0 {
		t.Fatalf("the reserved byte at %d is %d, want 0", at, buf.Bytes()[at])
	}
	if _, _, err := Decode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, _, err := Decode(withPayloads(buf.Bytes(), last.count(2), f.NumCells()))
	if err == nil || err.Error() != "gridfile: record payloads are not supported" {
		t.Fatalf("a bucket with payloads decoded with error %v, want the payload refusal", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("GRDF"),                 // truncated after magic
		[]byte("GRDF\x02\x00\x00\x00"), // bad version
		append([]byte("GRDF\x01\x00\x00\x00"), bytes.Repeat([]byte{0xff}, 16)...), // implausible dims
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestReadRejectsTruncatedValidPrefix(t *testing.T) {
	f := newTestFile(t, 2, 4)
	insertUniform(t, f, 200, 111)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, frac := range []float64{0.25, 0.5, 0.9, 0.99} {
		cut := int(float64(len(data)) * frac)
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d%% accepted", int(frac*100))
		}
	}
}

// TestHostileDirectorySizesNothing: scales of 65 535 and 65 534 splits (1 MB)
// make a directory of 65 536 × 65 535 cells, and a directory count that
// agrees with them passes the size check. With no cells behind the count the
// file is refused as short, before anything the count would size (16 GiB of
// ids) is allocated.
func TestHostileDirectorySizesNothing(t *testing.T) {
	le := binary.LittleEndian
	b := append([]byte(fileMagic), make([]byte, 12+32)...)
	le.PutUint32(b[4:], fileVersion)
	le.PutUint32(b[8:], 2)
	le.PutUint32(b[12:], 4)
	le.PutUint64(b[16+8:], math.Float64bits(1))
	le.PutUint64(b[16+24:], math.Float64bits(1))
	for _, n := range []uint32{65535, 65534} {
		b = le.AppendUint32(b, n)
		b = append(b, make([]byte, 8*n)...)
	}
	b = le.AppendUint32(b, 0) // no bucket slots
	b = le.AppendUint32(b, 65536*65535)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(b)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "short") {
		t.Fatalf("a directory count with no cells behind it: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing it allocated %d bytes (%v)", alloc, err)
	}
}

func TestCartesianFile(t *testing.T) {
	dom := geom.NewRect([]float64{0, 0}, []float64{100, 50})
	c, err := NewCartesian([]int{10, 5}, dom)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCells() != 50 {
		t.Fatalf("NumCells = %d, want 50", c.NumCells())
	}
	views := c.Buckets()
	if len(views) != 50 {
		t.Fatalf("Buckets = %d views", len(views))
	}
	// Every view is a single cell with the right uniform region.
	for _, v := range views {
		if v.CellSpan() != 1 {
			t.Errorf("view %d spans %d cells", v.Index, v.CellSpan())
		}
	}
	r := c.CellRegion([]int32{0, 0})
	want := geom.NewRect([]float64{0, 0}, []float64{10, 10})
	for d := range want {
		if r[d] != want[d] {
			t.Errorf("CellRegion dim %d = %v, want %v", d, r[d], want[d])
		}
	}
}

func TestCartesianValidation(t *testing.T) {
	dom := geom.NewRect([]float64{0}, []float64{1})
	if _, err := NewCartesian(nil, dom); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := NewCartesian([]int{0}, dom); err == nil {
		t.Error("zero-cell dimension accepted")
	}
	if _, err := NewCartesian([]int{2, 2}, dom); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
