package gridfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/geom"
)

// TestGenFuzzCorpus regenerates the committed FuzzRead seed corpus under
// testdata/fuzz/FuzzRead. The entries are real WriteTo encodings (plus
// targeted corruptions of them), so plain `go test` replays decoder
// regressions without a fuzzing session; set GEN_FUZZ_CORPUS=1 to rebuild
// after a format change.
func TestGenFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}

	entries := map[string][]byte{
		"empty-1d":  encodeFile(t, 1, 2, 0),
		"small-2d":  encodeFile(t, 2, 4, 60),
		"split-3d":  encodeFile(t, 3, 8, 250),
		"bad-magic": []byte("GRDX\x00\x00\x00\x01"),
	}
	base := entries["small-2d"]
	entries["truncated"] = base[:len(base)*2/3]
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)/2] ^= 0x10
	entries["bit-flip"] = flipped
	// One bucket of three records, so the last slot is live; Decode refuses
	// it by its reserved byte.
	entries["payload-flag"] = withPayloads(encodeFile(t, 2, 4, 3), 3, 1)

	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeFile builds a populated grid file and returns its binary encoding.
func encodeFile(t *testing.T, dims, capacity, records int) []byte {
	t.Helper()
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for i := range hi {
		hi[i] = 2000
	}
	gf, err := New(Config{Dims: dims, Domain: geom.NewRect(lo, hi), BucketCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	rng := newRand(int64(records + 1))
	for i := 0; i < records; i++ {
		p := make([]float64, dims)
		for d := range p {
			p[d] = rng.Float64() * 2000
		}
		if err := gf.Insert(Record{Key: p}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := gf.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
