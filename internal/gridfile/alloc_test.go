//go:build !race

// The race detector instruments allocation, so a byte count under -race
// measures the detector, not the build; `make alloc` (a step of
// scripts/check.sh) runs this file's test on its own, without -race.

package gridfile_test

import (
	"math"
	"runtime"
	"testing"

	"pgridfile/internal/synth"
)

// TestBuildAllocatesLinearly holds the grid file build to memory linear in
// its input: the bytes one build allocates per record at 100 k records stay
// within 1.3× of those at 25 k. The build's own storage (bucket key arrays,
// the directory, the scales) is linear; a per-split copy of anything sized by
// the whole file is not, and shows here as a per-record figure that climbs
// with the record count (a visit-stamp array reallocated to the bucket count
// at every split read 94 B at 25 k against 201 B at 100 k).
func TestBuildAllocatesLinearly(t *testing.T) {
	perRecord := func(n int) float64 {
		ds := synth.Hotspot2D(n, 1)
		best := math.Inf(1)
		for pass := 0; pass < 2; pass++ {
			// Two collections empty the pools (their victim cache too), so
			// each pass builds cold, as a fresh process does, and does not
			// reuse scratch the previous pass grew.
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f, err := ds.Build()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if f.Len() != n {
				t.Fatalf("built %d records, want %d", f.Len(), n)
			}
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
		}
		return best
	}
	small, large := perRecord(25_000), perRecord(100_000)
	t.Logf("build allocates %.1f B/record at 25k, %.1f B/record at 100k (%.2f×)", small, large, large/small)
	if large > 1.3*small {
		t.Errorf("build allocates %.1f B/record at 100k, %.2f× the %.1f at 25k: growth is not linear",
			large, large/small, small)
	}
}
