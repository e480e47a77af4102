//go:build !race

// The race detector instruments allocation, so an allocation count under
// -race measures the detector, not the store; `make alloc` (a step of
// scripts/check.sh) runs this file's test on its own, without -race.

package store

import (
	"runtime"
	"testing"
)

// openAllocBudget is the committed number of objects Open may allocate per
// live bucket of a write-mix sized layout. It measures 4.03, the decoded
// bucket itself: the bucket, its two corner vectors and its keys. Sizing the
// placements from gridfile.Buckets() views (each copying both corner vectors
// and computing a region) and checking every bucket's keys against a freshly
// allocated region measured 8.03; decoding each field through binary.Read
// measured 14.0.
const openAllocBudget = 5

// writeAllocBudget is the committed number of objects Write may allocate per
// live bucket of the write-mix grid at r=1. It measures 8.01: one set of
// bucket views, for LayoutOrder's region centres. Making a centre Point and a
// Hilbert key's working copy on the heap for every bucket measured 10.01, and
// building a second set of views only to read each bucket's id 13.01.
const writeAllocBudget = 9

// TestOpenAllocationBudget holds Open of a write-mix sized layout (about
// 10 000 live buckets, 8 disks, r=2) to openAllocBudget objects per live
// bucket: the fewest of three opens, so that a collection's background work
// in one of them cannot fail the test.
func TestOpenAllocationBudget(t *testing.T) {
	dir := writeMixLayout(t)
	best, buckets := uint64(1<<63), 0
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		buckets = s.Grid().NumBuckets()
		s.Close()
		best = min(best, after.Mallocs-before.Mallocs)
	}
	perBucket := float64(best) / float64(buckets)
	t.Logf("Open allocated %d objects for %d live buckets: %.2f per bucket", best, buckets, perBucket)
	if perBucket > openAllocBudget {
		t.Errorf("Open allocates %.2f objects per live bucket, budget %d", perBucket, openAllocBudget)
	}
}

// TestWriteAllocationBudget holds Write of the write-mix grid (about 10 000
// live buckets, minimax over 8 disks, r=1) to writeAllocBudget objects per
// live bucket: the fewest of three writes, each into a fresh directory.
func TestWriteAllocationBudget(t *testing.T) {
	f, alloc := writeMixGrid(t)
	best := uint64(1 << 63)
	for range 3 {
		dir := t.TempDir()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Write(dir, f, alloc, 4096)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	perBucket := float64(best) / float64(f.NumBuckets())
	t.Logf("Write allocated %d objects for %d live buckets: %.2f per bucket", best, f.NumBuckets(), perBucket)
	if perBucket > writeAllocBudget {
		t.Errorf("Write allocates %.2f objects per live bucket, budget %d", perBucket, writeAllocBudget)
	}
}
