package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// faultAllocators is the scheme matrix the single-disk-failure property is
// proved over: one of each allocator family (heuristic search, index-based).
func faultAllocators(t *testing.T) map[string]core.Allocator {
	t.Helper()
	m := map[string]core.Allocator{
		"minimax": &core.Minimax{Seed: 1},
		"ssp":     &core.SSP{Seed: 1},
		"mst":     &core.MST{Seed: 1},
	}
	for _, name := range []struct{ scheme, resolver string }{
		{"DM", "D"}, {"FX", "R"}, {"HCAM", "F"},
	} {
		a, err := core.NewIndexBased(name.scheme, name.resolver, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", name.scheme, name.resolver, err)
		}
		m[name.scheme+"/"+name.resolver] = a
	}
	return m
}

// recordCounts is the multiset of record keys in a set of buckets.
func recordCounts(f *gridfile.File, ids []int32) map[[2]float64]int {
	got := map[[2]float64]int{}
	var keys []float64
	for _, id := range ids {
		keys = f.AppendBucketKeys(keys, id)
	}
	for _, k := range keyRows(keys) {
		got[k]++
	}
	return got
}

// TestSingleDiskFailureLosesOnlyThatDisk is the declustering fault-isolation
// property: for every scheme and dataset, killing any single disk loses
// exactly the buckets the allocation placed on it — never more — and the
// records readable from the survivors plus the records of the lost buckets
// reconstruct the full dataset. Clearing the fault recovers every lost
// bucket (the failure was transient; nothing was corrupted).
func TestSingleDiskFailureLosesOnlyThatDisk(t *testing.T) {
	const disks = 4
	datasets := map[string]*synth.Dataset{
		"uniform.2d": synth.Uniform2D(1200, 3),
		"hot.2d":     synth.Hotspot2D(1200, 5),
	}
	for dsName, ds := range datasets {
		f, err := ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := core.FromGridFile(f)
		full := recordCounts(f, bucketIDs(f))
		for algName, alg := range faultAllocators(t) {
			alloc, err := alg.Decluster(g, disks)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, algName, err)
			}
			dir := t.TempDir()
			if _, err := Write(dir, f, alloc, 4096); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for kill := 0; kill < disks; kill++ {
				reg := fault.NewRegistry(1)
				reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(kill), Kind: fault.KindError})
				s.SetFaults(reg)

				var lost []int32
				survived := map[[2]float64]int{}
				for _, v := range f.Buckets() {
					fl, _, err := readBucket(context.Background(), s, v.ID)
					if err != nil {
						pl, ok := s.Placement(v.ID)
						if !ok {
							t.Fatalf("%s/%s: failed bucket %d has no placement", dsName, algName, v.ID)
						}
						if pl.Disk != kill {
							t.Fatalf("%s/%s kill=%d: bucket %d on disk %d failed: %v",
								dsName, algName, kill, v.ID, pl.Disk, err)
						}
						if !errors.Is(err, fault.ErrInjected) {
							t.Fatalf("%s/%s kill=%d: bucket %d failed with a non-injected error: %v",
								dsName, algName, kill, v.ID, err)
						}
						lost = append(lost, v.ID)
						continue
					}
					for i := 0; i < fl.Len(); i++ {
						survived[[2]float64(fl.Row(i))]++
					}
				}
				if len(lost) == 0 {
					t.Fatalf("%s/%s kill=%d: no bucket lost — disk %d holds nothing?",
						dsName, algName, kill, kill)
				}
				// Survivors must be a strict subset of the dataset...
				for k, n := range survived {
					if n > full[k] {
						t.Fatalf("%s/%s kill=%d: key %v read %d times, dataset holds %d",
							dsName, algName, kill, k, n, full[k])
					}
				}
				// ...and survivors ∪ lost buckets' records == full dataset.
				for k, n := range recordCounts(f, lost) {
					survived[k] += n
				}
				if len(survived) != len(full) {
					t.Fatalf("%s/%s kill=%d: union has %d keys, dataset %d",
						dsName, algName, kill, len(survived), len(full))
				}
				for k, n := range full {
					if survived[k] != n {
						t.Fatalf("%s/%s kill=%d: key %v count %d, want %d",
							dsName, algName, kill, k, survived[k], n)
					}
				}
				// Recovery: clear the fault and replay the lost buckets from
				// the (intact) disk file.
				reg.Clear()
				for _, id := range lost {
					fl, _, err := readBucket(context.Background(), s, id)
					if err != nil {
						t.Fatalf("%s/%s kill=%d: bucket %d still failing after Clear: %v",
							dsName, algName, kill, id, err)
					}
					var pl Placement
					pl, _ = s.Placement(id)
					if pl.Recs != fl.Len() {
						t.Fatalf("%s/%s kill=%d: bucket %d recovered %d records, want %d",
							dsName, algName, kill, id, fl.Len(), pl.Recs)
					}
				}
			}
			s.Close()
		}
	}
}

func bucketIDs(f *gridfile.File) []int32 {
	views := f.Buckets()
	ids := make([]int32, len(views))
	for i, v := range views {
		ids[i] = v.ID
	}
	return ids
}

// TestInjectedDelayRespectsContext proves a stalled read is bounded by the
// caller's deadline instead of wedging: the injected 10s stall is abandoned
// as soon as the 20ms context expires.
func TestInjectedDelayRespectsContext(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := fault.NewRegistry(1)
	if err := reg.SetSpec("store.read:delay=10s"); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(reg)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = readBucket(ctx, s, f.Buckets()[0].ID)
	if err == nil {
		t.Fatal("stalled read returned data before its context expired")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stalled read held the caller %v; the context should have freed it", el)
	}
}

// TestTornReadIsDetectedNotSilent proves a torn read surfaces as a retryable
// injected error — page validation catches the truncation; it never leaks a
// partial bucket as a successful (silently wrong) result.
func TestTornReadIsDetectedNotSilent(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := fault.NewRegistry(1)
	if err := reg.SetSpec("store.read:torn"); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(reg)

	id := f.Buckets()[0].ID
	if _, _, err := readBucket(context.Background(), s, id); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn read: err=%v, want an injected-fault error", err)
	}
	// Genuine corruption (no fault armed) must stay non-transient: the
	// sentinel separates "retry me" from "your disk is bad".
	reg.Clear()
	if _, _, err := readBucket(context.Background(), s, id); err != nil {
		t.Fatalf("read still failing after Clear: %v", err)
	}
}
