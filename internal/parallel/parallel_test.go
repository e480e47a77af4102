package parallel

import (
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// buildEngine loads a small 4-D dataset, declusters it with minimax and
// builds an engine with the given worker count.
func buildEngine(t *testing.T, workers int) (*Engine, *gridfile.File) {
	t.Helper()
	ds := synth.DSMC4D(8, 1200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(f, alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

func TestEngineValidation(t *testing.T) {
	ds := synth.DSMC4D(2, 200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	if _, err := New(f, core.Allocation{Assign: alloc.Assign}, Config{}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := New(f, core.Allocation{Disks: 4, Assign: alloc.Assign[1:]}, Config{}); err == nil {
		t.Error("allocation covering too few buckets accepted")
	}
	// A zero Disk means diskmodel.DefaultParams(), as DisksPerWorker 0 means 1;
	// a Disk that is set but has no block size is an error, not a panic.
	def, err := New(f, alloc, Config{})
	if err != nil {
		t.Fatalf("zero Disk: %v", err)
	}
	set, err := New(f, alloc, Config{Disk: diskmodel.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := def.Query(f.Domain())
	b, _ := set.Query(f.Domain())
	if a != b || a.Elapsed == 0 {
		t.Errorf("zero Disk ran %+v, DefaultParams %+v", a, b)
	}
	if _, err := New(f, alloc, Config{Disk: diskmodel.Params{CacheBlocks: 8}}); err == nil {
		t.Error("disk with no block size accepted")
	}
}

func TestAllRecordsDistributed(t *testing.T) {
	e, f := buildEngine(t, 4)
	totalBuckets := 0
	for _, n := range e.BucketsPerWorker() {
		totalBuckets += n
	}
	if totalBuckets != f.NumBuckets() {
		t.Errorf("workers own %d buckets, file has %d", totalBuckets, f.NumBuckets())
	}
}

func TestQueryReturnsCorrectRecordCount(t *testing.T) {
	e, f := buildEngine(t, 4)
	queries := workload.RandomRange4D(f.Domain(), 0.2, 20, 9)
	for i, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := f.RangeCount(q)
		if res.Records != want {
			t.Fatalf("query %d: engine found %d records, grid file %d", i, res.Records, want)
		}
	}
}

func TestQueryBlockAccounting(t *testing.T) {
	e, f := buildEngine(t, 4)
	q := f.Domain() // full scan touches every bucket exactly once
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != f.NumBuckets() {
		t.Errorf("full scan fetched %d blocks, want %d", res.Blocks, f.NumBuckets())
	}
	if res.Records != f.Len() {
		t.Errorf("full scan found %d records, want %d", res.Records, f.Len())
	}
	if res.ResponseBlocks > res.Blocks {
		t.Error("response blocks exceed total")
	}
	// Minimax balance: the slowest worker should fetch roughly 1/4 of the
	// buckets on a full scan.
	ceil := (f.NumBuckets() + 3) / 4
	if res.ResponseBlocks > ceil {
		t.Errorf("full-scan response %d exceeds balanced bound %d", res.ResponseBlocks, ceil)
	}
}

func TestElapsedDropsWithWorkers(t *testing.T) {
	ds := synth.DSMC4D(8, 1200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	queries := workload.RandomRange4D(f.Domain(), 0.1, 40, 11)

	elapsed := map[int]time.Duration{}
	respBlocks := map[int]int{}
	for _, workers := range []int{4, 16} {
		alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(f, alloc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tot, err := e.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		elapsed[workers] = tot.Elapsed
		respBlocks[workers] = tot.ResponseBlocks
	}
	if elapsed[16] >= elapsed[4] {
		t.Errorf("elapsed did not drop: 4 workers %v, 16 workers %v", elapsed[4], elapsed[16])
	}
	if respBlocks[16] >= respBlocks[4] {
		t.Errorf("response blocks did not drop: %d vs %d", respBlocks[4], respBlocks[16])
	}
}

func TestCachingHelpsRepeatedQueries(t *testing.T) {
	e, f := buildEngine(t, 4)
	q := workload.RandomRange4D(f.Domain(), 0.15, 1, 13)[0]
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits <= first.CacheHits {
		t.Errorf("second run hits %d, first %d", second.CacheHits, first.CacheHits)
	}
	if second.Elapsed >= first.Elapsed {
		t.Errorf("cached run not faster: %v vs %v", second.Elapsed, first.Elapsed)
	}
	// Cold caches restore the original cost.
	e.DropCaches()
	third, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != first.CacheHits {
		t.Errorf("after DropCaches hits = %d, want %d", third.CacheHits, first.CacheHits)
	}
}

func TestRunAggregates(t *testing.T) {
	e, f := buildEngine(t, 8)
	queries := workload.RandomRange4D(f.Domain(), 0.1, 15, 17)
	tot, err := e.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Queries != 15 {
		t.Errorf("Queries = %d", tot.Queries)
	}
	if tot.Blocks < tot.ResponseBlocks {
		t.Error("total blocks below response blocks")
	}
	if tot.Elapsed <= tot.Comm {
		t.Error("elapsed not above communication component")
	}
	// Disk stats agree with block accounting.
	reads := 0
	for _, st := range e.DiskStats() {
		reads += st.Reads
	}
	if reads != tot.Blocks {
		t.Errorf("disk reads %d, engine counted %d", reads, tot.Blocks)
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() Totals {
		ds := synth.DSMC4D(5, 600, 3)
		f, err := ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := core.FromGridFile(f)
		alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(f, alloc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tot, err := e.Run(workload.RandomRange4D(f.Domain(), 0.1, 25, 19))
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("engine timings not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestMultiDiskNodesReduceDiskTime(t *testing.T) {
	ds := synth.DSMC4D(8, 1200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.RandomRange4D(f.Domain(), 0.2, 30, 23)

	run := func(disksPerWorker int) Totals {
		disk := diskmodel.DefaultParams()
		disk.CacheBlocks = 0 // isolate the striping effect
		e, err := New(f, alloc, Config{DisksPerWorker: disksPerWorker, Disk: disk})
		if err != nil {
			t.Fatal(err)
		}
		tot, err := e.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}

	one := run(1)
	seven := run(7) // the SP-2's actual configuration
	if seven.Elapsed >= one.Elapsed {
		t.Errorf("7 disks/node elapsed %v not below 1 disk/node %v", seven.Elapsed, one.Elapsed)
	}
	// Striping changes timing, not which blocks are fetched.
	if seven.Blocks != one.Blocks || seven.ResponseBlocks != one.ResponseBlocks {
		t.Errorf("block accounting changed: %+v vs %+v", seven, one)
	}
	if seven.Records != one.Records {
		t.Errorf("record counts changed: %d vs %d", seven.Records, one.Records)
	}
}

func TestDisksPerWorkerDefaultsToOne(t *testing.T) {
	ds := synth.DSMC4D(2, 200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 2)
	e, err := New(f, alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(f.Domain()); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRecordsMatchesGridFile(t *testing.T) {
	ds := synth.DSMC4D(5, 800, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	e, err := New(f, alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RandomRange4D(f.Domain(), 0.2, 10, 51) {
		got, res, err := e.QueryRecords(q)
		if err != nil {
			t.Fatal(err)
		}
		want := f.RangeSearch(q)
		if len(got) != len(want) || res.Records != len(want) {
			t.Fatalf("%d records shipped, grid file has %d", len(got), len(want))
		}
		// Compare as multisets of first coordinates (cheap fingerprint)
		// plus exact containment checks.
		var sumGot, sumWant float64
		for _, p := range got {
			if !q.ContainsPoint(p) {
				t.Fatalf("shipped record %v outside query %v", p, q)
			}
			sumGot += p[0] + p[1]*3 + p[2]*7 + p[3]*13
		}
		for _, r := range want {
			sumWant += r.Key[0] + r.Key[1]*3 + r.Key[2]*7 + r.Key[3]*13
		}
		if diff := sumGot - sumWant; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("shipped record set differs (checksum %v vs %v)", sumGot, sumWant)
		}
	}
}

func TestPagedDirectoryCoordinator(t *testing.T) {
	ds := synth.DSMC4D(6, 900, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	queries := workload.RandomRange4D(f.Domain(), 0.15, 20, 61)

	run := func(pageCells int) Totals {
		e, err := New(f, alloc, Config{DirectoryPageCells: pageCells})
		if err != nil {
			t.Fatal(err)
		}
		tot, err := e.Run(queries)
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}

	flat := run(0)
	paged := run(256)
	// Identical block/record accounting: the paged directory changes only
	// the coordinator's simulated cost.
	if flat.Blocks != paged.Blocks || flat.Records != paged.Records ||
		flat.ResponseBlocks != paged.ResponseBlocks {
		t.Errorf("accounting differs:\nflat:  %+v\npaged: %+v", flat, paged)
	}
	if paged.Elapsed <= flat.Elapsed {
		t.Errorf("paged-directory elapsed %v not above flat %v (page reads cost time)",
			paged.Elapsed, flat.Elapsed)
	}
}

func TestPagedDirectoryRejectsBadPageSize(t *testing.T) {
	ds := synth.DSMC4D(2, 200, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 2)
	if _, err := New(f, alloc, Config{DirectoryPageCells: -5}); err != nil {
		t.Fatalf("negative page cells should mean flat directory, got %v", err)
	}
}

// The SP-2 model's "response by definition" and the paper's response-time
// metric are the same count: per query, the most buckets any one disk
// serves. The engine and sim.Replay must agree exactly on its sum over a
// workload and on the buckets fetched.
func TestEngineAgreesWithReplay(t *testing.T) {
	f, err := synth.Hotspot2D(10000, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	idx := f.IndexByID()
	queries := workload.SquareRange(f.Domain(), 0.05, 200, 71)
	for _, name := range []string{"minimax", "DM/D", "HCAM/D"} {
		for _, disks := range []int{4, 16} {
			allocator, err := core.ParseAllocator(name, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := allocator.Decluster(g, disks)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(f, alloc, Config{})
			if err != nil {
				t.Fatal(err)
			}
			tot, err := e.Run(queries)
			if err != nil {
				t.Fatal(err)
			}
			// A one-query replay's maximum is that query's response time.
			response := 0
			for _, q := range queries {
				one, err := sim.Replay(f, alloc, idx, []geom.Rect{q})
				if err != nil {
					t.Fatal(err)
				}
				response += one.MaxResponseTime
			}
			all, err := sim.Replay(f, alloc, idx, queries)
			if err != nil {
				t.Fatal(err)
			}
			if tot.ResponseBlocks != response || tot.Blocks != all.TotalBuckets || response == 0 {
				t.Errorf("%s M=%d: engine response %d of %d blocks, replay %d of %d",
					name, disks, tot.ResponseBlocks, tot.Blocks, response, all.TotalBuckets)
			}
		}
	}
}
