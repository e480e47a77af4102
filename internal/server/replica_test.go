package server

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// replicaAllocators mirrors the store package's single-disk-failure matrix:
// one of each allocator family.
func replicaAllocators(t *testing.T) map[string]core.Allocator {
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

// newReplicatedServer lays out f with alloc at replication factor r and
// serves it with the given config; it returns the layout directory too.
func newReplicatedServer(t *testing.T, f *gridfile.File, g core.Grid, alloc core.Allocation, r int, cfg Config) (*Server, string) {
	t.Helper()
	rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// loseDisk truncates disk d's page file to nothing under a running server —
// a real failure of every copy on it, not an injected one — and returns the
// function that puts its bytes back.
func loseDisk(t *testing.T, dir string, d int) (restore func()) {
	t.Helper()
	path := filepath.Join(dir, store.DiskFileName(d))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fullAnswerWithout truncates each disk of dir in turn and requires the
// full-domain range to stay complete and undegraded, failing over every
// time, and the full-domain count to stay complete and undegraded: at r=2 a
// lost disk costs no answer, with degraded mode on or off. The range reads
// every bucket, so each lost disk must be failed over; the count reads only
// the buckets owning an edge cell of the grid, which a disk may not hold.
func fullAnswerWithout(t *testing.T, s *Server, cl *Client, dir string, f *gridfile.File, disks int) {
	t.Helper()
	for lose := 0; lose < disks; lose++ {
		restore := loseDisk(t, dir, lose)
		before := s.Snapshot().ReplicaFailover
		pts, info, err := cl.RangeCtx(context.Background(), f.Domain())
		if err != nil || info.Degraded || len(pts) != f.Len() {
			t.Fatalf("disk %d truncated: range %d of %d, degraded=%v, err %v", lose, len(pts), f.Len(), info.Degraded, err)
		}
		if s.Snapshot().ReplicaFailover == before {
			t.Fatalf("disk %d truncated: the range never failed over", lose)
		}
		n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
		if err != nil || info.Degraded || n != f.Len() {
			t.Fatalf("disk %d truncated: count %d of %d, degraded=%v, err %v", lose, n, f.Len(), info.Degraded, err)
		}
		restore()
	}
}

// TestReplicatedKillAnyDiskFullAnswers is the acceptance property of the
// replication subsystem: for every allocator family, both workload shapes
// and EVERY single killed disk, an r=2 layout keeps serving 100% complete
// (non-degraded) answers — the failover path reroutes every batch that hits
// the dead disk to the surviving owner. Degraded mode is ON, so a partial
// answer would be a silent pass for the old behavior; the test demands the
// stronger outcome. A disk whose file is truncated under the server — a real
// read failure, not an injected one — is survived the same way.
func TestReplicatedKillAnyDiskFullAnswers(t *testing.T) {
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
		want := f.Len()
		for algName, alg := range replicaAllocators(t) {
			alloc, err := alg.Decluster(g, disks)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, algName, err)
			}
			reg := fault.NewRegistry(1)
			s, dir := newReplicatedServer(t, f, g, alloc, 2, Config{
				Faults:     reg,
				Degraded:   true,
				CacheBytes: -1, // every query does real injected I/O
			})
			cl := newTestClient(t, s, ClientConfig{})
			for kill := 0; kill < disks; kill++ {
				reg.Clear()
				reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(kill), Kind: fault.KindError})
				for i := 0; i < 3; i++ {
					n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
					if err != nil {
						t.Fatalf("%s/%s kill=%d: full-domain count errored: %v",
							dsName, algName, kill, err)
					}
					if info.Degraded || info.MissedDisks != 0 {
						t.Fatalf("%s/%s kill=%d: degraded=%v missed=%d — failover did not cover the dead disk",
							dsName, algName, kill, info.Degraded, info.MissedDisks)
					}
					if n != want {
						t.Fatalf("%s/%s kill=%d: count = %d, want %d",
							dsName, algName, kill, n, want)
					}
				}
			}
			reg.Clear()
			fullAnswerWithout(t, s, cl, dir, f, disks)
			snap := s.Snapshot()
			if snap.Replicas != 2 {
				t.Errorf("%s/%s: snapshot replicas = %d, want 2", dsName, algName, snap.Replicas)
			}
			if snap.ReplicaFailover == 0 {
				t.Errorf("%s/%s: zero failovers across %d disk kills — did the faults fire?",
					dsName, algName, disks)
			}
			if snap.Degraded != 0 || snap.Errors != 0 {
				t.Errorf("%s/%s: degraded=%d errors=%d, want 0/0",
					dsName, algName, snap.Degraded, snap.Errors)
			}
			if snap.WriteAmp != 2 {
				t.Errorf("%s/%s: write amplification %g, want 2", dsName, algName, snap.WriteAmp)
			}
		}
	}
}

// TestReplicatedFailoverWithoutDegradedMode proves failover is not a feature
// of degraded serving: with Degraded off, a dead disk in an r=2 layout — an
// injected kill, or any one disk file truncated — still yields complete
// answers instead of hard errors.
func TestReplicatedFailoverWithoutDegradedMode(t *testing.T) {
	const disks = 4
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(1)
	reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(2), Kind: fault.KindError})
	s, dir := newReplicatedServer(t, f, g, alloc, 2, Config{
		Faults:     reg,
		CacheBytes: -1,
	})
	cl := newTestClient(t, s, ClientConfig{})
	n, info, err := cl.RangeCountCtx(context.Background(), f.Domain())
	if err != nil {
		t.Fatalf("full-domain count with Degraded=false errored: %v", err)
	}
	if info.Degraded || n != f.Len() {
		t.Fatalf("count = %d degraded=%v, want %d/false", n, info.Degraded, f.Len())
	}
	if snap := s.Snapshot(); snap.ReplicaFailover == 0 {
		t.Error("no failovers recorded")
	}
	reg.Clear()
	fullAnswerWithout(t, s, cl, dir, f, disks)
	if snap := s.Snapshot(); snap.Errors != 0 {
		t.Errorf("%d queries failed", snap.Errors)
	}
}

// TestReplicaMetricsExposition checks the new counters reach both the STATS
// snapshot and the Prometheus endpoint with plausible values, including the
// replica-overhead gauges.
func TestReplicaMetricsExposition(t *testing.T) {
	const disks = 4
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(1)
	reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(0), Kind: fault.KindError})
	s, _ := newReplicatedServer(t, f, g, alloc, 2, Config{
		Faults:     reg,
		Degraded:   true,
		CacheBytes: -1,
		HTTPAddr:   "127.0.0.1:0",
	})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCountCtx(context.Background(), f.Domain()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.ReplicaFailover == 0 || snap.ReplicaPrimary == 0 {
		t.Fatalf("failover=%d primary=%d, want both nonzero", snap.ReplicaFailover, snap.ReplicaPrimary)
	}
	if snap.DiskBytes == 0 || snap.WriteAmp != 2 {
		t.Fatalf("disk_bytes=%d write_amp=%g, want nonzero/2", snap.DiskBytes, snap.WriteAmp)
	}
	metrics := httpGet(t, s.HTTPAddr().String(), "/metrics")
	for _, line := range []string{
		"gridserver_replicas 2",
		"gridserver_replica_failover_total",
		`gridserver_replica_reads_total{copy="primary"}`,
		`gridserver_replica_reads_total{copy="secondary"}`,
		"gridserver_write_amplification 2",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	if strings.Contains(metrics, "gridserver_replica_failover_total 0\n") {
		t.Error("/metrics reports zero failovers after a disk kill")
	}
}

// TestReadRouteIsAFunctionOfTheQuery pins which copy a read takes at r=2 with
// the cache off: its first whole copy in owner order, so the (bucket, disk)
// reads a query stream issues do not depend on what else is in flight. The
// same stream of point-returning ranges and kNN queries, run on one
// goroutine and then on eight, reads the same buckets from every disk, and
// never a secondary. With one disk's reads failing, each bucket a range
// touches whose primary is that disk is read from its next owner, once per
// range, and every other bucket from its primary. (A range is what reads
// every bucket it touches; a count reads only those on its border.)
func TestReadRouteIsAFunctionOfTheQuery(t *testing.T) {
	const disks, dead = 4, 1
	reg := fault.NewRegistry(1)
	s, f := newTestEngine(t, 3000, disks, 2, Config{Faults: reg, CacheBytes: -1})
	var ranges, reqs []Frame
	for _, q := range workload.SquareRange(f.Domain(), 0.03, 60, 7) {
		fr, err := encodeRequest(Request{Verb: VerbRange, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		ranges = append(ranges, fr)
	}
	reqs = append(reqs, ranges...)
	f.Scan(func(key []float64) bool {
		fr, err := encodeRequest(Request{Verb: VerbKNN, Key: geom.Point{key[0], key[1]}, K: 1 + len(reqs)%40})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, fr)
		return len(reqs) < 120
	})
	// run serves reqs from workers goroutines and returns what each disk
	// served and the failovers, as deltas over the run.
	run := func(reqs []Frame, workers int) (fetches []int64, failovers int64) {
		before := s.Snapshot()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reqs); i += workers {
					if out := s.exec(nil, reqs[i]); Verb(out[0]) == VerbError {
						t.Errorf("request %d: %s", i, out[1:])
					}
				}
			}(w)
		}
		wg.Wait()
		after := s.Snapshot()
		fetches = make([]int64, disks)
		for d := range fetches {
			fetches[d] = after.DiskFetches[d] - before.DiskFetches[d]
		}
		return fetches, after.ReplicaFailover - before.ReplicaFailover
	}

	seq, _ := run(reqs, 1)
	par, _ := run(reqs, 8)
	if !slices.Equal(seq, par) {
		t.Errorf("buckets read per disk: %v on one goroutine, %v on eight", seq, par)
	}
	if snap := s.Snapshot(); snap.ReplicaSecondary != 0 {
		t.Errorf("%d secondary reads with every copy whole", snap.ReplicaSecondary)
	}

	want := make([]int64, disks)
	var wantFailovers int64
	for _, q := range workload.SquareRange(f.Domain(), 0.03, 60, 7) {
		for _, id := range s.st.Grid().BucketsInRange(q) {
			pl, _ := s.st.Placement(id)
			own := pl.OwnerDisks
			if own[0] == dead {
				want[own[1]]++
				wantFailovers++
			} else {
				want[own[0]]++
			}
		}
	}
	if wantFailovers == 0 {
		t.Fatalf("no range reads a bucket whose primary is disk %d", dead)
	}
	reg.Set(fault.Rule{Site: fault.StoreReadDiskSite(dead), Kind: fault.KindError})
	got, failovers := run(ranges, 8)
	if !slices.Equal(got, want) || failovers != wantFailovers {
		t.Errorf("disk %d failing: buckets read per disk %v with %d failovers, want %v with %d",
			dead, got, failovers, want, wantFailovers)
	}
}
