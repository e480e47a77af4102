//go:build !race

// The race detector makes sync.Pool drop a share of what is put into it, so
// an allocation count under -race measures the detector, not the server;
// scripts/check.sh runs this test on its own, without -race, as its last step.

package server

import (
	"math"
	"runtime"
	"testing"

	"pgridfile/internal/workload"
)

// allocBudget is the committed per-query allocation budget of the
// cache-resident serving path, client side included: the whole process's
// mallocs divided by the queries served. The path measures 3.6–4.02 (FIFO
// and pipelined, GOMAXPROCS 1–8, GOGC 10–400), so the budget leaves room for
// the runtime's background allocations and none for a new per-query one,
// which lands at 4.8–5.0. Raise it deliberately or not at all — a silent
// climb here is exactly what this test exists to catch.
const allocBudget = 4.5

// TestAllocBudget holds the all-hit serving path to allocBudget for a FIFO
// client and for a pipelined one: count-only range queries over a server
// whose cache holds every bucket, so fetchBuckets never leaves its hit loop
// and every per-query buffer comes from a pool.
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		client   ClientConfig
		inflight int
		workers  int
	}{
		{"fifo", ClientConfig{PoolSize: 8}, 32, 8},
		{"pipelined", ClientConfig{PoolSize: 8, Pipeline: 32}, 64, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := newTestServer(t, 3000, 8, Config{MaxInflight: tc.inflight})
			cl := newTestClient(t, s, tc.client)
			ranges := workload.SquareRange(f.Domain(), 0.02, 512, 3)

			// Warm-up: every distinct query twice, so the cache holds every
			// bucket the workload touches and the pools are populated.
			runClosedLoop(t, cl, ranges, tc.workers, 2*len(ranges))
			// The count is process-wide, so a pass can also catch the runtime's
			// or another goroutine's allocations; a per-query allocation on
			// the serving path shows in every pass, so the lowest of three is
			// held to the budget.
			const ops, passes = 4000, 3
			perOp := math.Inf(1)
			for p := 0; p < passes; p++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				runClosedLoop(t, cl, ranges, tc.workers, ops)
				runtime.ReadMemStats(&after)
				perOp = min(perOp, float64(after.Mallocs-before.Mallocs)/ops)
			}

			if misses := s.Snapshot().Cache.Misses; misses > int64(f.NumBuckets()) {
				t.Fatalf("%d cache misses over %d buckets: the measured pass was not cache-resident",
					misses, f.NumBuckets())
			}
			t.Logf("%.2f mallocs/op, lowest of %d passes of %d ops (budget %v)", perOp, passes, ops, allocBudget)
			if perOp > allocBudget {
				t.Errorf("%.2f mallocs/op on the cache-resident path, budget %v", perOp, allocBudget)
			}
		})
	}
}
