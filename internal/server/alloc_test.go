//go:build !race

// The race detector makes sync.Pool drop a share of what is put into it, so
// an allocation count under -race measures the detector, not the server;
// scripts/check.sh runs this test on its own, without -race, as its last step.

package server

import (
	"bytes"
	"context"
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

// allocBytesBudget is the committed budget, in bytes allocated process-wide
// per byte of encoded answer, for cache-resident ranges that return their
// points in answers too large for a pooled buffer (≈ 72 KB each; the repo
// benchmark's range op is 64 KB). The client's decode — arena and point
// headers — is 2.5 of it on both sides of this budget; the server's share is
// the answer buffer: reserved once, the whole measures 3.8; regrown as the
// rows arrive, as it was before, 6.5. A count budget never sees the
// difference (each regrowth is one malloc, of tens of kilobytes).
const allocBytesBudget = 4.5

// TestAllocBudget holds the all-hit serving path to allocBudget for a FIFO
// client and for a pipelined one: count-only range queries over a server
// whose cache holds every bucket, so fetchBuckets never leaves its hit loop
// and every per-query buffer comes from a pool. The exec case holds the
// executor alone to its own budget, and the last case holds points-returning
// ranges to allocBytesBudget.
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

	// The executor alone, no socket and no Client: exec on an engine without a
	// listener, the reply appended to one reused buffer. It measures 1.00 — the
	// closure gridfile's range translation hands its cell walk; the pooled
	// scratch, query context and answer buffer add nothing per query — so of
	// the ≈ 4.0 above, 3 are the connection layer's and the client's. The
	// budget leaves the same half an allocation for the runtime and none for a
	// new per-query one.
	t.Run("exec", func(t *testing.T) {
		const execBudget = 1.5
		s, f := newTestEngine(t, 3000, 8, Config{})
		var reqs []Frame
		for _, q := range workload.SquareRange(f.Domain(), 0.02, 512, 3) {
			fr, err := encodeRequest(Request{Verb: VerbRange, Query: q, CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, fr)
		}
		var out []byte
		run := func(ops int) {
			for i := 0; i < ops; i++ {
				if out = s.exec(out[:0], reqs[i%len(reqs)]); Verb(out[0]) != VerbCount {
					t.Fatalf("reply verb 0x%02x: %s", out[0], out[1:])
				}
			}
		}
		run(2 * len(reqs))
		const ops, passes = 4000, 3
		perOp := math.Inf(1)
		for p := 0; p < passes; p++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(ops)
			runtime.ReadMemStats(&after)
			perOp = min(perOp, float64(after.Mallocs-before.Mallocs)/ops)
		}
		t.Logf("%.2f mallocs/op through exec alone, lowest of %d passes of %d ops (budget %v)", perOp, passes, ops, execBudget)
		if perOp > execBudget {
			t.Errorf("%.2f mallocs/op through exec on the cache-resident path, budget %v", perOp, execBudget)
		}
	})

	t.Run("points bytes", func(t *testing.T) {
		s, f := newTestServer(t, 20000, 8, Config{})
		cl := newTestClient(t, s, ClientConfig{PoolSize: 2})
		ranges := workload.SquareRange(f.Domain(), 0.3, 64, 3)
		answer := 0 // encoded bytes of one pass over ranges
		for i := 0; i < 2; i++ {
			answer = 0
			for _, q := range ranges {
				pts, _, err := cl.RangeCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				answer += 6 + 16*len(pts) + resultInfoBytes
			}
		}
		const passes = 3
		perByte := math.Inf(1)
		for p := 0; p < passes; p++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, q := range ranges {
				if _, _, err := cl.RangeCtx(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(answer))
		}
		t.Logf("%.2f bytes allocated per answer byte, lowest of %d passes of %d ranges (mean answer %d B, budget %v)",
			perByte, passes, len(ranges), answer/len(ranges), allocBytesBudget)
		if perByte > allocBytesBudget {
			t.Errorf("%.2f bytes allocated per answer byte on the cache-resident path, budget %v", perByte, allocBytesBudget)
		}
	})
}

// TestOversizedRangeAllocation: what a range too large for a frame allocates
// before it is refused — lowest of three calls, the count being process-wide
// — stays near one frame: the reservation is capped there and the scan stops
// at the first row past it. Encoding every row first took six frames' worth
// of regrown buffers. TestOversizedRangeRefusedEarly holds the refusal itself.
func TestOversizedRangeAllocation(t *testing.T) {
	s, f := newTestServer(t, 72000, 4, Config{}) // × 16 B per row = 1.1 × MaxFrameBytes
	req, err := encodeRequest(Request{Verb: VerbRange, Query: f.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	alloc := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ { // the first call fills the cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := s.reply(nil, req, 0, false)
		runtime.ReadMemStats(&after)
		if fr, err := ReadFrame(bytes.NewReader(out)); err != nil || fr.Verb != VerbError {
			t.Fatalf("reply: verb 0x%02x, %v", uint8(fr.Verb), err)
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(MaxFrameBytes + 128<<10); alloc > limit {
		t.Errorf("a refused answer allocated %d bytes, want at most %d", alloc, limit)
	}
}
