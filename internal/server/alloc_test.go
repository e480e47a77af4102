//go:build !race

// The race detector makes sync.Pool drop a share of what is put into it, so
// an allocation count under -race measures the detector, not the server;
// `make alloc` (a step of scripts/check.sh) runs every test in this file on
// its own, without -race.

package server

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/workload"
)

// allocBudget is the committed per-query allocation budget of the
// cache-resident serving path, client side included: the whole process's
// mallocs divided by the queries served. The path measures 2.00–2.04 (FIFO
// and pipelined, GOMAXPROCS 1–8, GOGC 10–400, and beside a busy test
// binary), so the budget leaves room for the runtime's background
// allocations and none for a new per-query one (a fresh cell vector for
// each translation measured 3.00). Raise it deliberately or not at all — a
// silent climb here is exactly what this test exists to catch.
const allocBudget = 2.5

// allocBytesBudget is the committed budget, in bytes allocated process-wide
// per byte of encoded answer, for cache-resident ranges that return their
// points in ≈ 72 KB answers, through a FIFO or a pipelined client. (The repo
// benchmark's `hot-closed` answers ≈ 19 KB on average, DESIGN S36; these are
// larger so that they sat above the pool's old 64 KiB retention cap.) The
// client's decode — arena and point headers, 40 bytes for each 16-byte 2-D
// row — is 2.5 of it; the whole measures 2.61–2.68 (FIFO and pipelined,
// GOMAXPROCS 1–8, GOGC 10–400), and the budget leaves the same half unit as
// allocBudget. Dropping the answer buffers above 64 KiB measures 3.8 (FIFO)
// and 4.75 (pipelined, whose client drops its reply buffers too; DESIGN
// S45). A count budget never sees the difference: each of those is one
// malloc, of tens of kilobytes.
const allocBytesBudget = 3.1

// serverBytesBudget is the server's share of the same answers on its own: a
// pooled buffer, the reply, and the buffer back into the pool. It measures
// 0.000 — the buffer is kept across queries — and 1.2 under the 64 KiB cap,
// one freshly allocated and cleared reservation per answer.
const serverBytesBudget = 0.5

// TestAllocBudget holds the all-hit serving path to allocBudget for a FIFO
// client and for a pipelined one: count-only range queries over a server
// whose cache holds every bucket, so fetchBuckets is one Resident call and
// every per-query buffer comes from a pool. The exec cases hold the executor
// alone, on counts, partial match and kNN, to budgets of their own, "exec miss" holds the
// miss path to a budget per missed bucket, and the last case holds
// points-returning ranges to serverBytesBudget and allocBytesBudget.
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
			warmMisses := s.Snapshot().Cache.Misses
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

			if misses := s.Snapshot().Cache.Misses; misses != warmMisses {
				t.Fatalf("%d cache misses in the measured passes: they were not cache-resident",
					misses-warmMisses)
			}
			t.Logf("%.2f mallocs/op, lowest of %d passes of %d ops (budget %v)", perOp, passes, ops, allocBudget)
			if perOp > allocBudget {
				t.Errorf("%.2f mallocs/op on the cache-resident path, budget %v", perOp, allocBudget)
			}
		})
	}

	// The executor alone, no socket and no Client: exec on an engine without a
	// listener, the reply appended to one reused buffer, lowest of three
	// passes. A count-only range measures 0.00 — the pooled scratch, query
	// context and answer buffer add nothing per query, and translation walks
	// the directory with the pooled scratch's cell vector (a fresh one per
	// query measured 1.00) — so the 2.0 above are the connection layer's and
	// the client's. A partial-match line measures 0.00 with its box built in
	// the pooled scratch (a fresh box and a copy of the domain measured
	// 2.00). Ten nearest neighbours over the same resident engine measure
	// 0.00: the probe box is pooled too, and the domain and the cell counts
	// are read in place (copying them and the box measured 3.00); the
	// candidates live in the pooled heap (a candidate slice per probe, sorted
	// whole, measured 15.33; a set of the buckets earlier probes fetched,
	// 4.68). Each budget leaves half an allocation for the runtime and none
	// for a new per-query one.
	for _, tc := range []struct {
		name   string
		budget float64
		req    func(f *gridfile.File) []Request
		reply  Verb
	}{
		{"exec", 0.5, func(f *gridfile.File) (reqs []Request) {
			for _, q := range workload.SquareRange(f.Domain(), 0.02, 512, 3) {
				reqs = append(reqs, Request{Verb: VerbRange, Query: q, CountOnly: true})
			}
			return reqs
		}, VerbCount},
		{"exec partial", 0.5, func(f *gridfile.File) (reqs []Request) {
			for _, vals := range workload.PartialMatch(f.Domain(), 1, 512, 3) {
				reqs = append(reqs, Request{Verb: VerbPartial, Vals: vals})
			}
			return reqs
		}, VerbPoints},
		{"exec knn", 0.5, func(f *gridfile.File) (reqs []Request) {
			f.Scan(func(key []float64, _ []byte) bool {
				reqs = append(reqs, Request{Verb: VerbKNN, Key: geom.Point{key[0], key[1]}, K: 10})
				return len(reqs) < 512
			})
			return reqs
		}, VerbPoints},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, f := newTestEngine(t, 3000, 8, 1, Config{})
			var reqs []Frame
			for _, req := range tc.req(f) {
				fr, err := encodeRequest(req)
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, fr)
			}
			var out []byte
			run := func(ops int) {
				for i := 0; i < ops; i++ {
					if out = s.exec(out[:0], reqs[i%len(reqs)]); Verb(out[0]) != tc.reply {
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
			if misses := s.Snapshot().Cache.Misses; misses > int64(f.NumBuckets()) {
				t.Fatalf("%d cache misses over %d buckets: the measured pass was not cache-resident", misses, f.NumBuckets())
			}
			t.Logf("%.2f mallocs/op through exec alone, lowest of %d passes of %d ops (budget %v)", perOp, passes, ops, tc.budget)
			if perOp > tc.budget {
				t.Errorf("%.2f mallocs/op through exec on the cache-resident path, budget %v", perOp, tc.budget)
			}
		})
	}

	// The miss path, per missed bucket: count-only ranges through exec on an
	// engine whose cache holds a few dozen buckets (coldCache), so nearly
	// every bucket a query reads is read from its disk — by the query
	// itself or by the disk's worker — decoded and cached, evicting another.
	// The floor is two allocations a miss: the decode arena and the cache's
	// Pending, which is also the entry it becomes. It measures 2.01 at 15.1
	// misses a query: the batches' room for their records and the response
	// channel live in the pooled query state (DESIGN S56). It measured 2.62
	// while each query made its response channel and each disk batch its
	// result slice, 2.43 at 23.3 misses a query while a count read every
	// bucket it touched (DESIGN S53), and 7.61 while a miss also made a
	// channel nobody joined and a separate entry, each query a map of fresh
	// per-disk batches whose slices grew lead by lead, and each span read a
	// slice header to put its buffer back in the pool. The budget is 2.01
	// plus half an allocation for the runtime.
	t.Run("exec miss", func(t *testing.T) {
		const budget = 2.5
		s, f := newTestEngine(t, 20000, 8, 1, coldCache)
		var reqs []Frame
		for _, q := range workload.SquareRange(f.Domain(), 0.04, 256, 3) {
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
		const ops, passes = 2000, 3
		perMiss, misses := math.Inf(1), int64(0)
		for p := 0; p < passes; p++ {
			misses = s.Snapshot().Cache.Misses
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(ops)
			runtime.ReadMemStats(&after)
			misses = s.Snapshot().Cache.Misses - misses
			if misses < 10*ops {
				t.Fatalf("%d misses in %d ops: the pass was not the miss path", misses, ops)
			}
			perMiss = min(perMiss, float64(after.Mallocs-before.Mallocs)/float64(misses))
		}
		t.Logf("%.2f mallocs per missed bucket through exec (%.1f misses a query), lowest of %d passes of %d ops (budget %v)",
			perMiss, float64(misses)/ops, passes, ops, budget)
		if perMiss > budget {
			t.Errorf("%.2f mallocs per missed bucket on the miss path, budget %v", perMiss, budget)
		}
	})

	// Points-returning ranges, by bytes: the server's share alone — what a
	// connection does per request short of the socket: a pooled buffer, reply,
	// and back into the pool — and then the whole process through a FIFO and
	// a pipelined client, whose excess over the server's share is the
	// client's.
	t.Run("points bytes", func(t *testing.T) {
		s, f := newTestServer(t, 20000, 8, Config{})
		ranges := workload.SquareRange(f.Domain(), 0.3, 64, 3)
		var reqs []Frame
		answer := 0 // encoded bytes of one pass over ranges
		for _, q := range ranges {
			fr, err := encodeRequest(Request{Verb: VerbRange, Query: q})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, fr)
			wire := s.reply(nil, fr, 0, false) // and the buckets become resident
			if Verb(wire[4]) != VerbPoints {
				t.Fatalf("reply verb 0x%02x: %s", wire[4], wire[5:])
			}
			answer += len(wire) - 5
		}
		// lowest runs pass twice to warm up, then three times measured, and
		// returns the lowest bytes allocated per answer byte of the three. The
		// collector is off meanwhile: each cycle empties sync.Pool, and what
		// refilling it costs depends on GOGC and GOMAXPROCS (2.6–3.3 over
		// 10–400 and 2–8 with it on), not on the path being held.
		lowest := func(pass func()) float64 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			pass()
			pass()
			perByte := math.Inf(1)
			for p := 0; p < 3; p++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				pass()
				runtime.ReadMemStats(&after)
				perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(answer))
			}
			return perByte
		}
		server := lowest(func() {
			for _, fr := range reqs {
				bp := getRespBuf()
				*bp = s.reply((*bp)[:0], fr, 0, false)
				putRespBuf(bp)
			}
		})
		t.Logf("server: %.3f bytes allocated per answer byte, lowest of 3 passes of %d ranges (mean answer %d B, budget %v)",
			server, len(ranges), answer/len(ranges), serverBytesBudget)
		if server > serverBytesBudget {
			t.Errorf("server: %.3f bytes allocated per answer byte on the cache-resident path, budget %v", server, serverBytesBudget)
		}
		for _, tc := range []struct {
			name   string
			client ClientConfig
		}{
			{"fifo", ClientConfig{PoolSize: 2}},
			{"pipelined", ClientConfig{PoolSize: 2, Pipeline: 8}},
		} {
			cl := newTestClient(t, s, tc.client)
			whole := lowest(func() {
				for _, q := range ranges {
					if _, _, err := cl.RangeCtx(context.Background(), q); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("%s: %.2f bytes allocated per answer byte, the client's share %.2f (budget %v)",
				tc.name, whole, whole-server, allocBytesBudget)
			if whole > allocBytesBudget {
				t.Errorf("%s: %.2f bytes allocated per answer byte on the cache-resident path, budget %v",
					tc.name, whole, allocBytesBudget)
			}
		}
	})
}

// TestScanReservesOnce: the scan's answer buffer is allocated once, exactly
// as large as the rows of the buckets the query does not miss and the
// trailer, and never regrown — a query that misses most buckets of its
// translation reserves nothing for them.
func TestScanReservesOnce(t *testing.T) {
	// Eight buckets of 100 2-D rows each, bucket b on the square [10b, 10b+9]².
	var recs []geom.Flat
	for b := 0; b < 8; b++ {
		coords := make([]float64, 0, 200)
		for i := 0; i < 100; i++ {
			coords = append(coords, float64(10*b+i%10), float64(10*b+i/10))
		}
		recs = append(recs, geom.Flat{Dims: 2, Coords: coords, Box: boxOf(2, coords)})
	}
	var covers []bucketCover
	for _, tc := range []struct {
		name    string
		q       geom.Rect
		matched int // rows the query matches
		kept    int // rows of the buckets it does not miss
	}{
		{"one bucket", geom.Rect{{Lo: 0, Hi: 9}, {Lo: 0, Hi: 9}}, 100, 100},
		{"one straddled", geom.Rect{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 9}}, 50, 100},
		{"all", geom.Rect{{Lo: 0, Hi: 79}, {Lo: 0, Hi: 79}}, 800, 800},
	} {
		var enc resultEncoder
		allocs := testing.AllocsPerRun(5, func() {
			enc = newResultEncoder(nil, 2)
			if n, err := scanBuckets(recs, tc.q, &enc, &covers); err != nil || n != tc.matched {
				t.Fatalf("%s: %d rows (%v), want %d", tc.name, n, err, tc.matched)
			}
		})
		// newResultEncoder's header is the one allocation besides the reservation.
		if allocs != 2 {
			t.Errorf("%s: %v allocations per scan, want 2 (header, one reservation)", tc.name, allocs)
		}
		if want := 6 + 16*tc.kept + resultInfoBytes; cap(enc.buf) != want {
			t.Errorf("%s: answer buffer of %d bytes, want %d", tc.name, cap(enc.buf), want)
		}
	}

	// The largest reply a connection sends — a pipelining envelope around an
	// answer at the frame limit — fits a buffer the pool keeps.
	buf, _ := beginFrame(make([]byte, 0, 512), VerbTaggedReply, 1, true)
	enc := newResultEncoder(append(buf, byte(VerbPoints)), 2)
	enc.reserve(MaxFrameBytes / 16)
	if cap(enc.buf) > maxPooledRespBuf {
		t.Errorf("a reply at the frame limit needs a %d-byte buffer, the pool keeps at most %d", cap(enc.buf), maxPooledRespBuf)
	}
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
