package server

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/workload"
)

// BenchmarkRangeResident is the repo benchmark's hot-closed range op in
// miniature: one closed-loop client over loopback asking points-returning
// 4 % range queries (≈ 4000 rows, a 64 KB answer over ≈ 150 buckets) of a
// server whose cache holds every bucket, so the time is the CPU path from
// cached bucket to wire and B/op shows what an answer costs in buffer.
// DESIGN.md S36 has the one-liner that turns it into a CPU profile.
func BenchmarkRangeResident(b *testing.B) {
	s, f := newTestServer(b, 100000, 8, Config{})
	cl := newTestClient(b, s, ClientConfig{})
	ranges := workload.SquareRange(f.Domain(), 0.04, 256, 3)
	for _, q := range ranges { // every bucket the queries touch becomes resident
		if _, _, err := cl.RangeCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		pts, _, err := cl.RangeCtx(context.Background(), ranges[i%len(ranges)])
		if err != nil {
			b.Fatal(err)
		}
		rows += len(pts)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkExecRange is BenchmarkRangeResident without the socket and without
// the Client: the same resident ranges handed to exec as request frames on an
// engine that has no listener, the inner reply appended to one reused buffer.
// What is left is translate, cache hits, scan and encode, so the difference
// between the two is the connection layer plus the client (DESIGN.md S39).
func BenchmarkExecRange(b *testing.B) { benchExec(b, Config{}, false, residentRanges) }

// BenchmarkExecRangeParallel is BenchmarkExecRange from every P at once, each
// goroutine with its own reply buffer. One goroutine never shows what a cache
// hit costs when the cache is shared: a lock or a counter whose cache line
// moves between cores (DESIGN.md S48).
func BenchmarkExecRangeParallel(b *testing.B) { benchExec(b, Config{}, true, residentRanges) }

// coldCache is a cache of 64 KiB: a few dozen of the benchmark layout's
// buckets, so nearly every bucket a 4 % range needs is a miss.
var coldCache = Config{CacheBytes: 64 << 10}

// BenchmarkExecRangeCold is BenchmarkExecRange on an engine whose cache
// holds a few buckets: the miss path, from "this bucket is not resident"
// through the disk worker's pread and decode to the cache insert and its
// eviction — the regime of the repo benchmark's cold-closed, where that
// path's bookkeeping once cost as much as its preads (DESIGN.md S50). The
// preads hit the page cache.
func BenchmarkExecRangeCold(b *testing.B) { benchExec(b, coldCache, false, residentRanges) }

// BenchmarkExecRangeColdParallel is BenchmarkExecRangeCold from every P at
// once: misses of different queries meet in the cache's shards and the
// disk workers' queues.
func BenchmarkExecRangeColdParallel(b *testing.B) { benchExec(b, coldCache, true, residentRanges) }

// residentRanges are BenchmarkRangeResident's 4 % ranges as requests.
func residentRanges(dom geom.Rect) (reqs []Request) {
	for _, q := range workload.SquareRange(dom, 0.04, 256, 3) {
		reqs = append(reqs, Request{Verb: VerbRange, Query: q})
	}
	return reqs
}

// BenchmarkExecCount is BenchmarkExecRange on count-only 1 % ranges, the
// repo benchmark's range-count op: translation splits each box's buckets
// into those on its border, which are read and scanned, and those inside
// it, whose records the directory counts (DESIGN.md S53). rows/op is the
// mean count.
func BenchmarkExecCount(b *testing.B) { benchExec(b, Config{}, false, countRanges) }

// BenchmarkExecCountCold is BenchmarkExecCount on coldCache: only the border
// buckets are missed, read and decoded.
func BenchmarkExecCountCold(b *testing.B) { benchExec(b, coldCache, false, countRanges) }

// countRanges are 1 % count-only ranges as requests.
func countRanges(dom geom.Rect) (reqs []Request) {
	for _, q := range workload.SquareRange(dom, 0.01, 256, 3) {
		reqs = append(reqs, Request{Verb: VerbRange, Query: q, CountOnly: true})
	}
	return reqs
}

// BenchmarkExecPartial is BenchmarkExecRange on partial-match lines (one
// attribute given): nearly every bucket a line crosses straddles it along
// that one dimension, so the time is the per-row test the scan runs there.
func BenchmarkExecPartial(b *testing.B) {
	benchExec(b, Config{}, false, func(dom geom.Rect) (reqs []Request) {
		for _, vals := range workload.PartialMatch(dom, 1, 256, 3) {
			reqs = append(reqs, Request{Verb: VerbPartial, Vals: vals})
		}
		return reqs
	})
}

// BenchmarkExecKNN is BenchmarkExecRange on ten-nearest-neighbour queries
// around keys spread over the domain: expanding probes, each translated and
// fetched from the cache, and the candidates of every fetched bucket.
func BenchmarkExecKNN(b *testing.B) {
	benchExec(b, Config{}, false, func(dom geom.Rect) (reqs []Request) {
		for _, q := range workload.SquareRange(dom, 0.0001, 256, 3) {
			reqs = append(reqs, Request{Verb: VerbKNN, Key: geom.Point{q[0].Lo, q[1].Lo}, K: 10})
		}
		return reqs
	})
}

// benchExec runs the requests gen makes, in turn, through exec on an engine
// configured by cfg over 100 000 uniform 2-D records — with the default
// cache, one that holds every bucket they touch — from every P at once when
// parallel, and reports answer rows (or counted records) per op.
func benchExec(b *testing.B, cfg Config, parallel bool, gen func(dom geom.Rect) []Request) {
	s, f := newTestEngine(b, 100000, 8, 1, cfg)
	var reqs []Frame
	var out []byte
	for _, req := range gen(f.Domain()) {
		fr, err := encodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, fr)
		want := VerbPoints
		if req.CountOnly {
			want = VerbCount
		}
		if out = s.exec(out[:0], fr); Verb(out[0]) != want { // and the buckets become resident
			b.Fatalf("reply verb 0x%02x: %s", out[0], out[1:])
		}
	}
	var rows atomic.Int64
	loop := func(next func() bool) {
		var out []byte
		n := 0
		for i := 0; next(); i++ {
			out = s.exec(out[:0], reqs[i%len(reqs)])
			if Verb(out[0]) == VerbCount {
				n += int(binary.LittleEndian.Uint32(out[1:])) // verb, count, trailer
			} else {
				n += (len(out) - 1 - 6 - resultInfoBytes) / 16 // verb, dims+count, rows of two float64s, trailer
			}
		}
		rows.Add(int64(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) { loop(pb.Next) })
	} else {
		i := 0
		loop(func() bool { i++; return i <= b.N })
	}
	b.ReportMetric(float64(rows.Load())/float64(b.N), "rows/op")
}
