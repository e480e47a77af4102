package server

import (
	"context"
	"testing"

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
func BenchmarkExecRange(b *testing.B) {
	s, f := newTestEngine(b, 100000, 8, Config{})
	var reqs []Frame
	var out []byte
	for _, q := range workload.SquareRange(f.Domain(), 0.04, 256, 3) {
		fr, err := encodeRequest(Request{Verb: VerbRange, Query: q})
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, fr)
		if out = s.exec(out[:0], fr); Verb(out[0]) != VerbPoints { // and the buckets become resident
			b.Fatalf("reply verb 0x%02x: %s", out[0], out[1:])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		out = s.exec(out[:0], reqs[i%len(reqs)])
		rows += (len(out) - 1 - 6 - resultInfoBytes) / 16 // verb, dims+count, rows of two float64s, trailer
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
