package server

import (
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
		if _, _, err := cl.Range(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		pts, _, err := cl.Range(ranges[i%len(ranges)])
		if err != nil {
			b.Fatal(err)
		}
		rows += len(pts)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
