package server

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"

	"pgridfile/internal/geom"
)

// boxOf is the bounding box store.decodeBucketFlat attaches to a bucket,
// computed the slow way.
func boxOf(dims int, coords []float64) []float64 {
	box := make([]float64, 2*dims)
	for d := 0; d < dims; d++ {
		box[2*d], box[2*d+1] = math.Inf(1), math.Inf(-1)
	}
	for i, v := range coords {
		d := i % dims
		box[2*d] = min(box[2*d], v)
		box[2*d+1] = max(box[2*d+1], v)
	}
	return box
}

// TestScanBucketsMatchesRowPredicate holds the bucket-level shortcuts of
// scanBuckets to the plain per-row loop they replace: the same count, and the
// same rows in the same order, for seeded random and degenerate
// (partial-match) boxes in 2-D and 3-D over buckets chosen to land on every
// branch — a straddled bucket's rows tested on some dimensions only among
// them. Coordinates sit on a coarse integer lattice, so rows lie exactly on
// query faces and query boxes equal bucket boxes all the time, not by luck.
func TestScanBucketsMatchesRowPredicate(t *testing.T) {
	for _, dims := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dD", dims), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dims)))
			const lattice = 12
			var recs []geom.Flat
			for b := 0; b < 60; b++ {
				// A bucket's rows fill a random lattice cell block.
				lo, ext := make([]int, dims), make([]int, dims)
				for d := range lo {
					lo[d], ext[d] = rng.Intn(lattice), 1+rng.Intn(4)
				}
				coords := make([]float64, 0, 30*dims)
				for i := 1 + rng.Intn(30); i > 0; i-- {
					for d := 0; d < dims; d++ {
						coords = append(coords, float64(lo[d]+rng.Intn(ext[d])))
					}
				}
				fl := geom.Flat{Dims: dims, Coords: coords, Box: boxOf(dims, coords)}
				if b%7 == 0 {
					fl.Box = nil // a Flat nobody computed a box for
				}
				recs = append(recs, fl)
			}
			nan := make([]float64, 3*dims)
			for i := range nan {
				nan[i] = 3
			}
			nan[dims] = math.NaN() // as decoded: a NaN row means no box
			recs = append(recs,
				geom.Flat{},           // what a degraded fetch leaves
				geom.Flat{Dims: dims}, // a decoded empty bucket
				geom.Flat{Dims: dims, Coords: []float64{}},
				geom.Flat{Dims: dims, Coords: nan},
			)

			var queries []geom.Rect
			whole := make(geom.Rect, dims)
			for d := range whole {
				whole[d] = geom.Interval{Lo: 0, Hi: lattice + 4}
			}
			queries = append(queries, whole)
			for _, fl := range recs[:20] {
				if fl.Box == nil {
					continue
				}
				equal, inside, beside := make(geom.Rect, dims), make(geom.Rect, dims), make(geom.Rect, dims)
				for d := 0; d < dims; d++ {
					lo, hi := fl.Box[2*d], fl.Box[2*d+1]
					equal[d] = geom.Interval{Lo: lo, Hi: hi}
					inside[d] = geom.Interval{Lo: lo + 0.5, Hi: hi - 0.5} // empty when the box is a point
					beside[d] = geom.Interval{Lo: hi + 1, Hi: hi + 2}
				}
				queries = append(queries, equal, inside, beside)
				// Inside q along every dimension but one, which q cuts
				// with a face on the box's low row and one on a row
				// inside it.
				for cut := 0; cut < dims; cut++ {
					part := equal.Clone()
					lo := fl.Box[2*cut]
					part[cut] = geom.Interval{Lo: lo, Hi: lo + 1}
					queries = append(queries, part)
				}
			}
			for i := 0; i < 300; i++ {
				q := make(geom.Rect, dims)
				for d := range q {
					a, b := float64(rng.Intn(lattice+4)), float64(rng.Intn(lattice+4))
					q[d] = geom.Interval{Lo: min(a, b), Hi: max(a, b)}
				}
				if i%3 == 0 { // partial match: one attribute given, the rest open
					q = whole.Clone()
					v := float64(rng.Intn(lattice + 4))
					q[rng.Intn(dims)] = geom.Interval{Lo: v, Hi: v}
				}
				if i%3 == 1 && dims == 3 { // a partial-match line: one attribute open
					q = whole.Clone()
					for d := range q {
						if v := float64(rng.Intn(lattice + 4)); d != i%dims {
							q[d] = geom.Interval{Lo: v, Hi: v}
						}
					}
				}
				queries = append(queries, q)
			}

			branches := map[geom.Cover]int{}
			someDims := 0            // straddled buckets whose rows are tested on fewer than dims dimensions
			var covers []bucketCover // the scratch, reused across queries as a pooled qstate's is
			for _, q := range queries {
				var want []geom.Point
				for _, rec := range recs {
					c, cross := rec.Cover(q)
					branches[c]++
					if c == geom.Straddles && cross != geom.AllDims && bits.OnesCount64(cross) < dims {
						someDims++
					}
					for i := 0; i < rec.Len(); i++ {
						row := rec.Row(i)
						if q.ContainsPoint(row) {
							want = append(want, geom.Point(row))
						}
						for d := range q { // the dimensions cross leaves out need no test
							if c == geom.Straddles && cross>>d&1 == 0 && !q[d].Contains(row[d]) {
								t.Fatalf("%v: row %v of a bucket straddling on %b is outside q along dimension %d", q, row, cross, d)
							}
						}
					}
				}
				if n, err := scanBuckets(recs, q, nil, &covers); err != nil || n != len(want) {
					t.Fatalf("%v: counted %d (%v), row predicate says %d", q, n, err, len(want))
				}
				enc := newResultEncoder(nil, dims)
				n, err := scanBuckets(recs, q, &enc, &covers)
				if err != nil || n != len(want) || enc.count() != n {
					t.Fatalf("%v: returned %d rows, encoded %d (%v), row predicate says %d", q, n, enc.count(), err, len(want))
				}
				payload, err := enc.finish(QueryInfo{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := DecodeResult(Frame{Verb: VerbPoints, Payload: payload})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(res.Points, want, func(a, b geom.Point) bool { return slices.Equal(a, b) }) {
					t.Fatalf("%v: encoded rows differ from the row predicate's\n got %v\nwant %v", q, res.Points, want)
				}
			}
			for _, c := range []geom.Cover{geom.Straddles, geom.Inside, geom.Outside} {
				if branches[c] == 0 {
					t.Errorf("no (bucket, query) pair took branch %d", c)
				}
			}
			if someDims == 0 {
				t.Error("no straddled bucket was tested on fewer than every dimension")
			}
		})
	}
}

// TestOversizedRangeRefusedEarly: a range whose matches cannot fit a frame
// is refused with the error it always drew, the connection stays in step and
// count-only still answers. That the refusal comes at the first row that
// does not fit, not after every row has been encoded, is
// TestOversizedRangeAllocation's to show (it counts bytes, so it is built
// out under -race).
func TestOversizedRangeRefusedEarly(t *testing.T) {
	const records = 72000 // × 16 B per row = 1.1 × MaxFrameBytes
	s, f := newTestServer(t, records, 4, Config{})
	dom := f.Domain()
	rangeReq, err := encodeRequest(Request{Verb: VerbRange, Query: dom})
	if err != nil {
		t.Fatal(err)
	}
	countReq, err := encodeRequest(Request{Verb: VerbRange, Query: dom, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for round := 0; round < 2; round++ { // the second pass is cache-resident
		if err := writeFrame(conn, rangeReq); err != nil {
			t.Fatal(err)
		}
		fr, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Verb != VerbError || !strings.Contains(string(fr.Payload), ErrFrameTooBig.Error()) {
			t.Fatalf("whole-domain range answered verb 0x%02x %q, want the frame-too-big error", uint8(fr.Verb), fr.Payload)
		}
		if err := writeFrame(conn, countReq); err != nil {
			t.Fatal(err)
		}
		if fr, err = ReadFrame(conn); err != nil {
			t.Fatalf("connection not usable after the refusal: %v", err)
		}
		res, err := DecodeResult(fr)
		if err != nil || res.Count != records {
			t.Fatalf("whole-domain count after the refusal = %d (%v), want %d", res.Count, err, records)
		}
	}
}
