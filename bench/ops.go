package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/server"
	"pgridfile/internal/synth"
)

// kindWrite labels an INSERT among the loadgen op kinds in a sample.
const kindWrite = uint8(loadgen.OpKNN) + 1

// stream is the seeded input of one run: the read ops, which positions of
// the cycle are writes instead, the keys those writes insert, and what the
// in-memory grid file answers to each read.
type stream struct {
	ops   []loadgen.Op
	write []bool       // nil unless the workload mixes writes
	wkeys []geom.Point // fresh keys, consumed in order, never reused
	sha   string

	rows []int32  // expected row count per op, against the data set as laid out
	sets []uint64 // expected result-set hash for the first verifyOps ops
}

func newStream(dom geom.Rect, w workload, sz sizing, seed int64) *stream {
	s := &stream{ops: loadgen.Synthesize(dom, loadgen.SynthOptions{RangeRatio: 0.01}, sz.streamOps, seed)}
	if w.writeFrac > 0 {
		rng := rand.New(rand.NewSource(seed + 1))
		s.write = make([]bool, len(s.ops))
		for i := range s.write {
			s.write[i] = rng.Float64() < w.writeFrac
		}
		// Inserted keys follow the data set's own distribution, so splits
		// and invalidations land where the reads are.
		fresh := synth.Hotspot2D(sz.freshKeys, seed+2).Records
		s.wkeys = make([]geom.Point, len(fresh))
		for i, r := range fresh {
			s.wkeys[i] = r.Key
		}
	}
	s.sha = s.digest()
	return s
}

// digest fingerprints everything the server will be sent.
func (s *stream) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, op := range s.ops {
		h.Write([]byte{uint8(op.Kind), uint8(op.K)})
		for _, v := range op.Key {
			put(v)
		}
		for _, iv := range op.Rect {
			put(iv.Lo)
			put(iv.Hi)
		}
		if s.write != nil && s.write[i] {
			h.Write([]byte{kindWrite})
		}
	}
	for _, k := range s.wkeys {
		for _, v := range k {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expect fills in the oracle's answers from the in-memory grid file: a row
// count for every op, and a result-set hash for the first verifyOps.
func (s *stream) expect(f *gridfile.File, verifyOps int) {
	s.rows = make([]int32, len(s.ops))
	s.sets = make([]uint64, min(verifyOps, len(s.ops)))
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(s.ops); i += clients {
				rows, set := oracle(f, &s.ops[i], i < len(s.sets))
				s.rows[i] = int32(rows)
				if i < len(s.sets) {
					s.sets[i] = set
				}
			}
		}(g)
	}
	wg.Wait()
}

// matches is the in-memory grid file's answer to op as record keys; a
// range-count op, answered by a bare count, has none.
func matches(f *gridfile.File, op *loadgen.Op) []geom.Point {
	var recs []gridfile.Record
	switch op.Kind {
	case loadgen.OpPoint:
		recs = f.Lookup(op.Key)
	case loadgen.OpRange:
		recs = f.RangeSearch(op.Rect)
	case loadgen.OpPartialMatch:
		recs = f.PartialMatch(op.Key)
	case loadgen.OpKNN:
		for _, n := range f.NearestNeighbors(op.Key, op.K) {
			recs = append(recs, n.Record)
		}
	}
	keys := make([]geom.Point, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// oracle answers op from the in-memory grid file: the row count and, when
// hashed, the result-set hash issue computes for the served answer.
func oracle(f *gridfile.File, op *loadgen.Op, hashed bool) (rows int, set uint64) {
	if op.Kind == loadgen.OpRangeCount || (op.Kind == loadgen.OpRange && !hashed) {
		return f.RangeCount(op.Rect), 0 // counting copies no records
	}
	keys := matches(f, op)
	return len(keys), setHash(op, keys)
}

// setHash is the order-independent hash of a result set: the wrapping sum of
// its rows' hashes. A k-NN's rows are hashed by their distance to the query
// key, so two equidistant candidates may be swapped without a mismatch.
func setHash(op *loadgen.Op, rows []geom.Point) (set uint64) {
	for _, row := range rows {
		if op.Kind == loadgen.OpKNN {
			var d2 float64
			for i := range row {
				d2 += (row[i] - op.Key[i]) * (row[i] - op.Key[i])
			}
			set += mix64(math.Float64bits(d2))
			continue
		}
		var h uint64
		for _, v := range row {
			h = mix64(h ^ math.Float64bits(v))
		}
		set += h
	}
	return set
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// answer is what one served op returned, reduced to what the checks need.
type answer struct {
	rows    int
	set     uint64        // zero unless the caller asked for the set hash
	elapsed time.Duration // server-side service time, from the reply trailer
}

// issue sends one read op through the client API.
func issue(ctx context.Context, c *server.Client, op *loadgen.Op, hashed bool) (answer, error) {
	var pts []geom.Point
	var info server.QueryInfo
	var err error
	switch op.Kind {
	case loadgen.OpPoint:
		pts, info, err = c.PointCtx(ctx, op.Key)
	case loadgen.OpRange:
		pts, info, err = c.RangeCtx(ctx, op.Rect)
	case loadgen.OpRangeCount:
		var n int
		n, info, err = c.RangeCountCtx(ctx, op.Rect)
		return answer{rows: n, elapsed: info.Elapsed}, err
	case loadgen.OpPartialMatch:
		pts, info, err = c.PartialMatchCtx(ctx, op.Key)
	case loadgen.OpKNN:
		pts, info, err = c.KNNCtx(ctx, op.Key, op.K)
	}
	a := answer{rows: len(pts), elapsed: info.Elapsed}
	if hashed {
		a.set = setHash(op, pts)
	}
	return a, err
}
