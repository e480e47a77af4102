package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The recorder is HDR-histogram shaped: log-linear buckets with subBits
// sub-buckets per power of two, so every recorded value is resolved to within
// 1/2^subBits ≈ 1.6% relative error across the full range (values below 64
// exactly), which tail quantiles like p999 need. Recording is a few atomic
// adds and no allocation — safe for the many in-flight goroutines of an
// open-loop run and for every worker of a server at once. It is the one
// histogram of the load harness (internal/loadgen) and of the server's
// metrics; latencies go in as nanoseconds, counts as themselves.
const (
	subBits    = 6
	subBuckets = 1 << subBits // 64
	// numBuckets covers values up to 2^62 ns (≈146 years), comfortably any
	// latency a run can produce.
	numBuckets = (63 - subBits + 1) * subBuckets
)

// Recorder is a concurrent log-linear histogram of non-negative values. The
// zero value is empty and ready to use; it must not be copied after first use.
type Recorder struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // ≥ subBits here
	shift := msb - subBits
	idx := (shift+1)*subBuckets + int(v>>shift) - subBuckets
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketMid returns the midpoint latency represented by bucket idx.
func bucketMid(idx int) time.Duration {
	if idx < subBuckets {
		return time.Duration(idx)
	}
	shift := idx/subBuckets - 1
	mantissa := int64(idx%subBuckets + subBuckets)
	lo := mantissa << shift
	width := int64(1) << shift
	return time.Duration(lo + width/2)
}

// Record adds one latency observation. Negative values clamp to zero.
func (r *Recorder) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	r.counts[bucketOf(v)].Add(1)
	r.count.Add(1)
	r.sum.Add(v)
	for {
		cur := r.max.Load()
		if v <= cur || r.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// percentile estimates the p-th percentile (0 < p ≤ 100) as the midpoint of
// the bucket holding the target rank. It is unexported because a fraction
// passed by mistake (0.99 for p99) silently reads the minimum; callers take
// the named percentiles of Summary.
func (r *Recorder) percentile(p float64) time.Duration {
	total := r.count.Load()
	if total == 0 {
		return 0
	}
	target := max(int64(math.Ceil(p/100*float64(total))), 1) // nearest rank
	var cum int64
	for i := range r.counts {
		c := r.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			return bucketMid(i)
		}
	}
	return time.Duration(r.max.Load())
}

// LatencySummary reports a recorder's distribution.
type LatencySummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary snapshots the recorder. Call after the run has drained; a
// concurrent snapshot is approximate (counts race benignly).
func (r *Recorder) Summary() LatencySummary {
	s := LatencySummary{
		Count: r.count.Load(),
		P50:   r.percentile(50),
		P90:   r.percentile(90),
		P95:   r.percentile(95),
		P99:   r.percentile(99),
		P999:  r.percentile(99.9),
		Max:   time.Duration(r.max.Load()),
	}
	if s.Count > 0 {
		s.Mean = time.Duration(r.sum.Load() / s.Count)
	}
	return s
}
