package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestRecorderQuantiles feeds a known distribution and checks the log-linear
// buckets resolve quantiles within their ~1.6% design error.
func TestRecorderQuantiles(t *testing.T) {
	r := new(Recorder)
	// 1..10000 µs uniformly: p50 ≈ 5000µs, p99 ≈ 9900µs, p999 ≈ 9990µs.
	for i := 1; i <= 10000; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	s := r.Summary()
	if s.Count != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count)
	}
	checks := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"p50", s.P50, 5000 * time.Microsecond},
		{"p95", s.P95, 9500 * time.Microsecond},
		{"p99", s.P99, 9900 * time.Microsecond},
		{"p999", s.P999, 9990 * time.Microsecond},
		{"mean", s.Mean, 5000 * time.Microsecond},
	}
	for _, c := range checks {
		if relErr := math.Abs(float64(c.got-c.want)) / float64(c.want); relErr > 0.02 {
			t.Errorf("%s = %v, want %v ±2%% (err %.2f%%)", c.name, c.got, c.want, 100*relErr)
		}
	}
	if s.Max != 10000*time.Microsecond {
		t.Errorf("max = %v, want 10ms", s.Max)
	}
}

// TestRecorderBucketRoundTrip: for any value, the bucket midpoint must be
// within 1/64 relative error (values ≥ 64) or exact (values < 64).
func TestRecorderBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := int64(rng.Uint64() >> uint(1+rng.Intn(40)))
		idx := bucketOf(v)
		mid := int64(bucketMid(idx))
		if v < subBuckets {
			if mid != v {
				t.Fatalf("value %d: midpoint %d, want exact", v, mid)
			}
			continue
		}
		if relErr := math.Abs(float64(mid-v)) / float64(v); relErr > 1.0/subBuckets {
			t.Fatalf("value %d → bucket %d midpoint %d: rel err %.4f > 1/%d", v, idx, mid, relErr, subBuckets)
		}
	}
	if r := new(Recorder); r.percentile(50) != 0 || r.Summary().Count != 0 {
		t.Error("empty recorder must report zeros")
	}
	r := new(Recorder)
	r.Record(-time.Second) // clamps, never panics
	if got := r.Summary().Max; got != 0 {
		t.Errorf("negative observation recorded max %v, want 0", got)
	}
}

// TestMean: the summary's mean is the exact integer mean of what was
// recorded, not a bucket estimate.
func TestMean(t *testing.T) {
	var r Recorder
	if got := r.Summary().Mean; got != 0 {
		t.Errorf("mean of nothing = %v", got)
	}
	for _, v := range []time.Duration{1000, 2000, 3000, 4001} {
		r.Record(v)
	}
	if got := r.Summary().Mean; got != 2500 {
		t.Errorf("mean = %d, want 2500", got)
	}
}

// TestPercentile pins the rank rule on counts small enough to check by hand:
// nearest rank, so the median of three is the second and p99 of two is the
// larger — and p is a percentile, so the 0.99 a caller might pass for p99
// reads the smallest value, which is why only Summary's named percentiles
// are exported.
func TestPercentile(t *testing.T) {
	var r Recorder
	for _, v := range []time.Duration{10, 20, 30} {
		r.Record(v)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 20}, {34, 20}, {33, 10}, {99, 30}, {100, 30}, {0.99, 10}} {
		if got := r.percentile(tc.p); got != tc.want {
			t.Errorf("p%g of {10, 20, 30} = %d, want %d", tc.p, got, tc.want)
		}
	}
	var two Recorder
	two.Record(5)
	two.Record(50)
	if s := two.Summary(); s.P50 != 5 || s.P99 != 50 || s.Max != 50 {
		t.Errorf("summary of {5, 50} = %+v, want p50 5, p99 50", s)
	}
}
