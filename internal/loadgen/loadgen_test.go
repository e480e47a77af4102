package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/geom"
)

// TestScheduleDeterminism is the ISSUE's reproducibility requirement: the
// same (rate, n, seed) must yield the identical schedule, and a different
// seed a different one.
func TestScheduleDeterminism(t *testing.T) {
	a := Schedule(5000, 1000, 42)
	b := Schedule(5000, 1000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	if len(a) != 1000 {
		t.Fatalf("schedule has %d entries, want 1000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	if c := Schedule(5000, 1000, 43); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical Poisson schedules")
	}
	// The name is part of `gridserver bench`'s JSON rows.
	if got := Poisson.String(); got != "poisson" {
		t.Errorf("Poisson.String() = %q", got)
	}
}

// TestScheduleRates checks the schedule actually offers the configured
// rate: n arrivals should span about n/rate seconds.
func TestScheduleRates(t *testing.T) {
	const rate, n = 10000.0, 20000
	s := Schedule(rate, n, 7)
	span := s[n-1].Seconds()
	want := float64(n) / rate
	if math.Abs(span-want) > 0.1*want {
		t.Errorf("%d arrivals span %.3fs, want ≈%.3fs", n, span, want)
	}
}

// TestRunOpenLoop drives a fast fake server and checks the harness meters
// the offered rate and counts errors.
func TestRunOpenLoop(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), Options{Rate: 20000, N: 2000, Seed: 1},
		func(ctx context.Context, i int) error {
			calls.Add(1)
			if i%100 == 17 {
				return errors.New("boom")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2000 {
		t.Errorf("do invoked %d times, want 2000", got)
	}
	if res.Sent != 2000 || res.Errors != 20 {
		t.Errorf("sent=%d errors=%d, want 2000/20", res.Sent, res.Errors)
	}
	// A no-op server trivially keeps up: achieved ≈ offered.
	if res.Achieved < 0.5*res.Offered {
		t.Errorf("achieved %.0f qps vs offered %.0f: harness could not keep up with a no-op", res.Achieved, res.Offered)
	}
	if res.Latency.Count != 2000 {
		t.Errorf("latency count = %d, want 2000", res.Latency.Count)
	}
}

// TestRunMeasuresFromIntendedSend is the coordinated-omission guard: one
// early request stalls the (single-slot) pipeline, and every request
// scheduled behind the stall must absorb the queueing delay in its measured
// latency even though its handler was instant.
func TestRunMeasuresFromIntendedSend(t *testing.T) {
	const stall = 80 * time.Millisecond
	res, err := Run(context.Background(), Options{Rate: 1000, N: 50, Seed: 2, MaxInFlight: 1},
		func(ctx context.Context, i int) error {
			if i == 0 {
				time.Sleep(stall)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// With 50 arrivals in ~50ms all scheduled during the stall, the median
	// latency must reflect the stall, not the instant handlers.
	if res.Latency.P50 < stall/4 {
		t.Errorf("p50 = %v after a %v stall: latencies are not measured from intended send time", res.Latency.P50, stall)
	}
}

func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	go func() {
		for calls.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res, err := Run(ctx, Options{Rate: 100, N: 1000, Seed: 3},
		func(ctx context.Context, i int) error { calls.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Sent >= 1000 {
		t.Errorf("cancel did not abandon the schedule: sent %d", res.Sent)
	}
}

// TestRunClosed checks the closed loop's contract: every index below n is
// called exactly once, never more than `workers` at a time, errors are
// counted, latency is each call's own duration, and a cancelled run stops
// claiming indexes.
func TestRunClosed(t *testing.T) {
	const workers, n = 4, 200
	var seen [n]atomic.Int32
	var inFlight, peak atomic.Int32
	res, err := RunClosed(context.Background(), workers, n, func(ctx context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		seen[i].Add(1)
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		if i%10 == 0 {
			return errors.New("injected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d called %d times, want once", i, c)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d calls in flight at once, want at most %d", p, workers)
	}
	if res.Sent != n || res.Errors != n/10 || res.Latency.Count != n {
		t.Errorf("sent %d, errors %d, timed %d; want %d, %d, %d", res.Sent, res.Errors, res.Latency.Count, n, n/10, n)
	}
	if res.Latency.P50 < 200*time.Microsecond || res.Offered != 0 || res.Achieved <= 0 {
		t.Errorf("p50 %v (each call sleeps 200µs), offered %g, achieved %g", res.Latency.P50, res.Offered, res.Achieved)
	}

	// Every call after the cancelling one waits for the cancel, so the other
	// worker cannot claim the remaining indexes before it lands: at most one
	// more index per worker is claimed once index 5 has been.
	ctx, cancel := context.WithCancel(context.Background())
	res, err = RunClosed(ctx, 2, 1000, func(ctx context.Context, i int) error {
		if i == 5 {
			cancel()
		}
		if i > 5 {
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v", err)
	}
	if res.Sent >= 1000 || int64(res.Sent) != res.Latency.Count {
		t.Errorf("cancelled run reports %d sent, %d timed, of 1000", res.Sent, res.Latency.Count)
	}
	if _, err := RunClosed(context.Background(), 0, 10, nil); err == nil {
		t.Error("zero workers accepted")
	}
}

// TestSynthesizeDeterministicMix: the op stream is seed-deterministic and
// respects the mix weights and the hot-spot skew.
func TestSynthesizeDeterministicMix(t *testing.T) {
	dom := geom.Rect{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}
	opts := SynthOptions{Skew: Skew{Hot: 0.5}, RangeRatio: 0.01}
	a := Synthesize(dom, opts, 4000, 9)
	b := Synthesize(dom, opts, 4000, 9)
	// DeepEqual can't compare the NaN markers in partial-match keys, so
	// compare through a NaN-preserving rendering.
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Fatal("same seed produced different op streams")
	}
	counts := map[OpKind]int{}
	hotPoints, points := 0, 0
	hot := hotRegion(dom)
	for _, op := range a {
		counts[op.Kind]++
		switch op.Kind {
		case OpPoint:
			points++
			if hot.ContainsPoint(op.Key) {
				hotPoints++
			}
			if len(op.Key) != 2 {
				t.Fatalf("point key has %d dims, want 2", len(op.Key))
			}
		case OpRange, OpRangeCount:
			if op.Rect.Dim() != 2 {
				t.Fatalf("range rect has %d dims", op.Rect.Dim())
			}
			for k := range op.Rect {
				if op.Rect[k].Lo < dom[k].Lo || op.Rect[k].Hi > dom[k].Hi {
					t.Fatalf("range %v escapes domain", op.Rect)
				}
			}
		case OpPartialMatch:
			nan := 0
			for _, v := range op.Key {
				if math.IsNaN(v) {
					nan++
				}
			}
			if nan != 1 {
				t.Fatalf("partial-match has %d unspecified attrs, want 1", nan)
			}
		case OpKNN:
			if op.K != 8 {
				t.Fatalf("knn k = %d, want default 8", op.K)
			}
		}
	}
	// Every kind of the default mix appears, in roughly its weighted share.
	want := map[OpKind]float64{OpPoint: 0.2, OpRange: 0.3, OpRangeCount: 0.3, OpPartialMatch: 0.1, OpKNN: 0.1}
	for kind, frac := range want {
		got := float64(counts[kind]) / 4000
		if math.Abs(got-frac) > 0.05 {
			t.Errorf("kind %v: %.3f of ops, want ≈%.2f", kind, got, frac)
		}
	}
	// The hot spot covers 1% of the domain area; with Hot=0.5 about half the
	// point centres must land in it — orders of magnitude above uniform.
	if frac := float64(hotPoints) / float64(points); frac < 0.3 {
		t.Errorf("only %.2f of points hit the hot region, want ≈0.5", frac)
	}
	// Uniform (zero Skew) stays uniform: ≈1% of points in that region.
	uni := Synthesize(dom, SynthOptions{}, 4000, 9)
	hotUni := 0
	for _, op := range uni {
		if op.Kind == OpPoint && hot.ContainsPoint(op.Key) {
			hotUni++
		}
	}
	if frac := float64(hotUni) / float64(counts[OpPoint]); frac > 0.1 {
		t.Errorf("uniform synthesis put %.2f of points in the hot region", frac)
	}
}
