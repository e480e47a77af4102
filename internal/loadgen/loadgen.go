// Package loadgen is the load harness (DESIGN S26, S37) — the one place
// outside bench/ that paces requests at a server, in either shape.
//
// The open loop (Run) offers requests at a configured arrival rate on a
// deterministic, seeded schedule instead of waiting for each response before
// sending the next. The distinction matters for honesty. A closed-loop
// generator self-throttles — when the server stalls, the generator stops
// offering load, so the stall barely registers in the recorded latencies
// (coordinated omission). In the open loop every request has an *intended*
// send time fixed before the run starts, and its latency is measured from
// that intended time regardless of when the pacer actually got it onto the
// wire; a stall therefore penalizes every request scheduled behind it,
// exactly as it would penalize real clients.
//
// The closed loop (RunClosed) is the other shape: a fixed number of callers
// that each wait for a reply before asking again. Both take the same
// do(ctx, i) callback and fill the same Result; Synthesize generates the ops
// and Send maps one onto the server's client.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pgridfile/internal/stats"
)

// Arrivals names the arrival process of the schedule. There is one.
type Arrivals uint8

// Poisson arrivals: exponential inter-arrival gaps with mean 1/rate — the
// memoryless open-system model, and the one that actually exercises queueing
// (bursts arrive with the full burstiness of independence).
const Poisson Arrivals = 0

func (a Arrivals) String() string {
	if a == Poisson {
		return "poisson"
	}
	return fmt.Sprintf("arrivals(%d)", uint8(a))
}

// Schedule returns n Poisson arrival offsets from the start of the run, at
// the given offered rate (arrivals per second). The schedule is fully
// determined by (rate, n, seed): the same inputs yield the identical
// schedule, so a run can be reproduced bit-for-bit.
func Schedule(rate float64, n int, seed int64) []time.Duration {
	if rate <= 0 || n <= 0 {
		return nil
	}
	out := make([]time.Duration, n)
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}

// Options configures one open-loop run.
type Options struct {
	// Rate is the offered arrival rate in requests per second (required).
	Rate float64
	// N is the number of requests in the run (required).
	N int
	// Arrivals is the arrival process: Poisson, the zero value.
	Arrivals Arrivals
	// Seed determines the schedule (and nothing else); same seed, same
	// schedule.
	Seed int64
	// MaxInFlight bounds concurrently outstanding requests so a collapsed
	// server cannot make the harness spawn unbounded goroutines. The bound
	// is accounted honestly: a request that waits for a slot is still
	// measured from its intended send time. Default 4096.
	MaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4096
	}
	return o
}

// Result summarizes one run, open- or closed-loop.
type Result struct {
	// Offered is the configured arrival rate (0 on a closed loop, which
	// offers whatever the server takes); Achieved is completions per
	// second of wall clock, the throughput the server actually sustained.
	// Achieved falling visibly below Offered is the signature of
	// saturation.
	Offered  float64       `json:"offered_qps"`
	Achieved float64       `json:"achieved_qps"`
	Sent     int           `json:"sent"`
	Errors   int           `json:"errors"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// Latency is measured from each request's intended send time on the
	// open loop — pacer lag and in-flight queueing count against the server,
	// never for it — and from the moment a worker sends on the closed loop.
	Latency stats.LatencySummary `json:"latency"`
	// MaxLag is the worst open-loop pacer lateness (intended vs actual dispatch):
	// small lag means the generator itself kept up and the latencies are
	// trustworthy; lag commensurate with the latencies means the harness —
	// not the server — was the bottleneck.
	MaxLag time.Duration `json:"max_lag_ns"`
}

// Run executes one open-loop run: do(ctx, i) is invoked once per scheduled
// arrival i (concurrently, up to MaxInFlight at once), and its latency is
// recorded from the arrival's intended time. A do error counts toward
// Errors; cancelling ctx abandons the remaining schedule.
func Run(ctx context.Context, opts Options, do func(ctx context.Context, i int) error) (Result, error) {
	opts = opts.withDefaults()
	if opts.Rate <= 0 {
		return Result{}, fmt.Errorf("loadgen: offered rate %g must be positive", opts.Rate)
	}
	if opts.N <= 0 {
		return Result{}, fmt.Errorf("loadgen: request count %d must be positive", opts.N)
	}
	sched := Schedule(opts.Rate, opts.N, opts.Seed)
	var rec stats.Recorder
	slots := make(chan struct{}, opts.MaxInFlight)
	var wg sync.WaitGroup
	var errs atomic.Int64
	var maxLag time.Duration

	start := time.Now()
	sent := 0
pace:
	for i, off := range sched {
		target := start.Add(off)
		if d := time.Until(target); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break pace
			}
		} else if lag := -d; lag > maxLag {
			maxLag = lag
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			break pace
		}
		sent++
		wg.Add(1)
		go func(i int, target time.Time) {
			defer wg.Done()
			err := do(ctx, i)
			rec.Record(time.Since(target))
			if err != nil {
				errs.Add(1)
			}
			<-slots
		}(i, target)
	}
	wg.Wait()
	res := newResult(start, sent, int(errs.Load()), &rec)
	res.Offered, res.MaxLag = opts.Rate, maxLag
	return res, ctx.Err()
}

// RunClosed executes one closed-loop run: workers goroutines each call
// do(ctx, i) for the next unclaimed i below n and wait for it to return
// before claiming another, so a slow server is offered less load. A call's
// latency is its own duration. A do error counts toward Errors; cancelling
// ctx abandons the indexes not yet claimed.
func RunClosed(ctx context.Context, workers, n int, do func(ctx context.Context, i int) error) (Result, error) {
	if workers <= 0 || n <= 0 {
		return Result{}, fmt.Errorf("loadgen: closed loop wants positive workers and requests, got %d and %d", workers, n)
	}
	var rec stats.Recorder
	var wg sync.WaitGroup
	var next, errs atomic.Int64

	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				err := do(ctx, i)
				rec.Record(time.Since(t0))
				if err != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// Every index claimed below n ran; each worker that found none left
	// pushed next one past it.
	return newResult(start, min(int(next.Load()), n), int(errs.Load()), &rec), ctx.Err()
}

// newResult fills the fields both loops share once every call has returned.
func newResult(start time.Time, sent, errs int, rec *stats.Recorder) Result {
	res := Result{Sent: sent, Errors: errs, Elapsed: time.Since(start), Latency: rec.Summary()}
	if res.Elapsed > 0 {
		res.Achieved = float64(sent-errs) / res.Elapsed.Seconds()
	}
	return res
}
