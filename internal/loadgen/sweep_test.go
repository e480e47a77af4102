package loadgen

import (
	"context"
	"errors"
	"testing"
	"time"

	"pgridfile/internal/stats"
)

// Knee edge cases for Sweep. The interesting boundaries are the ones the
// happy-path tests never hit: a server that is down from the first step, a
// sweep that never finds the knee because every step holds, the SLO
// comparison exactly at the boundary, and a one-step sweep.

// TestSweepKneeFirstStepFails: a do that always errors yields zero achieved
// throughput, so even the starting rate is unsustained — knee must be -1 and
// the sweep must stop after that single step.
func TestSweepKneeFirstStepFails(t *testing.T) {
	do := func(ctx context.Context, i int) error { return errors.New("down") }
	sopts := SweepOptions{Start: 1000, MaxSteps: 4, StepDuration: 20 * time.Millisecond}
	results, knee, err := Sweep(context.Background(), sopts, Options{Seed: 9}, do)
	if err != nil {
		t.Fatal(err)
	}
	if knee != -1 {
		t.Errorf("knee = %d, want -1 (no rate sustained)", knee)
	}
	if len(results) != 1 {
		t.Errorf("sweep ran %d steps, want 1 (stop at first failure)", len(results))
	}
	if r := results[0]; r.Errors == 0 || r.Achieved != 0 {
		t.Errorf("step 0: errors %d achieved %.0f, want all-error zero throughput", r.Errors, r.Achieved)
	}
}

// TestSweepAllStepsSustained: when every step holds, the sweep must run to
// MaxSteps and report the last step as the knee rather than -1 or an index
// past the end.
func TestSweepAllStepsSustained(t *testing.T) {
	do := func(ctx context.Context, i int) error { return nil }
	// MinAchieved is relaxed: pacer timer overshoot on tiny steps is noise
	// here, the subject is the knee index when nothing collapses.
	sopts := SweepOptions{Start: 1000, Factor: 2, MaxSteps: 3, StepDuration: 50 * time.Millisecond, MinAchieved: 0.5}
	results, knee, err := Sweep(context.Background(), sopts, Options{Seed: 9}, do)
	if err != nil {
		t.Fatal(err)
	}
	if knee != sopts.MaxSteps-1 {
		t.Errorf("knee = %d, want %d (every step sustained)", knee, sopts.MaxSteps-1)
	}
	if len(results) != sopts.MaxSteps {
		t.Fatalf("sweep ran %d steps, want %d", len(results), sopts.MaxSteps)
	}
	// The rate escalation must be geometric in Factor from Start.
	for i, want := 0, sopts.Start; i < len(results); i, want = i+1, want*sopts.Factor {
		if results[i].Offered != want {
			t.Errorf("step %d offered %.0f, want %.0f", i, results[i].Offered, want)
		}
	}
}

// TestSustainedSLOBoundary: the SLO criterion is strict — a p99 exactly at
// the SLO still counts as sustained; one nanosecond over does not.
func TestSustainedSLOBoundary(t *testing.T) {
	o := SweepOptions{SLO: 10 * time.Millisecond}.withDefaults()
	at := Result{Offered: 1000, Achieved: 1000, Latency: stats.LatencySummary{P99: 10 * time.Millisecond}}
	if !o.Sustained(at) {
		t.Error("p99 exactly at the SLO counted as a violation")
	}
	over := at
	over.Latency.P99 = 10*time.Millisecond + time.Nanosecond
	if o.Sustained(over) {
		t.Error("p99 over the SLO counted as sustained")
	}
	// And with SLO unset, latency must not gate at all.
	free := SweepOptions{}.withDefaults()
	slow := at
	slow.Latency.P99 = time.Hour
	if !free.Sustained(slow) {
		t.Error("latency gated a sweep with no SLO configured")
	}
}

// TestSweepSingleStep: MaxSteps=1 is the degenerate sweep — knee is 0 when
// that lone step holds and -1 when it does not, never anything else.
func TestSweepSingleStep(t *testing.T) {
	sopts := SweepOptions{Start: 1000, MaxSteps: 1, StepDuration: 50 * time.Millisecond, MinAchieved: 0.5}

	ok := func(ctx context.Context, i int) error { return nil }
	results, knee, err := Sweep(context.Background(), sopts, Options{Seed: 9}, ok)
	if err != nil {
		t.Fatal(err)
	}
	if knee != 0 || len(results) != 1 {
		t.Errorf("sustained single step: knee %d with %d results, want 0 with 1", knee, len(results))
	}

	bad := func(ctx context.Context, i int) error { return errors.New("down") }
	results, knee, err = Sweep(context.Background(), sopts, Options{Seed: 9}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if knee != -1 || len(results) != 1 {
		t.Errorf("failed single step: knee %d with %d results, want -1 with 1", knee, len(results))
	}
}

// TestSweepRejectsBadStart: a non-positive starting rate is a caller bug and
// must be an error, not an empty sweep.
func TestSweepRejectsBadStart(t *testing.T) {
	for _, start := range []float64{0, -100} {
		_, _, err := Sweep(context.Background(), SweepOptions{Start: start}, Options{}, func(ctx context.Context, i int) error { return nil })
		if err == nil {
			t.Errorf("Start=%g accepted, want error", start)
		}
	}
}
