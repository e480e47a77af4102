package parallel

import (
	"testing"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/diskmodel"
	"pgridfile/internal/fault"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// buildFaultEngine starts an engine wired to a fresh fault registry.
func buildFaultEngine(t *testing.T, workers int) (*Engine, *gridfile.File, *fault.Registry) {
	t.Helper()
	f, err := synth.DSMC4D(8, 1000, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), workers)
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(2)
	e, err := New(f, alloc, Config{
		Workers: workers, Disk: diskmodel.DefaultParams(),
		Cost: DefaultCostModel(), Faults: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, f, reg
}

// TestDroppedMessagesFailQueryEngineSurvives proves, for both message
// sites, that a dropped message fails the query with an injected error — and
// that the engine is immediately usable again once the fault clears, with
// answers matching the grid file exactly.
func TestDroppedMessagesFailQueryEngineSurvives(t *testing.T) {
	for _, tc := range []struct {
		name string
		site string
	}{
		{"send", fault.SiteParallelSend},
		{"recv", fault.SiteParallelRecv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, f, reg := buildFaultEngine(t, 4)
			q := f.Domain()
			want := f.Len()

			// Healthy first: establishes the full-scan baseline.
			res, err := e.Query(q)
			if err != nil || res.Records != want {
				t.Fatalf("healthy query: records=%d err=%v, want %d/nil", res.Records, want, err)
			}

			reg.Set(fault.Rule{Site: tc.site, Kind: fault.KindError})
			if _, err := e.Query(q); !fault.IsInjected(err) {
				t.Fatalf("query with dropped messages: err=%v, want injected", err)
			}

			// The drop must not wedge or desynchronize the engine: with the
			// fault cleared, the very next queries are exactly right.
			reg.Clear()
			for i := 0; i < 3; i++ {
				res, err := e.Query(q)
				if err != nil {
					t.Fatalf("query %d after clear: %v", i, err)
				}
				if res.Records != want || res.Blocks != f.NumBuckets() {
					t.Fatalf("query %d after clear: records=%d blocks=%d, want %d/%d",
						i, res.Records, res.Blocks, want, f.NumBuckets())
				}
			}
		})
	}
}

// TestNthDropFailsOnlyMatchingQueries proves trigger precision: with a drop
// armed on every 2nd send evaluation of a single-worker engine, queries
// alternate cleanly between success and injected failure.
func TestNthDropFailsOnlyMatchingQueries(t *testing.T) {
	e, f, reg := buildFaultEngine(t, 1)
	reg.Set(fault.Rule{Site: fault.SiteParallelSend, Kind: fault.KindError, Nth: 2})
	q := f.Domain() // one worker: exactly one send evaluation per query
	for i := 0; i < 6; i++ {
		_, err := e.Query(q)
		if i%2 == 1 {
			if !fault.IsInjected(err) {
				t.Fatalf("query %d: err=%v, want injected (every 2nd send drops)", i, err)
			}
		} else if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestInjectedMessageDelayStallsQuery proves a delay rule stalls the
// exchange in real wall-clock time without failing it.
func TestInjectedMessageDelayStallsQuery(t *testing.T) {
	e, f, reg := buildFaultEngine(t, 2)
	q := f.Domain()
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetSpec("parallel.send:delay=30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("delayed query failed: %v", err)
	}
	if res.Records != f.Len() {
		t.Fatalf("delayed query returned %d records, want %d", res.Records, f.Len())
	}
	// Two workers → two send evaluations → at least 60ms of injected stall.
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("query with two 30ms stalls took %v", el)
	}
}
