package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// mustParse is Parse for the constant specs of these tests.
func mustParse(t *testing.T, spec string) []Rule {
	t.Helper()
	rules, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestParseRoundTrips(t *testing.T) {
	specs := []string{
		"store.read:err",
		"store.read:err:p=0.05",
		"store.read:delay=10ms:p=0.1",
		"store.read.disk2:err",
		"parallel.send:err:n=40",
		"store.read:torn:p=0.25",
	}
	for _, spec := range specs {
		rules, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if len(rules) != 1 {
			t.Fatalf("Parse(%q): got %d rules, want 1", spec, len(rules))
		}
		if got := rules[0].String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseMultiRule(t *testing.T) {
	rules, err := Parse("store.read:err:p=0.05; store.read:delay=10ms:p=0.05;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if rules[0].Kind != KindError || rules[0].Prob != 0.05 {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Kind != KindDelay || rules[1].Delay != 10*time.Millisecond {
		t.Errorf("rule 1 = %+v", rules[1])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"store.read",            // no directive
		":err",                  // empty site
		"store.read:p=0.5",      // trigger without a kind
		"store.read:err:p=1.5",  // probability out of range
		"store.read:err:p=x",    // probability not a float
		"store.read:err:n=0",    // nth below 1
		"store.read:delay=-1s",  // negative delay
		"store.read:delay=zzz",  // unparsable duration
		"store.read:frobnicate", // unknown directive
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	if inj, hit := r.Eval("store.read"); hit || inj.Err != nil {
		t.Errorf("nil Eval = %+v, %v", inj, hit)
	}
	r.Set(Rule{Site: "x", Kind: KindError}) // must not panic
	r.Clear()
	if r.Total() != 0 || r.Status() != nil || r.Seed() != 0 {
		t.Error("nil registry leaked state")
	}
}

func TestUnconditionalAndNthTriggers(t *testing.T) {
	r := NewRegistry(1)
	r.Set(mustParse(t, "a:err; b:err:n=3")...)
	for i := 1; i <= 6; i++ {
		if _, hit := r.Eval("a"); !hit {
			t.Fatalf("call %d on a: no hit", i)
		}
		_, hitB := r.Eval("b")
		if want := i%3 == 0; hitB != want {
			t.Fatalf("call %d on b: hit=%v want %v", i, hitB, want)
		}
	}
	if _, hit := r.Eval("unknown.site"); hit {
		t.Error("unknown site fired")
	}
}

func TestProbabilityIsDeterministicAndCalibrated(t *testing.T) {
	const n = 10000
	run := func(seed int64) int64 {
		r := NewRegistry(seed)
		r.Set(Rule{Site: "s", Kind: KindError, Prob: 0.05})
		for i := 0; i < n; i++ {
			r.Eval("s")
		}
		return r.Total()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	// 5% of 10000 is 500; allow a generous ±40% band.
	if a < 300 || a > 700 {
		t.Errorf("5%% rule fired %d/%d times", a, n)
	}
	if c := run(43); c == a {
		t.Logf("different seeds gave identical counts (%d); unlikely but not fatal", c)
	}
}

func TestInjectionComposes(t *testing.T) {
	r := NewRegistry(1)
	r.Set(mustParse(t, "s:delay=5ms; s:delay=7ms; s:torn; s:err")...)
	inj, hit := r.Eval("s")
	if !hit {
		t.Fatal("no hit")
	}
	if inj.Delay != 12*time.Millisecond {
		t.Errorf("Delay = %v, want 12ms", inj.Delay)
	}
	if !inj.Torn {
		t.Error("Torn not set")
	}
	if !errors.Is(inj.Err, ErrInjected) {
		t.Errorf("Err = %v, want injected", inj.Err)
	}
	// Composed site passes count once toward the total.
	if r.Total() != 1 {
		t.Errorf("Total = %d, want 1", r.Total())
	}
}

func TestIsInjectedDistinguishesWrapping(t *testing.T) {
	wrapped := fmt.Errorf("outer: %w", ErrInjected)
	if !errors.Is(wrapped, ErrInjected) {
		t.Error("wrapped injected error not recognised")
	}
	if errors.Is(errors.New("injected fault"), ErrInjected) {
		t.Error("textual lookalike recognised as injected")
	}
	if errors.Is(nil, ErrInjected) {
		t.Error("nil recognised as injected")
	}
}

func TestClearAndStatus(t *testing.T) {
	r := NewRegistry(1)
	r.Set(mustParse(t, "b:err; a:err:n=2")...)
	r.Eval("a")
	r.Eval("a")
	r.Eval("b")
	st := r.Status()
	if len(st) != 2 || st[0].Site != "a" || st[1].Site != "b" {
		t.Fatalf("Status = %+v", st)
	}
	if st[0].Calls != 2 || st[0].Fired != 1 || st[1].Fired != 1 {
		t.Errorf("counters: %+v", st)
	}
	total := r.Total()
	r.Clear()
	if r.Enabled() || len(r.Status()) != 0 {
		t.Error("Clear left rules armed")
	}
	if r.Total() != total {
		t.Errorf("Clear reset Total: %d -> %d", total, r.Total())
	}
	if _, hit := r.Eval("a"); hit {
		t.Error("cleared registry fired")
	}
}

func TestEvalConcurrent(t *testing.T) {
	r := NewRegistry(7)
	r.Set(mustParse(t, "s:err:p=0.5; s:delay=1ns:n=10")...)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				r.Eval("s")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	st := r.Status()
	if st[0].Calls != 8000 || st[1].Calls != 8000 {
		t.Errorf("lost calls under concurrency: %+v", st)
	}
}

func TestSleepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Sleep(ctx, 10*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Sleep took %v after cancellation", elapsed)
	}
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("uncancelled Sleep = %v", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero-duration Sleep on cancelled ctx = %v", err)
	}
}
