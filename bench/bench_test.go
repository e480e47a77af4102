package main

import (
	"regexp"
	"strings"
	"testing"
)

// The metric tables in main.go, the workload table in setup.go and
// BENCHMARK.json must say the same thing: no name may drift either way.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(what string, want []decl, got []decl) {
		t.Helper()
		if len(want) != len(got) {
			t.Errorf("%s: %d declared in Go, %d in BENCHMARK.json", what, len(want), len(got))
		}
		for i := 0; i < min(len(want), len(got)); i++ {
			if want[i] != got[i] {
				t.Errorf("%s[%d]: Go declares %v, BENCHMARK.json %v", what, i, want[i], got[i])
			}
			if !name.MatchString(got[i].name) {
				t.Errorf("%s: bad metric name %q", what, got[i].name)
			}
		}
	}
	var e2e, layer []decl
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, decl{m.Name, m.Unit})
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layer)

	var listed, gated []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w.name)
		}
	}
	if got, want := strings.Join(listed, " "), strings.Join(gated, " "); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the harness gates %q", got, want)
	}
}

// exact are the per-layer metrics that are counts of the seeded inputs, not
// timings: the same seed must reproduce them to the last digit.
func exact(name string) bool {
	return strings.HasPrefix(name, "sim.") || name == "gridfile.buckets_per_query" ||
		name == "gridfile.splits_per_kwrite" || name == "store.journal_appends_per_write" || name == "store.journal_replays"
}

// TestSmoke runs every workload at smoke size, with tracing off and on, and
// checks that each run is correct, emits exactly the declared names, and is
// a function of its seed where it should be.
func TestSmoke(t *testing.T) {
	scratch := t.TempDir()
	run := func(w workload, trace int) (*runInfo, *report) {
		t.Helper()
		info, rep, err := runOne(w, smoke, 7, 0.4, trace, scratch)
		if err != nil {
			t.Fatalf("%s trace %d: %v", w.name, trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %v", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, info.Failures)
		}
		return info, rep
	}
	names := func(what string, decls []decl, got map[string]metric) {
		t.Helper()
		if len(got) != len(decls) {
			t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(decls))
		}
		for _, d := range decls {
			if m, ok := got[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: %s missing or in unit %q, want %q", what, d.name, m.Unit, d.unit)
			}
		}
	}
	for _, w := range workloads {
		info0, e2e := run(w, 0)
		names(w.name+" end-to-end", endToEnd, e2e.Metrics)
		for name, m := range e2e.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, name, m.Value)
			}
		}
		info1, layer := run(w, 1)
		names(w.name+" per-layer", perLayer, layer.Metrics)
		if info0.OpsSHA256 != info1.OpsSHA256 {
			t.Errorf("%s: same seed, different op streams: %s vs %s", w.name, info0.OpsSHA256, info1.OpsSHA256)
		}
		if w.writeFrac == 0 {
			continue
		}
		_, again := run(w, 1)
		for name, m := range layer.Metrics {
			if exact(name) && again.Metrics[name].Value != m.Value {
				t.Errorf("%s: %s is %v then %v on the same seed", w.name, name, m.Value, again.Metrics[name].Value)
			}
		}
		if m := layer.Metrics["store.journal_appends_per_write"]; m.Value != float64(w.replicas) {
			t.Errorf("%s: %v journal appends per write at r=%d", w.name, m.Value, w.replicas)
		}
	}
}
