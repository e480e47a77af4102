package campaign

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// smallOpts is a reduced matrix that still spans every axis kind: a healthy
// baseline, a dead disk, physical corruption, a lost disk file; two
// allocator families; both replication factors.
func smallOpts() Options {
	return Options{
		Records:   300,
		Disks:     4,
		Queries:   20,
		Trials:    1,
		Seed:      1,
		Schemes:   []string{"minimax", "DM/D"},
		Replicas:  []int{1, 2},
		Faults:    []string{"none", "kill-disk0", "corrupt", "lose-disk0"},
		Workloads: []string{"uniform"},
	}
}

func cellsByKey(r *Report) map[string]Cell {
	m := make(map[string]Cell, len(r.Cells))
	for _, c := range r.Cells {
		m[c.key()] = c
	}
	return m
}

// TestCampaignDeterministicAndSound runs the reduced matrix twice and pins
// the two load-bearing properties: the marshaled reports are byte-identical
// (the determinism contract the baseline gate rests on), and the cells tell
// the fault story they are supposed to — failover under replication,
// degraded answers without it, scrubber repair only when a replica exists,
// and zero surfaced errors anywhere.
func TestCampaignDeterministicAndSound(t *testing.T) {
	a, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same options, different reports:\n--- run A ---\n%s\n--- run B ---\n%s", aj, bj)
	}
	if want := 4 * 2 * 1 * 2; len(a.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(a.Cells), want)
	}

	cells := cellsByKey(a)
	for key, c := range cells {
		if c.Errors != 0 || c.ClientErrors != 0 {
			t.Errorf("%s: errors=%d client_errors=%d, degraded mode should absorb every fault", key, c.Errors, c.ClientErrors)
		}
		if c.Queries != int64(a.Queries*a.Trials) {
			t.Errorf("%s: served %d queries, want %d", key, c.Queries, a.Queries*a.Trials)
		}
		if c.ScrubPages == 0 {
			t.Errorf("%s: scrub verified no pages", key)
		}
		switch {
		case strings.HasPrefix(key, "none|"):
			if c.Degraded != 0 || c.Failover != 0 || c.ScrubCorrupt != 0 {
				t.Errorf("%s: healthy cell shows degraded=%d failover=%d corrupt=%d", key, c.Degraded, c.Failover, c.ScrubCorrupt)
			}
		case (strings.HasPrefix(key, "kill-disk0|") || strings.HasPrefix(key, "lose-disk0|")) && c.Replicas == 2:
			if c.Failover == 0 {
				t.Errorf("%s: dead disk with a replica never failed over", key)
			}
			if c.Degraded != 0 {
				t.Errorf("%s: replicated cell degraded %d queries", key, c.Degraded)
			}
		case strings.HasPrefix(key, "kill-disk0|") || strings.HasPrefix(key, "lose-disk0|"):
			if c.Degraded == 0 {
				t.Errorf("%s: dead disk without a replica never degraded", key)
			}
		case strings.HasPrefix(key, "corrupt|"):
			if c.ScrubCorrupt == 0 {
				t.Errorf("%s: scrubber missed the injected corruption", key)
			}
			if c.Replicas == 2 && c.ScrubRepaired != c.ScrubCorrupt {
				t.Errorf("%s: repaired %d of %d corrupt pages", key, c.ScrubRepaired, c.ScrubCorrupt)
			}
			if c.Replicas == 1 && c.ScrubRepaired != 0 {
				t.Errorf("%s: repaired %d pages with no replica to heal from", key, c.ScrubRepaired)
			}
		}
	}
	// Corruption must also be *served* through: replicated cells reroute
	// around bad pages (failover), unreplicated ones degrade.
	for _, c := range a.Cells {
		if c.Fault != "corrupt" {
			continue
		}
		if c.Replicas == 2 && c.Failover == 0 {
			t.Errorf("%s: corrupt primary never triggered checksum failover", c.key())
		}
		if c.Replicas == 1 && c.Degraded == 0 {
			t.Errorf("%s: corrupt page never degraded an answer", c.key())
		}
	}
}

// TestCellP99IsTheTail pins the table's one wall-clock column to the tail of
// the distribution. Every fourth positioned read stalls 20 ms, so well over
// one query in a hundred takes at least that long while others pay no stall
// at all: a p99 below the stall is not a 99th percentile (the column once
// printed the minimum, from a fraction passed where a percentile was meant).
func TestCellP99IsTheTail(t *testing.T) {
	const stall = 20 * time.Millisecond
	rep, err := Run(Options{
		Records: 300, Disks: 4, Queries: 20, Trials: 2, Seed: 1,
		Schemes: []string{"minimax"}, Replicas: []int{1}, Workloads: []string{"scans"},
		Faults: []string{"store.read:delay=" + stall.String() + ":n=4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.FaultsFired < 2 || c.Errors != 0 || c.ClientErrors != 0 {
		t.Fatalf("stalls fired %d times, errors %d/%d; the cell did not run as planned", c.FaultsFired, c.Errors, c.ClientErrors)
	}
	if c.P99Micros < float64(stall.Microseconds()) {
		t.Errorf("p99 = %.0f µs with %d reads stalled %v each", c.P99Micros, c.FaultsFired, stall)
	}
}

// TestDefaultMatrixMatchesCommittedBaseline is the campaign regression gate:
// the default matrix must reproduce the committed CAMPAIGN.json byte for
// byte (which also makes it deterministic run to run), span at least 24
// cells, serve its full query budget in every cell and surface no error in
// any. After an intentional behavior change, regenerate the baseline with
//
//	go run ./cmd/gridserver campaign -out CAMPAIGN.json
//
// and commit it alongside the change.
func TestDefaultMatrixMatchesCommittedBaseline(t *testing.T) {
	const baseline = "../../CAMPAIGN.json"
	rep, err := Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) < 24 {
		t.Errorf("default matrix has %d cells, want >= 24", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Errors != 0 {
			t.Errorf("%s: %d queries surfaced an error", c.key(), c.Errors)
		}
		if c.Queries != int64(rep.Queries*rep.Trials) {
			t.Errorf("%s: served %d queries, want %d", c.key(), c.Queries, rep.Queries*rep.Trials)
		}
	}
	got, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	base, err := Load(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Compare(rep, base) {
		t.Error(v)
	}
	t.Fatalf("report drifted from %s", baseline)
}

// TestCompareGating pins the baseline gate: a report matches itself, a
// counter off by one is a violation, and shape or config mismatches are
// refused loudly.
func TestCompareGating(t *testing.T) {
	base := &Report{Seed: 1, Records: 300, Disks: 4, Queries: 20, Trials: 1,
		Cells: []Cell{
			{Fault: "none", Scheme: "minimax", Workload: "uniform", Replicas: 1, Queries: 20, ScrubPages: 16},
			{Fault: "corrupt", Scheme: "minimax", Workload: "uniform", Replicas: 2, Queries: 20, Failover: 7, ScrubPages: 32, ScrubCorrupt: 3, ScrubRepaired: 3},
		}}
	if v := Compare(base, base); len(v) != 0 {
		t.Fatalf("report does not match itself: %v", v)
	}

	drift := *base
	drift.Cells = append([]Cell(nil), base.Cells...)
	drift.Cells[1].Failover = 8
	if v := Compare(&drift, base); len(v) != 1 || !strings.Contains(v[0], "failover") {
		t.Errorf("off-by-one failover: %v", v)
	}

	missing := *base
	missing.Cells = base.Cells[:1]
	if v := Compare(&missing, base); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("dropped cell: %v", v)
	}
	if v := Compare(base, &missing); len(v) != 1 || !strings.Contains(v[0], "not in baseline") {
		t.Errorf("extra cell: %v", v)
	}

	cfg := *base
	cfg.Seed = 2
	if v := Compare(&cfg, base); len(v) != 1 || !strings.Contains(v[0], "config mismatch") {
		t.Errorf("config mismatch: %v", v)
	}
}

// TestAxisParsing pins the axis-name grammar, including raw fault specs
// passing through to internal/fault.
func TestAxisParsing(t *testing.T) {
	for _, name := range []string{"none", "corrupt", "kill-disk3", "torn-disk0", "lose-disk0", "store.read:err:p=0.5"} {
		if _, err := parseFaultAxis(name, 4); err != nil {
			t.Errorf("fault axis %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"kill-diskX", "lose-disk4", "lose-diskx", "bogus", "store.read:maybe"} {
		if _, err := parseFaultAxis(name, 4); err == nil {
			t.Errorf("fault axis %q accepted", name)
		}
	}
	for _, name := range []string{"uniform", "hotspot", "points", "scans"} {
		if _, err := parseWorkloadAxis(name); err != nil {
			t.Errorf("workload axis %q rejected: %v", name, err)
		}
	}
	if _, err := parseWorkloadAxis("zipf"); err == nil {
		t.Error("workload axis \"zipf\" accepted")
	}
	if _, err := Run(Options{Records: 10, Replicas: []int{9}, Disks: 4}); err == nil {
		t.Error("replicas > disks accepted")
	}
	// A disk the layout does not have would run a fault-free cell under a
	// fault's name.
	for _, name := range []string{"kill-disk4", "torn-disk9"} {
		if _, err := Run(Options{Records: 10, Queries: 1, Trials: 1, Schemes: []string{"minimax"},
			Replicas: []int{1}, Workloads: []string{"points"}, Faults: []string{name}}); err == nil {
			t.Errorf("fault axis %q accepted on 4 disks", name)
		}
	}
}
