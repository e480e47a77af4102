package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pgridfile/internal/cache"
	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// writeTestLayout builds a small minimax layout under t.TempDir.
func writeTestLayout(t *testing.T, records, disks int) string {
	t.Helper()
	f, err := synth.Uniform2D(records, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), disks)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "layout")
	if _, err := store.Write(dir, f, alloc, 4096); err != nil {
		t.Fatal(err)
	}
	return dir
}

// serveTestLayout serves a layout on an ephemeral port until the test ends:
// what `gridserver serve` does, with cfg in place of its flags.
func serveTestLayout(t *testing.T, dir string, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// readBenchRows decodes the rows a `bench -json` run wrote.
func readBenchRows(t *testing.T, path string) []benchRow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	return rows
}

// TestBenchStoreMode runs the closed-loop load against a served layout,
// asserting a clean (zero-error) report and the two observability surfaces
// of DESIGN S23: the JSON row breaks the run down by all seven stages, and a
// server tracing every query with a zero slow-query threshold logs exactly
// one well-formed line per query.
func TestBenchStoreMode(t *testing.T) {
	const queries = 200
	var log bytes.Buffer
	s := serveTestLayout(t, writeTestLayout(t, 600, 4), server.Config{
		TraceSample: 1, TraceSlowLog: true, TraceLog: &log,
	})
	addr := s.Addr().String()
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-addr", addr, "-clients", "4", "-queries", strconv.Itoa(queries), "-seed", "7",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, addr) {
		t.Errorf("report does not name the server:\n%s", out)
	}
	if !strings.Contains(out, "p95") || !strings.Contains(out, "fetch imbalance") {
		t.Errorf("report missing latency/imbalance columns:\n%s", out)
	}
	rows := readBenchRows(t, jsonPath)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if rows[0].Queries != queries || rows[0].Errors != 0 {
		t.Errorf("bench ran %d queries with %d errors, want %d/0", rows[0].Queries, rows[0].Errors, queries)
	}
	for _, stage := range []string{"admission", "translate", "cache", "fetch_wait", "pread", "decode", "encode"} {
		if _, ok := rows[0].Stages[stage]; !ok {
			t.Errorf("stage %q missing from stage_p50_us: %v", stage, rows[0].Stages)
		}
	}

	s.Close() // drains the connections, so every trace line is written
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != queries {
		t.Fatalf("slow-query log has %d lines, want one per query (%d)", len(lines), queries)
	}
	wellFormed := regexp.MustCompile(`^gridserver trace verb=.* elapsed=.* pread=.* buckets=`)
	for _, ln := range lines {
		if !wellFormed.MatchString(ln) {
			t.Fatalf("malformed slow-query line: %q", ln)
		}
	}
}

// TestBenchChaosMode runs the closed-loop load with failpoints armed through
// the -fault flag against a server with degraded mode on and the cache off.
// Every run must finish with zero errors. Without a replica the faults
// surface as flagged partial answers (degraded > 0, proving they fired). On
// an r=2 layout the reads fail over (failover > 0): a dead disk's reads
// all find their other copy (degraded = 0), and under the random profile,
// whose failover target is as faulty as the disk that just failed, the same
// queries degrade less often than on an r=1 layout of the same records.
func TestBenchChaosMode(t *testing.T) {
	// The standard chaos profile: random read errors, stalls and torn reads.
	const profile = "store.read:err:p=0.2;store.read:delay=2ms:p=0.05;store.read:torn:p=0.05"
	run := func(t *testing.T, layout, spec string, args []string) benchRow {
		t.Helper()
		s := serveTestLayout(t, layout, server.Config{
			CacheBytes: -1, Faults: fault.NewRegistry(1), Degraded: true,
		})
		jsonPath := filepath.Join(t.TempDir(), "rows.json")
		var buf bytes.Buffer
		err := runBench(append([]string{
			"-addr", s.Addr().String(), "-clients", "8", "-seed", "1",
			"-fault", spec, "-json", jsonPath,
		}, args...), &buf)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "degraded") {
			t.Errorf("report missing degraded column:\n%s", buf.String())
		}
		rows := readBenchRows(t, jsonPath)
		if len(rows) != 1 {
			t.Fatalf("got %d rows, want 1", len(rows))
		}
		if rows[0].Errors != 0 {
			t.Errorf("%d queries errored out under faults", rows[0].Errors)
		}
		return rows[0]
	}
	dir := writeTestLayout(t, 600, 4)
	for _, tc := range []struct {
		name, layout, fault string
		args                []string
		replicated          bool
		twin                string // the r=1 layout of the same records, to degrade more often
	}{
		{"r=1 dead disk", dir, "store.read.disk0:err", []string{"-queries", "200"}, false, ""},
		{"r=1 chaos profile", dir, profile, []string{"-queries", "1000"}, false, ""},
		{"r=2 dead disk", writeReplicatedTestLayout(t, 600, 4, 2), "store.read.disk0:err",
			[]string{"-queries", "200"}, true, ""},
		{"r=2 chaos profile", writeReplicatedTestLayout(t, 4000, 4, 2), profile,
			[]string{"-queries", "1000", "-r", "0.2"}, true, writeTestLayout(t, 4000, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := run(t, tc.layout, tc.fault, tc.args)
			switch {
			case !tc.replicated && row.Degraded == 0:
				t.Error("no degraded answers; did the faults fire?")
			case tc.replicated && row.ReplicaFailover == 0:
				t.Error("zero failovers; did the faults fire?")
			case tc.replicated && tc.twin == "" && row.Degraded != 0:
				t.Errorf("%d degraded answers; failover should absorb a dead disk", row.Degraded)
			}
			if tc.twin != "" {
				twin := run(t, tc.twin, tc.fault, tc.args)
				t.Logf("degraded: r=2 %d (%d failovers), r=1 %d", row.Degraded, row.ReplicaFailover, twin.Degraded)
				if row.Degraded >= twin.Degraded {
					t.Error("r=2 degraded no fewer answers than r=1: the second copy absorbed nothing")
				}
			}
		})
	}

	// A malformed spec must fail the run up front.
	s := serveTestLayout(t, dir, server.Config{})
	if err := runBench([]string{
		"-addr", s.Addr().String(), "-queries", "10", "-fault", "store.read:bogus",
	}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -fault spec accepted")
	}
}

// TestBenchOpenLoopMode is the open-loop load gate: requests are released
// on a seeded Poisson schedule at a fixed offered rate however fast responses
// come back, with latency measured from intended send times, so a slow
// server shows up as achieved qps below offered (DESIGN S26). The server
// must sustain 2000 qps for 2 s — zero errors, achieved at least 95 % of
// offered — with the client pipelining so the harness is not the
// bottleneck; the report (table and JSON) must carry the offered/achieved
// rates and intended-send-time percentiles.
func TestBenchOpenLoopMode(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s open-loop run")
	}
	s := serveTestLayout(t, writeTestLayout(t, 600, 4), server.Config{})
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-addr", s.Addr().String(), "-open-loop", "-rate", "2000", "-duration", "2s",
		"-pipeline", "16", "-clients", "4", "-seed", "1", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"offered qps", "achieved qps", "p999 ms", "max lag ms", "sustained"} {
		if !strings.Contains(out, col) {
			t.Errorf("open-loop report missing %q column:\n%s", col, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r["mode"] != "open" || r["arrivals"] != "poisson" || r["pipeline"] != float64(16) {
		t.Errorf("row metadata wrong: %v", r)
	}
	if off := r["offered_qps"].(float64); off != 2000 {
		t.Errorf("offered_qps = %v, want 2000", off)
	}
	// Elapsed includes draining the in-flight tail after the last arrival;
	// on a 2 s run that is well inside the 5 % allowance.
	if ach := r["achieved_qps"].(float64); ach < 0.95*2000 {
		t.Errorf("achieved_qps = %v: the server did not sustain 95%% of 2000 qps offered", ach)
	}
	if errs := r["errors"].(float64); errs != 0 {
		t.Errorf("open-loop run had %v errors", errs)
	}
	for _, k := range []string{"p50_ms", "p99_ms", "p999_ms"} {
		if v, ok := r[k].(float64); !ok || v <= 0 {
			t.Errorf("%s = %v, want positive latency", k, r[k])
		}
	}
	// The store-read deltas ride along: wanted pages, the spans that fetched
	// them (never more than the pages) and the gap pages read through.
	pages, _ := r["pages_read"].(float64)
	spans, _ := r["spans_read"].(float64)
	if _, ok := r["gap_pages_read"].(float64); !ok || pages <= 0 || spans <= 0 || spans > pages {
		t.Errorf("pages_read = %v, spans_read = %v, gap_pages_read = %v: want 0 < spans <= pages and a gap count",
			r["pages_read"], r["spans_read"], r["gap_pages_read"])
	}
}

// TestBenchRowIsTheRunsDeltas: a bench row reports what the server did over
// the run, though a server's counters count its whole life. Before the run
// an earlier one has fetched 900 buckets from disk 0 alone and the cache has
// hit 50 of 100 lookups; the run itself fetches 100 from every disk and hits
// every lookup, so its fetch balance is perfect and its hit rate 1.
func TestBenchRowIsTheRunsDeltas(t *testing.T) {
	before := server.Snapshot{
		DiskFetches: []int64{900, 0, 0, 0},
		PagesRead:   1000,
		Cache:       &cache.Stats{Hits: 50, Misses: 50},
	}
	after := server.Snapshot{
		DiskFetches: []int64{1000, 100, 100, 100},
		PagesRead:   1400,
		Cache:       &cache.Stats{Hits: 450, Misses: 50},
	}
	var row benchRow
	attachServerStats(&row, before, after)
	if row.Imbalance != 1 || row.HitRate != 1 || row.PagesRead != 400 {
		t.Errorf("fetch imbalance %v, hit rate %v, pages read %d; want 1, 1 and 400 — the run's, not the server's lifetime",
			row.Imbalance, row.HitRate, row.PagesRead)
	}
}

func TestBenchFlagValidation(t *testing.T) {
	if err := runBench(nil, &bytes.Buffer{}); err == nil {
		t.Error("bench without -addr accepted")
	}
	// Refused before dialing; against a live server -queries -1 used to
	// panic in loadgen.Synthesize and -hot 3 to run as if it meant something.
	addr := serveTestLayout(t, writeTestLayout(t, 200, 2), server.Config{}).Addr().String()
	for _, bad := range [][]string{
		{"-queries", "-1"}, {"-queries", "0"}, {"-clients", "0"}, {"-hot", "3"}, {"-hot", "-0.5"},
	} {
		if err := runBench(append([]string{"-addr", addr, "-queries", "10"}, bad...), &bytes.Buffer{}); err == nil {
			t.Errorf("bench %v accepted", bad)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := runServe([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve without -store accepted")
	}
	if err := runServe([]string{"-store", filepath.Join(t.TempDir(), "nope"), "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve with missing layout accepted")
	}
}

// writeReplicatedTestLayout builds a small r-way replicated minimax layout
// (checksummed pages, so it is writable).
func writeReplicatedTestLayout(t *testing.T, records, disks, r int) string {
	t.Helper()
	f, err := synth.Uniform2D(records, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "layout")
	if _, err := store.WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestIngestCrashReplay is the online-write durability gate: ingest at r=2
// with one disk's page writes killed, crash without a checkpoint, replay the
// journals. The JSON report must show zero lost acks, a clean scrub (the dead
// disk's copies healed from the redo log), a replay that actually happened
// and an ingest that actually split buckets.
func TestIngestCrashReplay(t *testing.T) {
	dir := writeReplicatedTestLayout(t, 600, 4, 2)
	var buf bytes.Buffer
	err := runIngest([]string{
		"-store", dir, "-n", "500", "-seed", "3",
		"-fault", "store.write.disk0:err",
	}, &buf)
	if err != nil {
		t.Fatalf("ingest: %v\n%s", err, buf.String())
	}
	var rep ingestReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, buf.String())
	}
	if !rep.OK || rep.LostAcks != 0 || rep.ScrubCorrupt != 0 {
		t.Fatalf("ingest report not clean: %+v", rep)
	}
	if rep.Acked == 0 || rep.Replayed == 0 {
		t.Fatalf("ingest did not exercise the journal: %+v", rep)
	}
	if rep.Splits == 0 {
		t.Fatalf("zero bucket splits; the ingest never stressed the split path: %+v", rep)
	}
}

func TestIngestFlagValidation(t *testing.T) {
	if err := runIngest(nil, &bytes.Buffer{}); err == nil {
		t.Error("ingest without -store accepted")
	}
	if err := runIngest([]string{"-store", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Error("ingest with missing layout accepted")
	}
	dir := writeTestLayout(t, 200, 2)
	for _, n := range []string{"-1", "0"} {
		if err := runIngest([]string{"-store", dir, "-n", n}, &bytes.Buffer{}); err == nil {
			t.Errorf("ingest -n %s accepted", n)
		}
	}
}
