package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// writeTestLayout builds a small minimax layout plus a standalone grid
// file under t.TempDir.
func writeTestLayout(t *testing.T, records, disks int) (layoutDir, gridPath string) {
	t.Helper()
	f, err := synth.Uniform2D(records, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(core.FromGridFile(f), disks)
	if err != nil {
		t.Fatal(err)
	}
	layoutDir = filepath.Join(t.TempDir(), "layout")
	if _, err := store.Write(layoutDir, f, alloc, 4096); err != nil {
		t.Fatal(err)
	}
	gridPath = filepath.Join(t.TempDir(), "test.grd")
	gf, err := os.Create(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	return layoutDir, gridPath
}

// TestBenchStoreMode serves a layout in-process and runs the closed-loop
// load against it, asserting a clean (zero-error) report.
func TestBenchStoreMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4)
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "200", "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, filepath.Base(dir)) {
		t.Errorf("report does not name the layout:\n%s", out)
	}
	if !strings.Contains(out, "p95") || !strings.Contains(out, "fetch imbalance") {
		t.Errorf("report missing latency/imbalance columns:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, filepath.Base(dir)) {
			fields := strings.Fields(line)
			// scheme r queries errors qps p50 p95 p99 imbalance ...
			if len(fields) < 4 || fields[3] != "0" {
				t.Errorf("bench reported errors: %q", line)
			}
		}
	}
}

// TestBenchChaosMode runs the closed-loop load with one disk killed through
// the -fault flag and degraded mode on: the run must finish with zero
// errors, and the report's trailing column must count the partial answers.
func TestBenchChaosMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4)
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "200", "-seed", "7",
		"-fault", "store.read.disk0:err", "-degraded", "-cache-bytes", "0",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "degraded") {
		t.Errorf("report missing degraded column:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, filepath.Base(dir)) {
			fields := strings.Fields(line)
			// scheme r queries errors ... degraded failover
			if len(fields) < 5 || fields[3] != "0" {
				t.Errorf("chaos bench reported errors: %q", line)
			}
			if fields[len(fields)-2] == "0" {
				t.Errorf("dead disk produced zero degraded answers: %q", line)
			}
		}
	}

	// A malformed spec must fail the run up front.
	if err := runBench([]string{
		"-store", dir, "-queries", "10", "-fault", "store.read:bogus",
	}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -fault spec accepted")
	}
}

// TestBenchOpenLoopMode drives the open-loop harness against an in-process
// server with pipelining on, and checks the report (table and JSON) carries
// the offered/achieved rates and intended-send-time percentiles.
func TestBenchOpenLoopMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-open-loop", "-rate", "500", "-duration", "500ms",
		"-pipeline", "8", "-clients", "2", "-seed", "7", "-json", jsonPath,
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
	if r["mode"] != "open" || r["arrivals"] != "poisson" || r["pipeline"] != float64(8) {
		t.Errorf("row metadata wrong: %v", r)
	}
	if off := r["offered_qps"].(float64); off != 500 {
		t.Errorf("offered_qps = %v, want 500", off)
	}
	// Elapsed includes draining the in-flight tail after the last arrival,
	// which is a visible fraction of a 500ms run; the strict 95% bound is
	// scripts/openloop.sh's job on a 2s run.
	if ach := r["achieved_qps"].(float64); ach < 0.8*500 {
		t.Errorf("achieved_qps = %v: tiny layout could not sustain 500 qps", ach)
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

// TestBenchSweepMode runs a two-step rate sweep and checks each step yields
// a row with the sustained/knee annotations.
func TestBenchSweepMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 400, 4)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-sweep", "200:2:2", "-duration", "400ms",
		"-pipeline", "4", "-clients", "2", "-seed", "7", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("sweep produced %d rows, want 1-2", len(rows))
	}
	if off := rows[0]["offered_qps"].(float64); off != 200 {
		t.Errorf("first step offered %v, want 200", off)
	}
	if len(rows) == 2 {
		if off := rows[1]["offered_qps"].(float64); off != 400 {
			t.Errorf("second step offered %v, want 400", off)
		}
	}

	// Malformed sweep specs fail up front.
	for _, bad := range []string{"200", "0:2:3", "200:1:3", "200:2:0", "a:b:c"} {
		if err := runBench([]string{"-store", dir, "-sweep", bad}, &bytes.Buffer{}); err == nil {
			t.Errorf("malformed -sweep %q accepted", bad)
		}
	}
}

// TestBenchGridMode declusters one grid file under two schemes and
// benchmarks both layouts, producing one comparison row per scheme.
func TestBenchGridMode(t *testing.T) {
	_, grid := writeTestLayout(t, 500, 4)
	var buf bytes.Buffer
	err := runBench([]string{
		"-grid", grid, "-algs", "minimax,DM/D", "-disks", "4",
		"-clients", "2", "-queries", "120",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "minimax") || !strings.Contains(out, "DM/D") {
		t.Errorf("comparison rows missing:\n%s", out)
	}
}

func TestBenchFlagValidation(t *testing.T) {
	if err := runBench(nil, &bytes.Buffer{}); err == nil {
		t.Error("no mode flag accepted")
	}
	dir, grid := writeTestLayout(t, 200, 2)
	if err := runBench([]string{"-store", dir, "-grid", grid}, &bytes.Buffer{}); err == nil {
		t.Error("two mode flags accepted")
	}
	if err := runBench([]string{"-grid", grid, "-algs", "bogus", "-queries", "10"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := runBench([]string{"-store", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Error("missing layout accepted")
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

func TestParseAllocatorNames(t *testing.T) {
	for _, name := range []string{"minimax", "minimax-euclid", "ssp", "mst", "DM/D", "FX/R", "HCAM/F"} {
		if _, err := parseAllocator(name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"", "bogus", "DM", "DM/X/Y"} {
		if _, err := parseAllocator(name, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
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

// TestIngestCrashReplay runs the ingest subcommand with one disk's page
// writes killed: the JSON report must show zero lost acks, a clean scrub,
// and a replay that actually happened.
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
}

func TestIngestFlagValidation(t *testing.T) {
	if err := runIngest(nil, &bytes.Buffer{}); err == nil {
		t.Error("ingest without -store accepted")
	}
	if err := runIngest([]string{"-store", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Error("ingest with missing layout accepted")
	}
}

// TestBenchWriteFrac mixes INSERTs into the closed loop against an
// in-process writable server; the JSON rows must carry the acked write and
// journal counters.
func TestBenchWriteFrac(t *testing.T) {
	dir := writeReplicatedTestLayout(t, 600, 4, 2)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "300", "-seed", "5",
		"-write-frac", "0.3", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	row := rows[0]
	if row.Errors != 0 {
		t.Errorf("write-mix bench reported %d errors", row.Errors)
	}
	if row.WritesSent == 0 || row.WritesAcked != row.WritesSent {
		t.Errorf("writes sent %d, acked %d; want all acked", row.WritesSent, row.WritesAcked)
	}
	if row.Inserts != int64(row.WritesAcked) {
		t.Errorf("server inserts %d, client acked %d", row.Inserts, row.WritesAcked)
	}
	if row.JournalAppends != 2*row.Inserts {
		t.Errorf("journal appends %d, want %d (r=2)", row.JournalAppends, 2*row.Inserts)
	}
	// Invalid fractions and open-loop combinations are rejected.
	if err := runBench([]string{"-store", dir, "-write-frac", "1.5"}, &bytes.Buffer{}); err == nil {
		t.Error("-write-frac 1.5 accepted")
	}
	if err := runBench([]string{"-store", dir, "-write-frac", "0.2", "-open-loop"}, &bytes.Buffer{}); err == nil {
		t.Error("-write-frac with -open-loop accepted")
	}
}
