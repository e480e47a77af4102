package server

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/stats"
	"pgridfile/internal/store"
)

// TestHistObserveBinning checks what the server's histograms make of an
// observation: each is a stats.Recorder (whose binning stats tests), fed in
// its own unit and reported in the advertised one — service time in µs with
// sub-µs resolution, buckets per query as the count itself (exact below 64),
// and a negative duration (a clock stepping back) as zero rather than a
// wrapped index.
func TestHistObserveBinning(t *testing.T) {
	m := newMetrics(1)
	m.latency.Record(1500 * time.Nanosecond)
	m.fetches.Record(time.Duration(7))
	s := m.snapshot(0)
	if got := s.LatencyMicros; got.Count != 1 || math.Abs(got.P50-1.5) > 1.5/64 || got.Max != 1.5 {
		t.Errorf("1500 ns service time reads %+v, want p50 ≈ 1.5 µs, max 1.5 µs", got)
	}
	if got := s.FetchesPerQry; got.P50 != 7 || got.P99 != 7 || got.Max != 7 {
		t.Errorf("7 buckets fetched reads %+v, want exactly 7", got)
	}
	m.latency.Record(-time.Second)
	if got := m.snapshot(0).LatencyMicros; got.Count != 2 || got.P50 != 0 || got.Max != 1.5 {
		t.Errorf("after a negative observation: %+v, want it counted as 0", got)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	var r stats.Recorder
	if s := summarize(&r, time.Microsecond); s != (QuantileSummary{}) {
		t.Errorf("empty histogram summarizes to %+v, want zeros", s)
	}
}

// TestSnapshotStageSummaries proves the per-stage histograms only appear in
// a snapshot once something was traced, and then cover every stage name.
func TestSnapshotStageSummaries(t *testing.T) {
	m := newMetrics(2)
	if s := m.snapshot(0); s.Stages != nil || s.Traced != 0 {
		t.Errorf("untraced snapshot exposes stages: %+v", s)
	}
	m.traced.Add(1)
	m.stageLat[stageTranslate].Record(12)
	m.stageLat[stagePread].Record(300)
	s := m.snapshot(0)
	if s.Traced != 1 {
		t.Errorf("traced = %d, want 1", s.Traced)
	}
	if len(s.Stages) != numStages {
		t.Fatalf("snapshot has %d stages, want %d: %v", len(s.Stages), numStages, s.Stages)
	}
	for _, name := range stageNames {
		if _, ok := s.Stages[name]; !ok {
			t.Errorf("stage %q missing from snapshot", name)
		}
	}
	if got := s.Stages["translate"].Count; got != 1 {
		t.Errorf("translate count = %d, want 1", got)
	}
	// Stage times are reported in nanoseconds, within the recorder's 1/64.
	if got := s.Stages["pread"].P50; math.Abs(got-300) > 300.0/64 {
		t.Errorf("pread p50 = %g ns, want 300 within 1/64", got)
	}
}

// TestDiskBatchesByReader checks the split of disk batches by who read them:
// the snapshot carries both counts, and /metrics renders them as one
// counter with a served_by label.
func TestDiskBatchesByReader(t *testing.T) {
	m := newMetrics(2)
	m.batchesByQuery.Add(3)
	m.batchesByWorker.Add(5)
	s := m.snapshot(0)
	s.Cache, s.Writes = &cache.Stats{}, &store.WriteCounters{} // a server's snapshot always carries both
	if s.BatchesByQuery != 3 || s.BatchesByWorker != 5 {
		t.Fatalf("snapshot: %d by query, %d by worker; want 3 and 5", s.BatchesByQuery, s.BatchesByWorker)
	}
	w := httptest.NewRecorder()
	s.writePrometheus(w)
	for _, line := range []string{
		`gridserver_disk_batches_total{served_by="query"} 3`,
		`gridserver_disk_batches_total{served_by="worker"} 5`,
	} {
		if !strings.Contains(w.Body.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
