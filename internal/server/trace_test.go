package server

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/workload"
)

// syncBuffer is a goroutine-safe log sink for the slow-query log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// stepClock is a deterministic shared time source: every read advances it by
// a fixed step, so any start/end pair measures at least one step, concurrent
// readers see a strictly monotone clock, and measured durations depend only
// on how many times the code path read the clock — not on scheduler noise.
type stepClock struct {
	ns   atomic.Int64
	step int64
}

func (c *stepClock) now() time.Time {
	return time.Unix(0, c.ns.Add(c.step))
}

// TestTracingEndToEnd serves a traced workload and checks the full S23
// surface: every data query is traced, the stage histograms cover the hot
// path, the slow-query log emits one well-formed line per query, and the
// stage sum is commensurate with the measured latencies. The server and the
// store share an injected step clock, so every duration in the test is a
// deterministic count of clock reads rather than wall time.
func TestTracingEndToEnd(t *testing.T) {
	var log syncBuffer
	clk := &stepClock{step: 300} // ns per read: keeps single-step stages sub-µs
	s, f := newTestServer(t, 900, 4, Config{
		TraceSample:  1,
		TraceSlowLog: true,
		TraceSlow:    0, // log every traced query
		TraceLog:     &log,
		clock:        clk.now,
	})
	s.st.SetClock(clk.now)
	cl := newTestClient(t, s, ClientConfig{})

	dom := f.Domain()
	const queries = 40
	for i, q := range workload.SquareRange(dom, 0.1, queries, 3) {
		n, _, err := cl.RangeCountCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := f.RangeCount(q); n != want {
			t.Fatalf("query %d returned %d records, want %d", i, n, want)
		}
	}
	var key [2]float64
	f.Scan(func(k []float64) bool { key = [2]float64{k[0], k[1]}; return false })
	if _, _, err := cl.PointCtx(context.Background(), key[:]); err != nil {
		t.Fatal(err)
	}

	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced != queries+1 {
		t.Errorf("traced = %d, want %d", snap.Traced, queries+1)
	}
	if snap.Stages == nil {
		t.Fatal("snapshot carries no stage summaries despite tracing")
	}
	for _, name := range stageNames {
		q, ok := snap.Stages[name]
		if !ok {
			t.Errorf("stage %q missing from STATS", name)
			continue
		}
		if q.Count != snap.Traced {
			t.Errorf("stage %q observed %d queries, want %d", name, q.Count, snap.Traced)
		}
	}
	// The hot path really ran: translation, cache bookkeeping and encode
	// take nonzero time on every query; pread touched the disk at least once.
	for _, name := range []string{"translate", "cache", "encode", "pread"} {
		if snap.Stages[name].Max == 0 {
			t.Errorf("stage %q never recorded any time", name)
		}
	}
	// Stage sums must explain the measured latency. The step clock drives
	// both sides, so the untraced slack between stages is a handful of clock
	// reads and the histograms resolve 1/64: the sum of stage p50s explains
	// at least half of the end-to-end p50. Disk stages overlap across
	// spindles, so the sum may also exceed elapsed.
	sum := 0.0
	for _, name := range stageNames {
		sum += snap.Stages[name].P50 / 1e3 // stage histograms are ns
	}
	if p50 := snap.LatencyMicros.P50; sum < p50/2 {
		t.Errorf("stage p50 sum %.1fµs explains less than half of end-to-end p50 %.1fµs", sum, p50)
	}
	// The stage histograms are in nanoseconds so that the cheap always-run
	// stages (translate, encode), sub-µs on a warm cache, resolve to
	// something a real clock could produce.
	for _, name := range []string{"translate", "encode"} {
		if p50 := snap.Stages[name].P50; p50 < 1 {
			t.Errorf("stage %q p50 = %gns: ns histograms should resolve sub-µs stages", name, p50)
		}
	}

	// One slow-log line per traced query, structured and parseable.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if int64(len(lines)) != snap.Traced {
		t.Fatalf("slow log has %d lines, want %d:\n%s", len(lines), snap.Traced, log.String())
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "gridserver trace verb=") {
			t.Fatalf("malformed slow-log line: %q", ln)
		}
		for _, field := range []string{"elapsed=", "buckets=", "pages=", "degraded=", "leads=", "inside="} {
			if !strings.Contains(ln, " "+field) {
				t.Errorf("slow-log line missing %s: %q", field, ln)
			}
		}
		for _, name := range stageNames {
			if !strings.Contains(ln, " "+name+"=") {
				t.Errorf("slow-log line missing stage %s: %q", name, ln)
			}
		}
	}
	// A 10 % count has buckets inside its box, which the directory counts.
	if !regexp.MustCompile(` inside=[1-9]`).MatchString(log.String()) {
		t.Errorf("no count took a bucket from the directory:\n%s", log.String())
	}
}

// TestTraceSampling checks the 1-in-N sampler: with TraceSample=4 roughly a
// quarter of queries are traced — exactly every 4th, since the counter is
// deterministic under a single client.
func TestTraceSampling(t *testing.T) {
	s, f := newTestServer(t, 300, 2, Config{TraceSample: 4})
	cl := newTestClient(t, s, ClientConfig{})
	var key [2]float64
	f.Scan(func(k []float64) bool { key = [2]float64{k[0], k[1]}; return false })
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, _, err := cl.PointCtx(context.Background(), key[:]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(queries / 4); snap.Traced != want {
		t.Errorf("traced = %d of %d, want %d", snap.Traced, queries, want)
	}
}

// TestTraceSlowThreshold: with a high threshold, queries are traced (stage
// histograms fill) but nothing is logged.
func TestTraceSlowThreshold(t *testing.T) {
	var log syncBuffer
	s, f := newTestServer(t, 300, 2, Config{
		TraceSample:  1,
		TraceSlowLog: true,
		TraceSlow:    time.Hour,
		TraceLog:     &log,
	})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCountCtx(context.Background(), f.Domain()); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced == 0 {
		t.Error("nothing traced despite TraceSample=1")
	}
	if got := log.String(); got != "" {
		t.Errorf("sub-threshold query logged: %q", got)
	}
}

// TestTracingOffByDefault: the zero config neither traces nor logs.
func TestTracingOffByDefault(t *testing.T) {
	var log syncBuffer
	s, f := newTestServer(t, 300, 2, Config{TraceLog: &log})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCountCtx(context.Background(), f.Domain()); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced != 0 || snap.Stages != nil {
		t.Errorf("untraced server reported traced=%d stages=%v", snap.Traced, snap.Stages)
	}
	if got := log.String(); got != "" {
		t.Errorf("untraced server logged: %q", got)
	}
}
