package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/geom"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/server"
	"pgridfile/internal/stats"
)

// benchK is k of the k-NN ops.
const benchK = 5

type benchOpts struct {
	clients   int
	queries   int
	ratio     float64
	seed      int64
	timeout   time.Duration
	faultSpec string  // armed through the FAULT verb before the run
	hot       float64 // fraction of queries aimed at the hot spot
	pipeline  int     // requests in flight per connection (closed and open loop)

	// Open-loop mode (DESIGN S26): offer load on a deterministic Poisson
	// schedule and measure latency from intended send times.
	openLoop bool
	rate     float64       // offered rate, queries/sec
	duration time.Duration // run length; N = rate × duration
}

type benchRow struct {
	Server    string  `json:"server"`   // the -addr the load went to
	Replicas  int     `json:"replicas"` // copies per bucket in the served layout
	Queries   int     `json:"queries"`
	Errors    int     `json:"errors"`
	QPS       float64 `json:"qps"`
	P50       float64 `json:"p50_ms"` // client-observed latency, milliseconds
	P95       float64 `json:"p95_ms"`
	P99       float64 `json:"p99_ms"`
	Imbalance float64 `json:"fetch_imbalance"` // max/mean bucket fetches across disks over the run
	HitRate   float64 `json:"cache_hit_rate"`  // hits / (hits+misses) over the run
	Degraded  int     `json:"degraded"`        // queries answered partially under injected faults

	// Store reads over this run (server STATS deltas): wanted pages, the
	// positioned reads (spans) that fetched them, and the unwanted pages
	// those spans read through.
	PagesRead    int64 `json:"pages_read"`
	SpansRead    int64 `json:"spans_read"`
	GapPagesRead int64 `json:"gap_pages_read"`

	// Replica overhead and serving counters (DESIGN S25): what r-way
	// replication costs in bytes and buys in failover, from the server's
	// stats snapshot. DiskBytes/WriteAmp describe the layout; the counters
	// are deltas over this run.
	DiskBytes        int64   `json:"disk_bytes,omitempty"`
	WriteAmp         float64 `json:"write_amplification,omitempty"`
	ReplicaFailover  int64   `json:"replica_failover"`
	ReplicaPrimary   int64   `json:"replica_reads_primary"`
	ReplicaSecondary int64   `json:"replica_reads_secondary"`

	// Stages holds the server-side per-stage latency medians (µs) of the
	// run's traced queries, keyed by stage name — the DESIGN S23 breakdown
	// that makes a latency regression bisectable from BENCH JSON alone.
	Stages map[string]float64 `json:"stage_p50_us,omitempty"`

	// Open-loop fields (DESIGN S26). Offered is the configured arrival
	// rate; Achieved is what the server completed; the latency percentiles
	// above are then measured from intended send times, so queueing under
	// saturation counts against the server (no coordinated omission).
	Mode      string  `json:"mode,omitempty"` // "open" on open-loop rows
	Arrivals  string  `json:"arrivals,omitempty"`
	Pipeline  int     `json:"pipeline,omitempty"`
	Offered   float64 `json:"offered_qps,omitempty"`
	Achieved  float64 `json:"achieved_qps,omitempty"`
	P999      float64 `json:"p999_ms,omitempty"`
	MaxLagMs  float64 `json:"max_lag_ms,omitempty"` // worst pacer lateness
	Sustained bool    `json:"sustained,omitempty"`  // no errors, achieved >= 95 % of offered
}

// runBench offers seeded load to the server running at -addr and reports one
// row: the client's counts and latencies beside the server's STATS deltas.
// Comparing schemes is composition: `gridtool layout -alg X`, `gridserver
// serve` that layout, bench it, repeat per scheme.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "", "address of the running server to load (required)")
	clients := fs.Int("clients", 8, "concurrent closed-loop clients (connections in the pool)")
	queries := fs.Int("queries", 2000, "closed-loop query count")
	ratio := fs.Float64("r", 0.02, "range-query volume ratio")
	seed := fs.Int64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 10*time.Second, "client request timeout")
	jsonPath := fs.String("json", "", "also write the result row as JSON to this file")
	faultSpec := fs.String("fault", "", "failpoint spec armed via the FAULT verb before the run (see internal/fault)")
	openLoop := fs.Bool("open-loop", false, "offer load on a deterministic schedule instead of closed-loop; latency measured from intended send times")
	rate := fs.Float64("rate", 5000, "open-loop offered rate, queries/sec")
	duration := fs.Duration("duration", 2*time.Second, "open-loop run length (query count = rate x duration)")
	hot := fs.Float64("hot", 0, "fraction of queries aimed at a hot spot a tenth of the domain wide (0 = uniform keys)")
	pipeline := fs.Int("pipeline", 1, "requests kept in flight per connection (1 = one-at-a-time)")
	fs.Parse(args)

	opts := benchOpts{
		clients: *clients, queries: *queries, ratio: *ratio,
		seed: *seed, timeout: *timeout, faultSpec: *faultSpec,
		hot: *hot, pipeline: *pipeline,
		openLoop: *openLoop, rate: *rate, duration: *duration,
	}
	switch {
	case *addr == "":
		return fmt.Errorf("bench: -addr is required (start the server with gridserver serve)")
	case opts.queries < 1 || opts.clients < 1:
		return fmt.Errorf("bench: -queries and -clients want at least 1, got %d and %d", opts.queries, opts.clients)
	case !(opts.hot >= 0 && opts.hot <= 1):
		return fmt.Errorf("bench: -hot wants a fraction in [0,1], got %g", opts.hot)
	}
	r, err := benchAddr(*addr, opts)
	if err != nil {
		return err
	}

	var table *stats.Table
	if opts.openLoop {
		table = stats.NewTable("gridserver bench: open-loop "+
			fmt.Sprintf("(%s arrivals, pipeline %d), latency from intended send times", loadgen.Poisson, opts.pipeline),
			"server", "r", "offered qps", "achieved qps", "sent", "errors", "p50 ms", "p99 ms", "p999 ms", "max lag ms", "sustained")
		table.AddRow(r.Server, r.Replicas, r.Offered, r.Achieved, r.Queries, r.Errors, r.P50, r.P99, r.P999, r.MaxLagMs, r.Sustained)
	} else {
		table = stats.NewTable("gridserver bench: closed-loop, "+
			fmt.Sprintf("%d clients, %d queries", opts.clients, opts.queries),
			"server", "r", "queries", "errors", "qps", "p50 ms", "p95 ms", "p99 ms", "fetch imbalance", "cache hit", "degraded", "failover")
		table.AddRow(r.Server, r.Replicas, r.Queries, r.Errors, r.QPS, r.P50, r.P95, r.P99, r.Imbalance, r.HitRate, r.Degraded, r.ReplicaFailover)
	}
	fmt.Fprint(out, table.Render())
	if *jsonPath != "" {
		data, err := json.MarshalIndent([]benchRow{r}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchAddr dials a server and runs the configured load shape against it:
// ops from loadgen.Synthesize, sent through loadgen.Send, paced by
// loadgen.RunClosed or loadgen.Run.
func benchAddr(addr string, opts benchOpts) (benchRow, error) {
	c, err := server.NewClient(server.ClientConfig{
		Addr: addr, PoolSize: opts.clients, RequestTimeout: opts.timeout,
		Pipeline: opts.pipeline,
	})
	if err != nil {
		return benchRow{}, err
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		return benchRow{}, fmt.Errorf("bench: probing %s: %w", addr, err)
	}
	if opts.faultSpec != "" {
		if _, err := c.Fault(context.Background(), opts.faultSpec); err != nil {
			return benchRow{}, fmt.Errorf("bench: arming faults on %s: %w", addr, err)
		}
	}
	dom := make(geom.Rect, len(snap.Domain))
	for d, iv := range snap.Domain {
		dom[d] = geom.Interval{Lo: iv[0], Hi: iv[1]}
	}

	// The closed loop sends each of its queries once. An open-loop run that
	// needs more than the pool holds repeats it via modulo — determinism is
	// preserved, memory stays bounded.
	n := max(int(opts.rate*opts.duration.Seconds()), 1)
	pool := opts.queries
	if opts.openLoop {
		pool = min(max(n, 1024), 1<<16)
	}
	ops := loadgen.Synthesize(dom, loadgen.SynthOptions{
		Skew:       loadgen.Skew{Hot: opts.hot},
		RangeRatio: opts.ratio,
		K:          benchK,
	}, pool, opts.seed)
	var degraded atomic.Int64
	do := func(ctx context.Context, i int) error {
		info, err := loadgen.Send(ctx, c, ops[i%len(ops)])
		if info.Degraded {
			degraded.Add(1)
		}
		return err
	}

	var r loadgen.Result
	if opts.openLoop {
		r, err = loadgen.Run(context.Background(), loadgen.Options{
			Rate: opts.rate, N: n, Seed: opts.seed,
			// Bound outstanding requests at 4× the client's own in-flight
			// capacity: enough queueing headroom to see saturation in the
			// latencies, without unbounded goroutine pile-up on a dead server.
			MaxInFlight: 4 * opts.clients * max(opts.pipeline, 1),
		}, do)
	} else {
		r, err = loadgen.RunClosed(context.Background(), opts.clients, opts.queries, do)
	}
	if err != nil {
		return benchRow{}, err
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	row := benchRow{
		Server:   addr,
		Replicas: snap.Replicas,
		Queries:  r.Sent,
		Errors:   r.Errors,
		P50:      ms(r.Latency.P50),
		P95:      ms(r.Latency.P95),
		P99:      ms(r.Latency.P99),
		Degraded: int(degraded.Load()),
	}
	if opts.openLoop {
		row.Mode = "open"
		row.Arrivals = loadgen.Poisson.String()
		row.Pipeline = max(opts.pipeline, 1)
		row.Offered = r.Offered
		row.Achieved = r.Achieved
		row.P999 = ms(r.Latency.P999)
		row.MaxLagMs = ms(r.MaxLag)
		row.Sustained = r.Errors == 0 && r.Achieved >= 0.95*r.Offered
	} else {
		row.QPS = float64(r.Sent) / r.Elapsed.Seconds()
	}
	if after, err := c.Stats(); err == nil {
		attachServerStats(&row, snap, after)
	}
	return row, nil
}

// attachServerStats decorates a finished row with what the server did over
// the run, from its stats before and after: the counters' deltas — fetch
// balance, cache behaviour, store reads, replica counters — the storage
// overhead as it stands, and the traced stage medians (µs; the server's
// histograms are in ns).
func attachServerStats(row *benchRow, before, after server.Snapshot) {
	row.Imbalance = fetchImbalance(before.DiskFetches, after.DiskFetches)
	row.HitRate = hitRateDelta(before.Cache, after.Cache)
	row.PagesRead = after.PagesRead - before.PagesRead
	row.SpansRead = after.SpansRead - before.SpansRead
	row.GapPagesRead = after.GapPagesRead - before.GapPagesRead
	row.DiskBytes = after.DiskBytes
	row.WriteAmp = after.WriteAmp
	row.ReplicaFailover = after.ReplicaFailover - before.ReplicaFailover
	row.ReplicaPrimary = after.ReplicaPrimary - before.ReplicaPrimary
	row.ReplicaSecondary = after.ReplicaSecondary - before.ReplicaSecondary
	if len(after.Stages) > 0 {
		row.Stages = make(map[string]float64, len(after.Stages))
		for name, q := range after.Stages {
			row.Stages[name] = q.P50 / 1e3
		}
	}
}

// hitRateDelta computes the cache hit fraction over one bench run from the
// before/after stats snapshots: hits/(hits+misses). Returns 0 when the
// server runs uncached.
func hitRateDelta(before, after *cache.Stats) float64 {
	if after == nil {
		return 0
	}
	var b cache.Stats
	if before != nil {
		b = *before
	}
	hits := float64(after.Hits - b.Hits)
	total := hits + float64(after.Misses-b.Misses)
	if total == 0 {
		return 0
	}
	return hits / total
}

// fetchImbalance is max/mean of the per-disk bucket fetches between two
// snapshots of the server's lifetime counters: 1.0 means the declustering
// spread the run's I/O perfectly evenly.
func fetchImbalance(before, after []int64) float64 {
	if len(after) == 0 {
		return 0
	}
	var sum, max int64
	for d, n := range after {
		if d < len(before) {
			n -= before[d]
		}
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(after))
	return float64(max) / mean
}
