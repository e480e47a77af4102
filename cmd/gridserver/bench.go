package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/core"
	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/loadgen"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/stats"
	"pgridfile/internal/store"
)

// The page size of the layouts -grid writes, and k of the k-NN ops.
const (
	benchPageBytes = 4096
	benchK         = 5
)

type benchOpts struct {
	clients      int
	queries      int
	ratio        float64
	seed         int64
	timeout      time.Duration
	cacheBytes   int64  // in-process servers only; <=0 disables
	faultSpec    string // armed through the FAULT verb before the run
	faultSeed    int64  // in-process servers only
	degraded     bool   // in-process servers only: partial answers over errors
	fetchRetries int    // in-process servers only: disk-batch retries (0 = server default)

	trace     bool          // in-process servers only: stage-trace every query
	traceSlow time.Duration // in-process servers only: slow-query log threshold (<0 disables)

	// Open-loop mode (DESIGN S26): offer load on a deterministic Poisson
	// schedule and measure latency from intended send times.
	openLoop bool
	rate     float64       // offered rate, queries/sec
	duration time.Duration // run length; N = rate × duration
	sweep    string        // "start:factor:steps" rate escalation
	slo      time.Duration // p99 bound for a sweep step to count as sustained

	hot      float64 // fraction of queries aimed at the hot spot
	pipeline int     // requests in flight per connection (closed and open loop)

	// writeFrac mixes INSERTs into the closed loop: that fraction of the
	// ops become writes with fresh keys. In-process servers open writable
	// automatically when it is nonzero.
	writeFrac float64
}

type benchRow struct {
	Scheme    string  `json:"scheme"`
	Replicas  int     `json:"replicas"` // copies per bucket in the benchmarked layout
	Queries   int     `json:"queries"`
	Errors    int     `json:"errors"`
	QPS       float64 `json:"qps"`
	P50       float64 `json:"p50_ms"` // client-observed latency, milliseconds
	P95       float64 `json:"p95_ms"`
	P99       float64 `json:"p99_ms"`
	Imbalance float64 `json:"fetch_imbalance"` // max/mean bucket fetches across disks
	HitRate   float64 `json:"cache_hit_rate"`  // hits / (hits+misses+shared) over the run
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
	// Write-mix fields (-write-frac): what the clients sent and what the
	// server's journaled write path recorded over the run. WritesSent counts
	// the INSERTs issued, WritesAcked the ones acknowledged as applied; the
	// counter deltas come from the server's STATS snapshot.
	WritesSent     int   `json:"writes_sent,omitempty"`
	WritesAcked    int   `json:"writes_acked,omitempty"`
	Inserts        int64 `json:"inserts,omitempty"`
	Deletes        int64 `json:"deletes,omitempty"`
	JournalAppends int64 `json:"journal_appends,omitempty"`
	BucketSplits   int64 `json:"bucket_splits,omitempty"`

	Mode      string  `json:"mode,omitempty"` // "open" on open-loop rows
	Arrivals  string  `json:"arrivals,omitempty"`
	Pipeline  int     `json:"pipeline,omitempty"`
	Offered   float64 `json:"offered_qps,omitempty"`
	Achieved  float64 `json:"achieved_qps,omitempty"`
	P999      float64 `json:"p999_ms,omitempty"`
	MaxLagMs  float64 `json:"max_lag_ms,omitempty"` // worst pacer lateness
	Sustained bool    `json:"sustained,omitempty"`  // sweep: step met the criteria
	Knee      bool    `json:"knee,omitempty"`       // sweep: last sustained step
}

func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "", "benchmark a running server at this address")
	dir := fs.String("store", "", "serve this layout directory in-process and benchmark it")
	grid := fs.String("grid", "", "grid file to lay out per scheme (with -algs)")
	algs := fs.String("algs", "minimax,DM/D", "comma-separated schemes to compare (with -grid)")
	disks := fs.Int("disks", 8, "disks per layout (with -grid)")
	replicasFlag := fs.String("replicas", "1", "comma-separated replication factors to compare per scheme (with -grid)")
	clients := fs.Int("clients", 8, "concurrent closed-loop clients")
	queries := fs.Int("queries", 2000, "total queries per scheme")
	ratio := fs.Float64("r", 0.02, "range-query volume ratio")
	seed := fs.Int64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 10*time.Second, "client request timeout")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "bucket cache budget for in-process servers (<=0 disables)")
	jsonPath := fs.String("json", "", "also write the result rows as JSON to this file")
	faultSpec := fs.String("fault", "", "failpoint spec armed via the FAULT verb before the run (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "fault registry seed for in-process servers")
	degraded := fs.Bool("degraded", false, "in-process servers answer partially under faults instead of erroring")
	fetchRetries := fs.Int("fetch-retries", 0, "disk-batch retry budget for in-process servers (0 = server default, <0 disables)")
	trace := fs.Bool("trace", true, "stage-trace every query on in-process servers (stage_p50_us in -json)")
	traceSlow := fs.Duration("trace-slow", -1, "in-process servers log traced queries at least this slow to stderr (0 logs all, <0 disables)")
	openLoop := fs.Bool("open-loop", false, "offer load on a deterministic schedule instead of closed-loop; latency measured from intended send times")
	rate := fs.Float64("rate", 5000, "open-loop offered rate, queries/sec")
	duration := fs.Duration("duration", 2*time.Second, "open-loop run length (query count = rate x duration)")
	hot := fs.Float64("hot", 0, "fraction of queries aimed at a hot spot a tenth of the domain wide (0 = uniform keys)")
	sweep := fs.String("sweep", "", "open-loop rate sweep start:factor:steps, e.g. 1000:2:6 (implies -open-loop)")
	slo := fs.Duration("slo", 0, "p99 bound a sweep step must meet to count as sustained (0 disables)")
	pipeline := fs.Int("pipeline", 1, "requests kept in flight per connection (1 = one-at-a-time)")
	writeFrac := fs.Float64("write-frac", 0, "fraction of closed-loop ops sent as INSERTs (in-process servers open writable; remote servers need -writable)")
	fs.Parse(args)

	opts := benchOpts{
		clients: *clients, queries: *queries, ratio: *ratio,
		seed: *seed, timeout: *timeout,
		cacheBytes: *cacheBytes,
		faultSpec:  *faultSpec, faultSeed: *faultSeed, degraded: *degraded,
		fetchRetries: *fetchRetries,
		trace:        *trace, traceSlow: *traceSlow,
		openLoop: *openLoop || *sweep != "", rate: *rate, duration: *duration,
		sweep: *sweep, slo: *slo,
		hot: *hot, pipeline: *pipeline,
		writeFrac: *writeFrac,
	}
	if opts.writeFrac < 0 || opts.writeFrac >= 1 {
		return fmt.Errorf("bench: -write-frac wants [0,1), got %g", opts.writeFrac)
	}
	if opts.writeFrac > 0 && opts.openLoop {
		return fmt.Errorf("bench: -write-frac is a closed-loop mix (not usable with -open-loop/-sweep)")
	}
	modes := 0
	for _, set := range []bool{*addr != "", *dir != "", *grid != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("bench: exactly one of -addr, -store, -grid is required")
	}

	rlist, err := parseReplicaList(*replicasFlag)
	if err != nil {
		return err
	}

	var table *stats.Table
	if opts.openLoop {
		table = stats.NewTable("gridserver bench: open-loop "+
			fmt.Sprintf("(%s arrivals, pipeline %d), latency from intended send times", loadgen.Poisson, opts.pipeline),
			"scheme", "r", "offered qps", "achieved qps", "sent", "errors", "p50 ms", "p99 ms", "p999 ms", "max lag ms", "sustained")
	} else {
		table = stats.NewTable("gridserver bench: closed-loop, "+
			fmt.Sprintf("%d clients, %d queries/scheme", opts.clients, opts.queries),
			"scheme", "r", "queries", "errors", "qps", "p50 ms", "p95 ms", "p99 ms", "fetch imbalance", "cache hit", "degraded", "failover")
	}

	var rows []benchRow
	addRows := func(rs []benchRow) {
		for _, r := range rs {
			rows = append(rows, r)
			if opts.openLoop {
				sustained := fmt.Sprintf("%v", r.Sustained)
				if r.Knee {
					sustained += " (knee)"
				}
				table.AddRow(r.Scheme, r.Replicas, r.Offered, r.Achieved, r.Queries, r.Errors, r.P50, r.P99, r.P999, r.MaxLagMs, sustained)
			} else {
				table.AddRow(r.Scheme, r.Replicas, r.Queries, r.Errors, r.QPS, r.P50, r.P95, r.P99, r.Imbalance, r.HitRate, r.Degraded, r.ReplicaFailover)
			}
		}
	}

	switch {
	case *addr != "":
		rs, err := benchAddr(*addr, "remote", opts)
		if err != nil {
			return err
		}
		addRows(rs)
	case *dir != "":
		rs, err := benchStore(*dir, filepath.Base(*dir), opts)
		if err != nil {
			return err
		}
		addRows(rs)
	default:
		fh, err := os.Open(*grid)
		if err != nil {
			return err
		}
		f, err := gridfile.Read(fh)
		fh.Close()
		if err != nil {
			return err
		}
		g := core.FromGridFile(f)
		for _, name := range strings.Split(*algs, ",") {
			name = strings.TrimSpace(name)
			allocator, err := core.ParseAllocator(name, opts.seed, 0)
			if err != nil {
				return err
			}
			alloc, err := allocator.Decluster(g, *disks)
			if err != nil {
				return err
			}
			for _, r := range rlist {
				tmp, err := os.MkdirTemp("", "gridserver-bench-")
				if err != nil {
					return err
				}
				rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
				if err == nil {
					_, err = store.WriteReplicated(tmp, f, rm, benchPageBytes)
				}
				if err != nil {
					os.RemoveAll(tmp)
					return err
				}
				label := name
				if len(rlist) > 1 {
					label = fmt.Sprintf("%s r=%d", name, r)
				}
				rs, err := benchStore(tmp, label, opts)
				os.RemoveAll(tmp)
				if err != nil {
					return err
				}
				addRows(rs)
			}
		}
	}
	fmt.Fprint(out, table.Render())
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchStore serves a layout in-process on an ephemeral port and runs the
// load against it.
func benchStore(dir, label string, opts benchOpts) ([]benchRow, error) {
	cfg := server.Config{
		CacheBytes:   cacheFlag(opts.cacheBytes),
		Faults:       fault.NewRegistry(opts.faultSeed),
		Degraded:     opts.degraded,
		FetchRetries: opts.fetchRetries,
		Writable:     opts.writeFrac > 0,
	}
	if opts.trace {
		cfg.TraceSample = 1
		cfg.TraceSlowLog = opts.traceSlow >= 0
		cfg.TraceSlow = max(opts.traceSlow, 0)
	}
	s, err := server.OpenDir(dir, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return benchAddr(s.Addr().String(), label, opts)
}

// benchAddr dials a server and runs the configured load shape against it —
// one closed-loop row, or one open-loop row per offered rate. Both shapes
// draw their queries from loadgen.Synthesize, send them through loadgen.Send
// and are paced by loadgen (RunClosed, Run, Sweep).
func benchAddr(addr, label string, opts benchOpts) ([]benchRow, error) {
	c, err := server.NewClient(server.ClientConfig{
		Addr: addr, PoolSize: opts.clients, RequestTimeout: opts.timeout,
		Pipeline: opts.pipeline,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("bench: probing %s: %w", addr, err)
	}
	// Arm the chaos schedule through the admin verb, so the same flag works
	// against in-process and remote servers alike.
	if opts.faultSpec != "" {
		if _, err := c.Fault(context.Background(), opts.faultSpec); err != nil {
			return nil, fmt.Errorf("bench: arming faults on %s: %w", addr, err)
		}
	}
	dom := make(geom.Rect, len(snap.Domain))
	for d, iv := range snap.Domain {
		dom[d] = geom.Interval{Lo: iv[0], Hi: iv[1]}
	}
	sopts, err := parseSweep(opts.sweep, opts)
	if err != nil {
		return nil, err
	}

	// The closed loop sends each of its queries once. An open-loop run that
	// needs more than the pool holds repeats it via modulo — determinism is
	// preserved, memory stays bounded.
	pool := opts.queries
	if opts.sweep != "" {
		last := sopts.Start * math.Pow(sopts.Factor, float64(sopts.MaxSteps-1))
		pool = int(last * sopts.StepDuration.Seconds())
	} else if opts.openLoop {
		pool = int(opts.rate * opts.duration.Seconds())
	}
	if opts.openLoop {
		pool = min(max(pool, 1024), 1<<16)
	}
	ops := loadgen.Synthesize(dom, loadgen.SynthOptions{
		Skew:       loadgen.Skew{Hot: opts.hot},
		RangeRatio: opts.ratio,
		K:          benchK,
	}, pool, opts.seed)
	// -write-frac: a deterministic subset of the closed loop's ops become
	// INSERTs with fresh keys (own seed stream, so the read workload is
	// unchanged).
	var writeKeys []geom.Point // nil where the op stays a read
	if opts.writeFrac > 0 {
		wrng := rand.New(rand.NewSource(opts.seed + 3))
		writeKeys = make([]geom.Point, opts.queries)
		for i := range writeKeys {
			if wrng.Float64() >= opts.writeFrac {
				continue
			}
			writeKeys[i] = make(geom.Point, len(dom))
			for d := range dom {
				writeKeys[i][d] = dom[d].Lo + wrng.Float64()*dom[d].Length()
			}
		}
	}
	var degraded, writesSent, writesAcked atomic.Int64
	do := func(ctx context.Context, i int) error {
		var info server.QueryInfo
		var err error
		if i < len(writeKeys) && writeKeys[i] != nil {
			var res server.Result
			res, err = c.InsertCtx(ctx, writeKeys[i])
			info = res.Info
			writesSent.Add(1)
			if res.Applied {
				writesAcked.Add(1)
			}
		} else {
			info, err = loadgen.Send(ctx, c, ops[i%len(ops)])
		}
		if info.Degraded {
			degraded.Add(1)
		}
		return err
	}

	ctx := context.Background()
	base := loadgen.Options{
		Seed: opts.seed,
		// Bound outstanding requests at 4× the client's own in-flight
		// capacity: enough queueing headroom to see saturation in the
		// latencies, without unbounded goroutine pile-up on a dead server.
		MaxInFlight: 4 * opts.clients * max(opts.pipeline, 1),
	}
	var results []loadgen.Result
	knee := -1
	switch {
	case opts.sweep != "":
		results, knee, err = loadgen.Sweep(ctx, sopts, base, do)
	case opts.openLoop:
		base.Rate = opts.rate
		base.N = max(int(opts.rate*opts.duration.Seconds()), 1)
		results = make([]loadgen.Result, 1)
		results[0], err = loadgen.Run(ctx, base, do)
	default:
		results = make([]loadgen.Result, 1)
		results[0], err = loadgen.RunClosed(ctx, opts.clients, opts.queries, do)
	}
	if err != nil {
		return nil, err
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	rows := make([]benchRow, len(results))
	for i, r := range results {
		rows[i] = benchRow{
			Scheme:   label,
			Replicas: snap.Replicas,
			Queries:  r.Sent,
			Errors:   r.Errors,
			P50:      ms(r.Latency.P50),
			P95:      ms(r.Latency.P95),
			P99:      ms(r.Latency.P99),
		}
		if !opts.openLoop {
			rows[i].QPS = float64(r.Sent) / r.Elapsed.Seconds()
			continue
		}
		rows[i].Mode = "open"
		rows[i].Arrivals = loadgen.Poisson.String()
		rows[i].Pipeline = max(opts.pipeline, 1)
		rows[i].Offered = r.Offered
		rows[i].Achieved = r.Achieved
		rows[i].P999 = ms(r.Latency.P999)
		rows[i].MaxLagMs = ms(r.MaxLag)
		rows[i].Sustained = sopts.Sustained(r)
		rows[i].Knee = i == knee
	}
	// The client-side counts and the server-side deltas cover the whole run
	// set; they go on the last row (of a sweep: the heaviest load, the one
	// worth bisecting).
	last := &rows[len(rows)-1]
	last.Degraded = int(degraded.Load())
	last.WritesSent = int(writesSent.Load())
	last.WritesAcked = int(writesAcked.Load())
	attachServerStats(last, c, snap)
	return rows, nil
}

// attachServerStats decorates a finished row with the server-side deltas:
// fetch balance, cache behaviour, replica counters and the traced stage
// medians (µs; the server's histograms are in ns).
func attachServerStats(row *benchRow, c *server.Client, before server.Snapshot) {
	after, err := c.Stats()
	if err != nil {
		return
	}
	row.Imbalance = fetchImbalance(after.DiskFetches)
	row.HitRate = hitRateDelta(before.Cache, after.Cache)
	row.PagesRead = after.PagesRead - before.PagesRead
	row.SpansRead = after.SpansRead - before.SpansRead
	row.GapPagesRead = after.GapPagesRead - before.GapPagesRead
	row.DiskBytes = after.DiskBytes
	row.WriteAmp = after.WriteAmp
	row.ReplicaFailover = after.ReplicaFailover - before.ReplicaFailover
	row.ReplicaPrimary = after.ReplicaPrimary - before.ReplicaPrimary
	row.ReplicaSecondary = after.ReplicaSecondary - before.ReplicaSecondary
	if after.Writes != nil {
		var b store.WriteCounters
		if before.Writes != nil {
			b = *before.Writes
		}
		row.Inserts = after.Writes.Inserts - b.Inserts
		row.Deletes = after.Writes.Deletes - b.Deletes
		row.JournalAppends = after.Writes.JournalAppends - b.JournalAppends
		row.BucketSplits = after.Writes.BucketSplits - b.BucketSplits
	}
	if len(after.Stages) > 0 {
		row.Stages = make(map[string]float64, len(after.Stages))
		for name, q := range after.Stages {
			row.Stages[name] = q.P50 / 1e3
		}
	}
}

// parseSweep parses -sweep "start:factor:steps". With an empty spec it still
// returns usable SweepOptions (for Sustained on single runs).
func parseSweep(spec string, opts benchOpts) (loadgen.SweepOptions, error) {
	sopts := loadgen.SweepOptions{SLO: opts.slo, StepDuration: opts.duration}
	if spec == "" {
		return sopts, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return sopts, fmt.Errorf("bench: -sweep wants start:factor:steps, got %q", spec)
	}
	start, err1 := strconv.ParseFloat(parts[0], 64)
	factor, err2 := strconv.ParseFloat(parts[1], 64)
	steps, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || start <= 0 || factor <= 1 || steps < 1 {
		return sopts, fmt.Errorf("bench: bad -sweep %q (want start>0, factor>1, steps>=1)", spec)
	}
	sopts.Start, sopts.Factor, sopts.MaxSteps = start, factor, steps
	return sopts, nil
}

// parseReplicaList parses the -replicas comma list ("1,2") into a sorted-as-
// given slice of replication factors.
func parseReplicaList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil || r < 1 {
			return nil, fmt.Errorf("bench: bad -replicas entry %q", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: -replicas needs at least one factor")
	}
	return out, nil
}

// hitRateDelta computes the cache hit fraction over one bench run from the
// before/after stats snapshots; singleflight joins count as hits (they were
// served without extra I/O). Returns 0 when the server runs uncached.
func hitRateDelta(before, after *cache.Stats) float64 {
	if after == nil {
		return 0
	}
	var b cache.Stats
	if before != nil {
		b = *before
	}
	hits := float64(after.Hits - b.Hits + after.Shared - b.Shared)
	total := hits + float64(after.Misses-b.Misses)
	if total == 0 {
		return 0
	}
	return hits / total
}

// fetchImbalance is max/mean of per-disk bucket fetches: 1.0 means the
// declustering spread the benchmark's I/O perfectly evenly.
func fetchImbalance(fetches []int64) float64 {
	if len(fetches) == 0 {
		return 0
	}
	var sum, max int64
	for _, n := range fetches {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(fetches))
	return float64(max) / mean
}
