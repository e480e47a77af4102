package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/server"
)

// cacheFlag maps the CLI convention (<=0 disables the cache) onto the
// server.Config one (0 selects the default, negative disables).
func cacheFlag(v int64) int64 {
	if v <= 0 {
		return -1
	}
	return v
}

// faultRegistry builds the server's failpoint registry from the CLI flags:
// seeded for reproducible chaos schedules, optionally pre-armed with a spec.
func faultRegistry(spec string, seed int64) (*fault.Registry, error) {
	reg := fault.NewRegistry(seed)
	if spec != "" {
		if err := reg.SetSpec(spec); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("store", "", "layout directory written by gridtool layout (required)")
	addr := fs.String("addr", "127.0.0.1:7090", "TCP listen address")
	httpAddr := fs.String("http", "", "optional HTTP address for /metrics and /healthz")
	maxInflight := fs.Int("max-inflight", 64, "admission control: max concurrently executing queries")
	timeout := fs.Duration("timeout", 5*time.Second, "per-query deadline")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "bucket cache budget in bytes (<=0 disables caching)")
	pprof := fs.Bool("pprof", false, "expose /debug/pprof on the -http address")
	faultSpec := fs.String("fault", "", "failpoint spec to arm at startup, e.g. store.read:err:p=0.05 (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault registry's reproducible schedules")
	degraded := fs.Bool("degraded", true, "answer partially (with the degraded flag) when a read fails and no replica can stand in, instead of erroring")
	traceSample := fs.Int("trace-sample", 0, "stage-trace every Nth query (1 traces all, 0 disables tracing)")
	traceSlow := fs.Duration("trace-slow", -1, "log traced queries at least this slow to stderr (0 logs every traced query, <0 disables the log)")
	scrubInterval := fs.Duration("scrub-interval", 0, "background checksum scrub period; repairs corrupt pages from replicas (0 disables)")
	writable := fs.Bool("writable", false, "accept INSERT/DELETE (mutations are journaled per disk)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("serve: -store is required")
	}
	reg, err := faultRegistry(*faultSpec, *faultSeed)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	s, err := server.OpenDir(*dir, server.Config{
		Addr:          *addr,
		HTTPAddr:      *httpAddr,
		MaxInflight:   *maxInflight,
		QueryTimeout:  *timeout,
		CacheBytes:    cacheFlag(*cacheBytes),
		Pprof:         *pprof,
		Faults:        reg,
		Degraded:      *degraded,
		TraceSample:   *traceSample,
		TraceSlowLog:  *traceSlow >= 0,
		TraceSlow:     max(*traceSlow, 0),
		ScrubInterval: *scrubInterval,
		Writable:      *writable,
	})
	if err != nil {
		return err
	}
	snap := s.Snapshot()
	fmt.Printf("gridserver: serving %d-D layout (%d disks) from %s on %s\n",
		snap.Dims, snap.Disks, *dir, s.Addr())
	if h := s.HTTPAddr(); h != nil {
		fmt.Printf("gridserver: metrics on http://%s/metrics\n", h)
	}
	if *faultSpec != "" {
		fmt.Printf("gridserver: failpoints armed (seed %d): %s\n", *faultSeed, *faultSpec)
	}
	if *traceSample > 0 {
		fmt.Printf("gridserver: tracing 1/%d queries", *traceSample)
		if *traceSlow >= 0 {
			fmt.Printf(", slow-query log at >=%s", *traceSlow)
		}
		fmt.Println()
	}
	if *scrubInterval > 0 {
		fmt.Printf("gridserver: background scrub every %s\n", *scrubInterval)
	}
	if *writable {
		fmt.Println("gridserver: online writes enabled (INSERT/DELETE journaled to every owner disk)")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gridserver: shutting down (draining in-flight queries)")
	if err := s.Close(); err != nil {
		return err
	}
	final := s.Snapshot()
	fmt.Printf("gridserver: served %d queries (%d errors, %d rejected, %d deadline-exceeded, %d degraded), p50=%.0fµs p99=%.0fµs\n",
		final.QueriesTotal, final.Errors, final.Rejected, final.DeadlineExceeded, final.Degraded,
		final.LatencyMicros.P50, final.LatencyMicros.P99)
	return nil
}
