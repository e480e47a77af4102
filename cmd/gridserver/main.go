// Command gridserver serves grid-file queries from a declustered layout
// directory over TCP, and load-tests such servers.
//
// Subcommands:
//
//	gridserver serve -store layout/ [-addr 127.0.0.1:7090] [-http :7091]
//	gridserver serve -store layout/ -writable
//	gridserver serve -store layout/ -fault "store.read:err:p=0.05" [-degraded=false]
//	gridserver serve -store layout/ -trace-sample 1 -trace-slow 0 2>trace.log
//	gridserver bench -addr 127.0.0.1:7090 [-clients 8] [-queries 2000] [-json out.json]
//	gridserver bench -addr 127.0.0.1:7090 -fault "store.read.disk2:err"
//	gridserver bench -addr 127.0.0.1:7090 -open-loop -rate 10000 -pipeline 16 -hot 0.5
//	gridserver ingest -store layout/ -n 2000 -fault "store.write.disk0:err"
//	gridserver campaign -faults none,kill-disk1 -schemes minimax -replicas 2
//
// serve opens the per-disk page files written by `gridtool layout` (the
// paper's "separate files corresponding to every disk"), loads the embedded
// grid file as the coordinator's scales and directory, and answers point,
// range, partial-match and k-NN queries over the binary protocol of
// internal/server. Every server setting — cache, faults, degraded answers,
// tracing, writes — is a serve flag.
//
// bench loads a running server at -addr and nothing else: a seeded mix of
// point, range, count, partial-match and k-NN ops (-r, -hot) offered by
// -clients closed-loop callers, or with -open-loop at -rate queries/sec for
// -duration on a Poisson schedule, latency measured from each request's
// intended send time so server stalls penalize the queue behind them (DESIGN
// S26). -pipeline N keeps N requests in flight per connection; -fault arms a
// failpoint spec (see internal/fault) through the FAULT admin verb. It prints
// one row — client latencies and errors beside the server's STATS deltas
// (cache hit rate, fetch imbalance, degraded answers, failovers, pages read,
// traced stage medians) — and with -json writes it as JSON. To compare
// declustering schemes, lay the grid file out per scheme (`gridtool layout
// -alg X`), serve each layout and bench each server. The gates are
// TestBenchStoreMode, TestBenchChaosMode and TestBenchOpenLoopMode.
package main

import (
	"bufio"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:], os.Stdout)
	case "campaign":
		err = runCampaign(os.Args[2:], os.Stdout)
	case "ingest":
		err = runIngest(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "gridserver: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridserver: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	w := bufio.NewWriter(os.Stderr)
	defer w.Flush()
	fmt.Fprintln(w, `usage: gridserver <subcommand> [flags]

subcommands:
  serve     serve point/range/partial-match/k-NN queries from a layout directory
  bench     load a running server (-addr): closed-loop by default, open-loop
            with -open-loop (offered vs achieved rate, latency from intended
            send times); one row of client and server-side numbers
  campaign  deterministic scenario matrix: faults x schemes x workloads x
            replication, gated against a committed baseline report
  ingest    online-write crash/replay smoke: insert under optional write-path
            faults, hard-crash without a checkpoint, reopen, verify zero lost
            acks and a clean scrub (JSON report)

run "gridserver <subcommand> -h" for subcommand flags`)
}
