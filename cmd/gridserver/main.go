// Command gridserver serves grid-file queries from a declustered layout
// directory over TCP, and load-tests such servers.
//
// Subcommands:
//
//	gridserver serve -store layout/ [-addr 127.0.0.1:7090] [-http :7091]
//	gridserver serve -store layout/ -writable
//	gridserver ingest -store layout/ -n 2000 -fault "store.write.disk0:err"
//	gridserver bench -store layout/ -write-frac 0.2 -writable
//	gridserver serve -store layout/ -fault "store.read:err:p=0.05" [-degraded=false]
//	gridserver serve -store layout/ -trace-sample 100 -trace-slow 50ms
//	gridserver bench -store layout/ [-clients 8] [-queries 2000]
//	gridserver bench -addr host:port [-clients 8] [-queries 2000]
//	gridserver bench -grid file.grd -algs minimax,DM/D -disks 8
//	gridserver bench -store layout/ -fault "store.read:err:p=0.2" -degraded
//	gridserver bench -store layout/ -trace -trace-slow 0 -json out.json
//	gridserver bench -store layout/ -open-loop -rate 10000 -pipeline 16
//	gridserver bench -store layout/ -sweep 2000:2:6 -slo 50ms -hot 0.5
//
// serve opens the per-disk page files written by `gridtool layout` (the
// paper's "separate files corresponding to every disk"), loads the embedded
// grid file as the coordinator's scales and directory, and answers point,
// range, partial-match and k-NN queries over the binary protocol of
// internal/server. bench is a multi-client closed-loop load generator; with
// -grid/-algs it lays the same grid file out under several declustering
// schemes and reports throughput and latency percentiles per scheme — the
// paper's response-time comparison, measured through a real network stack.
//
// Both subcommands accept -fault, a failpoint spec (see internal/fault) armed
// through the FAULT admin verb: serve starts chaos-injected, bench measures a
// server under injected disk errors, stalls and torn reads. With -degraded
// the server answers such queries partially (flagged on the wire) instead of
// erroring; TestBenchChaosMode is the smoke gate built on this.
//
// Both subcommands also expose the per-query stage trace: -trace-sample N
// (serve) traces every Nth query, feeding per-stage latency histograms into
// STATS and /metrics, while -trace-slow logs traced queries at or above the
// threshold as structured one-liners on stderr (0 logs every traced query).
// bench traces its in-process servers by default (-trace), so -json rows
// carry a stage_p50_us breakdown; TestBenchStoreMode is the smoke gate.
//
// With -open-loop, bench switches from the closed loop to the honest load
// model of DESIGN S26: requests arrive on a deterministic seeded schedule
// (-arrivals poisson|fixed) at -rate queries/sec for -duration, the workload
// mix is synthesized with optional hot-spot skew (-hot, -hot-frac), and every
// latency is measured from the request's *intended* send time, so server
// stalls penalize the whole queue behind them instead of being omitted.
// -sweep start:factor:steps escalates the offered rate geometrically and
// marks the knee: the last rate served with zero errors, >=95% of the offered
// throughput and (optionally) p99 <= -slo. -pipeline N keeps N requests in
// flight per connection via tagged frames; TestBenchOpenLoopMode is the gate.
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
  bench     load generator: closed-loop by default, open-loop with -open-loop /
            -sweep (offered vs achieved rate, latency from intended send times),
            optionally comparing declustering schemes on the same grid file
  campaign  deterministic scenario matrix: faults x schemes x workloads x
            replication, gated against a committed baseline report
  ingest    online-write crash/replay smoke: insert under optional write-path
            faults, hard-crash without a checkpoint, reopen, verify zero lost
            acks and a clean scrub (JSON report)

run "gridserver <subcommand> -h" for subcommand flags`)
}
