#!/bin/sh
# check.sh — the full local gate. Everything a PR must pass, in order of
# increasing cost:
#
#   1. gofmt       formatting drift
#   2. go vet      static misuse
#   3. go build    every package compiles
#   4. go test     full suite under the race detector
#   5. fuzz smoke  short runs of the fuzz targets: wire protocol
#                  (FuzzCodec, FuzzDegradedCodec), grid-file persistence
#                  (FuzzRead) and layout manifests (FuzzManifest)
#   6. trace smoke traced bench run: stage breakdown + slow-query log
#   7. chaos smoke fault-injected bench run: zero errors, degraded answers;
#                  then the same profile on an r=2 layout: zero errors, zero
#                  degraded, nonzero failovers
#   8. replica smoke
#                  r=2 layout with one disk hard-killed: zero errors, zero
#                  degraded, nonzero failovers
#   9. write smoke  online-write durability: ingest under a killed disk's
#                  page writes at r=2, crash without checkpoint, replay;
#                  zero lost acks, splits observed, scrub clean
#  10. open-loop smoke
#                  open-loop run at a fixed offered rate: zero errors,
#                  achieved qps >= 95% of offered
#  11. campaign gate
#                  deterministic fault x scheme x workload x replication
#                  matrix: byte-identical across runs, zero surfaced errors,
#                  and exactly matching the committed CAMPAIGN.json
#  12. bench smoke one-shot run of the serving-path benchmark suite
#  13. alloc gate  tuned and tuned-pipelined throughput rows with -benchmem
#                  must stay within the committed allocs/op budget
#  14. decluster smoke
#                  one iteration of the build-path benchmark; its parallel
#                  variant asserts the engine assignment is byte-identical
#                  to the serial reference
#
# The quick tier-1 gate (go build ./... && go test ./...) is a subset; run
# this script before sending a PR. Usage: scripts/check.sh [fuzztime]
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${1:-5s}"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== fuzz smoke ($FUZZTIME each)"
go test -run='^$' -fuzz=FuzzCodec -fuzztime="$FUZZTIME" ./internal/server
go test -run='^$' -fuzz=FuzzDegradedCodec -fuzztime="$FUZZTIME" ./internal/server
go test -run='^$' -fuzz=FuzzRead -fuzztime="$FUZZTIME" ./internal/gridfile
go test -run='^$' -fuzz=FuzzManifest -fuzztime="$FUZZTIME" ./internal/store

echo "== trace smoke"
TRACE_SEED="${TRACE_SEED:-1}" sh scripts/trace.sh 200

echo "== chaos smoke"
CHAOS_SEED="${CHAOS_SEED:-1}" sh scripts/chaos.sh 1000

echo "== replica smoke"
REPLICA_SEED="${REPLICA_SEED:-1}" sh scripts/replica.sh 500

echo "== write smoke"
WRITE_SEED="${WRITE_SEED:-1}" sh scripts/write.sh 2000

echo "== open-loop smoke"
OPENLOOP_SEED="${OPENLOOP_SEED:-1}" sh scripts/openloop.sh 2000

echo "== campaign gate"
sh scripts/campaign.sh

echo "== bench smoke"
BENCH_SMOKE_OUT=$(mktemp)
BENCH_SUITE=server sh scripts/bench.sh 10x "$BENCH_SMOKE_OUT" >/dev/null
rm -f "$BENCH_SMOKE_OUT"

echo "== alloc gate (make bench-alloc)"
BENCH_SUITE=alloc sh scripts/bench.sh

echo "== decluster smoke"
go test -run '^$' -bench '^BenchmarkDecluster$/^minimax$/^N=1024$/^M=16$' \
    -benchtime 1x .

echo "check.sh: all green"
