#!/bin/sh
# check.sh — the full local gate. Everything a PR must pass, in order of
# increasing cost:
#
#   1. gofmt       formatting drift
#   2. go vet      static misuse
#   3. go build    every package compiles
#   4. go test     full suite under the race detector. The serving gates are
#                  tests in it. In cmd/gridserver each starts a server on a
#                  layout (server.OpenDir) and drives `bench -addr` at it:
#                  chaos, replica failover and stage tracing
#                  (TestBenchChaosMode, TestBenchStoreMode) and open-loop
#                  load (TestBenchOpenLoopMode); beside them online-write
#                  durability (TestIngestCrashReplay). Served writes and
#                  their journal counters are internal/server
#                  TestServerOnlineWrites. So is the scenario campaign
#                  against the committed CAMPAIGN.json (internal/campaign
#                  TestDefaultMatrixMatchesCommittedBaseline). So are the
#                  count budgets that need no quiet machine: the pruned
#                  declustering sweeps' kernel evaluations (internal/core
#                  TestPrunedWorkBudget: its Minimax, ResidualAssign and
#                  NearestCompanions rows). And the guard that keeps internal/*
#                  cut to what is read: the root package's
#                  TestNoTestOnlyExports fails on an exported func or method
#                  that only tests call (allow-list with reasons in
#                  exports_test.go), and beside it
#                  TestExecutorKnowsNoSocketNoEnvelope fails when
#                  internal/server's exec.go or fetch.go imports net, bufio
#                  or net/http, or names the wire envelope, and
#                  TestLayoutHasOneWriter fails when internal/store puts a
#                  layout on disk any other way than rewriteBucket and
#                  checkpointLocked (os.WriteFile anywhere, os.Rename outside
#                  atomicWriteFile, encodePage outside rewriteBucket,
#                  "layout.grd" — the checkpoint file — named by other than
#                  Open, the committer and the builder's unlink, or a disk
#                  file named by other than the checkpoint reader, which
#                  opens them read-write, and the builder), and
#                  TestInjectedFaultIsAFailedRead fails when a non-test Go
#                  file outside internal/fault names fault.ErrInjected
#                  (internal/store's readSpans excepted: it wraps a torn
#                  read's error), so that no read path tells an injected
#                  failure from a real one, and
#                  TestLabModelsAreSequential fails when a non-test file of
#                  internal/sim, internal/parallel or internal/diskmodel has
#                  a go statement or a channel type, or imports sync or
#                  internal/fault. And the paper reproduction's gate:
#                  internal/experiments TestRunAllExperimentsProduceTables
#                  compares every table gridbench prints at test scale, byte
#                  for byte, with testdata/results_test_scale.txt
#                  (`make golden` regenerates it)
#   5. race x20    the lock-free tables' race tests again, twenty times each
#                  (`make race20`, which lists them), because a growth or
#                  fencing race shows only on some interleavings:
#                  internal/store TestPlacementTableGrowth
#                  (lookups against two writers growing the placement table)
#                  and TestPlacementTableGrowsUnderReaders (reads against a
#                  writer that grows it and drops merged buckets' slots, the
#                  table matching the grid's live buckets after each write), and
#                  internal/cache TestInvalidateRacingLeader (loads racing
#                  a write's invalidation: none begun before it stays
#                  cached), TestResidentNeverReturnsInvalidatedArena and
#                  TestByteBoundUnderRandomOps; and the disk queue's rules,
#                  internal/server TestQueryContendsWithWorkerForItsDisk
#                  (queries reading their own batches against the disk
#                  workers: one read per disk at a time, in arrival order)
#   6. fuzz smoke  short runs of the fuzz targets (`make fuzz`, which lists
#                  them): wire protocol
#                  (FuzzCodec, FuzzDegradedCodec), frames concatenated into
#                  one write (FuzzBatchFraming), grid-file persistence
#                  (FuzzRead), the range count's split of a box's buckets
#                  into border and inside (FuzzCountSplit), a layout's
#                  checkpoint file, layout.grd, seeded with the writer's file
#                  and every row of TestOpenRefusals (FuzzManifest), and the
#                  write-ahead journal reader
#                  (FuzzJournalReplay)
#   7. alloc tests the allocation budgets and the grid file build's bytes
#                  per record without the race detector (`make alloc`, which
#                  lists them; their files are built out under -race:
#                  sync.Pool drops there and allocation is instrumented)
#   8. benchmarks  every Go benchmark once (`make bench`): their b.Fatal
#                  checks — the reply verb of BenchmarkExecRange,
#                  BenchmarkExecCount and their Cold forms,
#                  BenchmarkCheckpoint's, BenchmarkOpen's and
#                  BenchmarkDecluster's and BenchmarkSetupPipeline's
#                  errors — run nowhere else
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
# The output streams as it comes and is kept, so that when a package fails
# the lines naming what failed can be repeated after the last package's
# output instead of scrolling away above it.
TEST_OUT=$(mktemp)
trap 'rm -f "$TEST_OUT"' EXIT
{ go test -race ./... 2>&1 || echo "check.sh: go test exited $?"; } | tee "$TEST_OUT"
if grep -q '^check.sh: go test exited' "$TEST_OUT"; then
    echo "== go test -race failed; the failures again:" >&2
    grep -E '^[[:space:]]*--- FAIL|^FAIL|^panic:' "$TEST_OUT" >&2 || true
    exit 1
fi

echo "== race x20"
make race20

echo "== fuzz smoke ($FUZZTIME each)"
make fuzz FUZZTIME="$FUZZTIME"

echo "== alloc tests"
make alloc

echo "== benchmarks (once each)"
make bench

echo "check.sh: all green"
