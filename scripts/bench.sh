#!/bin/sh
# bench.sh — the tracked benchmark suites, parsed into JSON so runs can be
# diffed across commits. Two suites:
#
#   server     (default) the serving path: end-to-end server throughput
#              (cache-less baseline vs tuned, i.e. with the bucket cache;
#              pipelined variant), the open-loop rows (offered vs achieved qps and
#              intended-send-time percentiles per scheme and replication
#              factor) plus the grid-file translation micro-benchmarks
#              → BENCH_server.json
#   decluster  the build path: BenchmarkDecluster, the pairwise-weight engine
#              at one worker vs at GOMAXPROCS workers across grid and disk
#              sizes → BENCH_decluster.json
#   alloc      regression gate only: the tuned and tuned-pipelined throughput
#              rows with -benchmem, checked against the committed allocs/op
#              budget (no JSON output)
#
# The server suite additionally enforces two regression gates whenever the
# benchtime is large enough to be meaningful (>= 1000 iterations): every
# tuned* row must stay within the allocs/op budget, and tuned-pipelined must
# keep pace with plain tuned on queries/s (best ratio across schemes, with
# tolerance for the box's run-to-run noise — a real serving-path regression
# tanks every scheme at once).
#
# Usage: [BENCH_SUITE=server|decluster|alloc|all] scripts/bench.sh [benchtime] [output.json]
#   benchtime    go test -benchtime value (default: 2000x server/alloc,
#                1x decluster)
#   output.json  parsed results (default: BENCH_<suite>.json)
# With BENCH_SUITE=all both suites run with their own defaults and the
# positional arguments are ignored.
set -eu
cd "$(dirname "$0")/.."

SUITE="${BENCH_SUITE:-server}"

# parse_bench raw.txt benchtime out.json — benchmark lines are
# "Name-P iters  v1 unit1  v2 unit2 ...": fold each into a JSON object keyed
# by unit (ns/op, queries/s, p50-ms, cache-hit-rate, buckets, ...).
parse_bench() {
    awk -v benchtime="$2" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    printf "%s    {\"name\": \"%s\", \"iters\": %s, \"metrics\": {", sep, name, $2
    msep = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        printf "%s\"%s\": %s", msep, $(i + 1), $i
        msep = ", "
    }
    printf "}}"
    sep = ",\n"
}
END {
    print ""
    print "  ]"
    print "}"
}
BEGIN {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"benchmarks\": ["
    sep = ""
}' "$1" > "$3"
    echo "bench.sh: wrote $3"
}

# ALLOC_BUDGET is the committed per-query allocation budget for the tuned
# serving path (covers the tuned, tuned-r2, and tuned-pipelined rows).
# Update it deliberately, alongside the BENCH_server.json it was recorded
# with — a silent climb here is exactly the regression the gate exists to
# catch.
ALLOC_BUDGET=9

# alloc_gate raw.txt — fail if any tuned* throughput row exceeds ALLOC_BUDGET
# allocs/op.
alloc_gate() {
    awk -v budget="$ALLOC_BUDGET" '
/^BenchmarkServerThroughput\/.*\/tuned/ {
    for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "allocs/op") {
        printf "bench.sh: %s: %d allocs/op (budget %d)\n", $1, $i, budget
        if ($i + 0 > budget) bad = 1
    }
}
END { exit bad }' "$1" || {
        echo "bench.sh: FAIL: tuned serving path over $ALLOC_BUDGET allocs/op" >&2
        exit 1
    }
}

# pipe_gate raw.txt — fail if tuned-pipelined falls behind plain tuned on
# queries/s. The comparison takes the best pipelined/tuned ratio across
# schemes and allows 20% tolerance: single-run qps on this box swings by
# that much between adjacent benchmarks, while the regression this guards
# against (per-request write syscalls and handoffs on the pipelined path)
# showed every scheme at ~0.6x or worse.
pipe_gate() {
    awk '
/^BenchmarkServerThroughput\// {
    cfg = $1; sub(/-[0-9]+$/, "", cfg)
    n = split(cfg, parts, "/")
    scheme = parts[2]; cfg = parts[n]
    q = 0
    for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "queries/s") q = $i
    if (cfg == "tuned") tuned[scheme] = q
    if (cfg == "tuned-pipelined") pipe[scheme] = q
}
END {
    best = 0
    for (s in pipe) if (tuned[s] > 0) {
        r = pipe[s] / tuned[s]
        printf "bench.sh: %s: tuned-pipelined/tuned qps ratio %.2f\n", s, r
        if (r > best) best = r
    }
    if (best == 0) {
        print "bench.sh: FAIL: no tuned/tuned-pipelined rows to compare" | "cat >&2"
        exit 1
    }
    if (best < 0.80) {
        printf "bench.sh: FAIL: tuned-pipelined trails tuned (best qps ratio %.2f < 0.80)\n", best | "cat >&2"
        exit 1
    }
}' "$1"
}

# gates_apply benchtime — regression gates only run on statistically
# meaningful iteration counts; smoke runs (e.g. check.sh at 10x) skip them.
gates_apply() {
    case "$1" in
    *x)
        n="${1%x}"
        case "$n" in
        '' | *[!0-9]*) return 1 ;;
        esac
        [ "$n" -ge 1000 ]
        ;;
    *) return 1 ;;
    esac
}

case "$SUITE" in
server)
    BENCHTIME="${1:-2000x}"
    OUT="${2:-BENCH_server.json}"
    TMP=$(mktemp)
    trap 'rm -f "$TMP"' EXIT
    echo "== go test -bench: server suite (benchtime $BENCHTIME)"
    go test -run '^$' -bench 'BenchmarkServerThroughput|BenchmarkServerOpenLoop' \
        -benchtime "$BENCHTIME" -benchmem . | tee "$TMP"
    go test -run '^$' -bench 'BenchmarkLookup$|BenchmarkBucketsInRange5Pct' \
        -benchtime "$BENCHTIME" -benchmem ./internal/gridfile | tee -a "$TMP"
    parse_bench "$TMP" "$BENCHTIME" "$OUT"
    if gates_apply "$BENCHTIME"; then
        alloc_gate "$TMP"
        pipe_gate "$TMP"
    else
        echo "bench.sh: benchtime $BENCHTIME below gate threshold; skipping alloc/qps gates"
    fi
    ;;
alloc)
    BENCHTIME="${1:-2000x}"
    TMP=$(mktemp)
    trap 'rm -f "$TMP"' EXIT
    echo "== go test -bench: alloc gate (benchtime $BENCHTIME)"
    go test -run '^$' -bench 'BenchmarkServerThroughput/minimax/(tuned$|tuned-pipelined$)' \
        -benchtime "$BENCHTIME" -benchmem . | tee "$TMP"
    alloc_gate "$TMP"
    ;;
decluster)
    BENCHTIME="${1:-1x}"
    OUT="${2:-BENCH_decluster.json}"
    TMP=$(mktemp)
    trap 'rm -f "$TMP"' EXIT
    echo "== go test -bench: decluster suite (benchtime $BENCHTIME)"
    go test -run '^$' -bench '^BenchmarkDecluster$' \
        -benchtime "$BENCHTIME" -timeout 60m . | tee "$TMP"
    parse_bench "$TMP" "$BENCHTIME" "$OUT"
    ;;
all)
    BENCH_SUITE=server sh "$0"
    BENCH_SUITE=decluster sh "$0"
    ;;
*)
    echo "bench.sh: unknown BENCH_SUITE \"$SUITE\" (server, decluster, all)" >&2
    exit 1
    ;;
esac
