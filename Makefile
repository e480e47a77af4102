# Development targets. `make check` is the full local gate (see
# scripts/check.sh); `make test` is the quick tier-1 pass.

GO ?= go
FUZZTIME ?= 5s
BENCHTIME ?= 2000x

.PHONY: all build test race check fmt vet fuzz chaos replica write trace campaign bench bench-alloc bench-open bench-decluster bench-all loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDegradedCodec -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/gridfile
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/store

# Deterministic fault-injection smoke: bench run under the chaos profile
# must finish with zero errors and nonzero degraded answers; the replicated
# phase must finish with zero degraded answers and nonzero failovers.
chaos:
	sh scripts/chaos.sh

# Deterministic replication smoke: r=2 layout with one disk hard-killed must
# serve every query completely (0 errors, 0 degraded, failovers > 0).
replica:
	sh scripts/replica.sh

# Online-write durability smoke: ingest at r=2 with one disk's page writes
# killed, crash without a checkpoint, replay the journals; zero lost acks,
# bucket splits observed, scrub clean.
write:
	sh scripts/write.sh

# Observability smoke: traced bench run must emit a complete per-stage
# breakdown in the bench JSON and one slow-query log line per query.
trace:
	sh scripts/trace.sh

# Scenario-campaign regression gate: the deterministic fault × scheme ×
# workload × replication matrix must reproduce byte-identically and match
# the committed CAMPAIGN.json baseline exactly.
campaign:
	sh scripts/campaign.sh

check:
	sh scripts/check.sh $(FUZZTIME)

# The serving-path suite: server throughput (baseline vs tuned vs pipelined),
# the open-loop offered-vs-achieved rows, plus the translation
# micro-benchmarks, parsed into BENCH_server.json.
bench:
	sh scripts/bench.sh $(BENCHTIME)

# Allocation regression gate: the tuned and tuned-pipelined throughput rows
# with -benchmem, checked against the committed allocs/op budget (see
# ALLOC_BUDGET in scripts/bench.sh).
bench-alloc:
	BENCH_SUITE=alloc sh scripts/bench.sh $(BENCHTIME)

# Open-loop load smoke: drive a fixed offered rate on a deterministic Poisson
# schedule; the server must sustain it (0 errors, achieved >= 95% of offered)
# with latency measured from intended send times.
bench-open:
	sh scripts/openloop.sh $(OPENLOOP_RATE)

OPENLOOP_RATE ?= 2000

# The build-path suite: BenchmarkDecluster serial vs parallel, parsed into
# BENCH_decluster.json. One iteration per variant by default (the N=16k
# serial points dominate the runtime); override with DECL_BENCHTIME.
DECL_BENCHTIME ?= 1x
bench-decluster:
	BENCH_SUITE=decluster sh scripts/bench.sh $(DECL_BENCHTIME)

# Everything, one iteration each: a smoke pass over the full benchmark set.
bench-all:
	$(GO) test -bench=. -benchtime=1x .

# How much there is: non-test Go lines outside bench/ per package directory,
# and the exported field counts of the two option structs. A deletion PR
# records the before/after of this in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} + | \
	  awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	       END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@for t in Config ClientConfig; do \
	  printf '%7d exported fields in server.%s\n' \
	    "$$($(GO) doc ./internal/server $$t | grep -c '^	[A-Z][A-Za-z0-9]* ')" $$t; \
	done

clean:
	$(GO) clean ./...
