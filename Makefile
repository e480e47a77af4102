# Development targets. `make check` is the full local gate (see
# scripts/check.sh); `make test` is the quick tier-1 pass.

GO ?= go
FUZZTIME ?= 5s
BENCHTIME ?= 2000x

.PHONY: all build test race check fmt vet fuzz bench bench-alloc bench-decluster bench-all loc clean

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
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store

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

# The build-path suite: BenchmarkDecluster at one worker vs GOMAXPROCS
# workers, parsed into BENCH_decluster.json. One iteration per variant by
# default (the N=16k points dominate the runtime); override with
# DECL_BENCHTIME.
DECL_BENCHTIME ?= 1x
bench-decluster:
	BENCH_SUITE=decluster sh scripts/bench.sh $(DECL_BENCHTIME)

# Everything, one iteration each: a smoke pass over the full benchmark set.
bench-all:
	$(GO) test -bench=. -benchtime=1x .

# How much there is: non-test Go lines outside bench/ per package directory,
# the exported field counts of the two option structs, and the shell scripts.
# A deletion PR records the before/after of this in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} + | \
	  awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	       END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@for t in Config ClientConfig; do \
	  printf '%7d exported fields in server.%s\n' \
	    "$$($(GO) doc ./internal/server $$t | grep -c '^	[A-Z][A-Za-z0-9]* ')" $$t; \
	done
	@wc -l scripts/*.sh

clean:
	$(GO) clean ./...
