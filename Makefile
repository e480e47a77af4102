# Development targets. `make check` is the full local gate (see
# scripts/check.sh); `make test` is the quick tier-1 pass.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test race race20 alloc check fmt vet fuzz bench loc golden clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The lock-free tables' and the disk queue's race tests, twenty times each:
# a growth or fencing race shows only on some interleavings.
race20:
	$(GO) test -race -count=20 -run '^(TestPlacementTableGrowth|TestPlacementTableGrowsUnderReaders)$$' ./internal/store
	$(GO) test -race -count=20 -run '^(TestInvalidateRacingLeader|TestResidentNeverReturnsInvalidatedArena|TestByteBoundUnderRandomOps)$$' ./internal/cache
	$(GO) test -race -count=20 -run '^TestQueryContendsWithWorkerForItsDisk$$' ./internal/server

# The allocation budgets, without the race detector: their files are built out
# under -race, where sync.Pool drops what it holds and allocation is
# instrumented. The server's per-query budgets, the grid file build's bytes
# per record, which must not climb with the record count, and the objects
# Open and Write allocate per live bucket.
alloc:
	$(GO) test -run '^(TestAllocBudget|TestOversizedRangeAllocation|TestScanReservesOnce)$$' -count=1 ./internal/server
	$(GO) test -run '^TestBuildAllocatesLinearly$$' -count=1 ./internal/gridfile
	$(GO) test -run '^(TestOpenAllocationBudget|TestWriteAllocationBudget)$$' -count=1 ./internal/store

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDegradedCodec -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzBatchFraming -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/gridfile
	$(GO) test -run='^$$' -fuzz=FuzzCountSplit -fuzztime=$(FUZZTIME) ./internal/gridfile
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store

check:
	sh scripts/check.sh $(FUZZTIME)

# Every Go benchmark once: a smoke pass that they still run, no numbers kept.
# The benchmark of record is the repo benchmark (bench/, BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# How much there is: non-test Go lines outside bench/ per package directory,
# the three largest of those files (where the next split would go), the
# exported field counts of the two option structs, and the shell scripts.
# A deletion PR records the before/after of this in CHANGES.md.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} +
loc:
	@$(LOC_FILES) | \
	  awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	       END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@$(LOC_FILES) | awk '$$2 != "total"' | sort -rn | head -3
	@for t in Config ClientConfig; do \
	  printf '%7d exported fields in server.%s\n' \
	    "$$($(GO) doc ./internal/server $$t | grep -c '^	[A-Z][A-Za-z0-9]* ')" $$t; \
	done
	@wc -l scripts/*.sh

# The reproduction's golden: every experiment's tables at the scale the tests
# run (internal/experiments testOptions), as gridbench prints them.
# TestRunAllExperimentsProduceTables compares bytes; on a clean tree this
# leaves `git status` empty, and after a change its diff is what moved.
golden:
	$(GO) run ./cmd/gridbench -exp all -seed 7 -queries 80 -scale 0.08 -disks 4,16,32 > internal/experiments/testdata/results_test_scale.txt

clean:
	$(GO) clean ./...
