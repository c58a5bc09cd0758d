# Tier-1 gate: everything a PR must keep green.
#   make check      build + vet + lint + tests with the race detector
#   make lint       project-specific static analysis (cmd/crhlint)
#   make test       fast test run (no race detector)
#   make bench      all benchmarks
#   make benchjson  machine-readable BENCH_<id>.json experiment records
#   make racehammer concurrency hammer tests (core + obs + server +
#                   crhload), repeated
#   make fuzz       short fuzz pass over every fuzz target (committed
#                   corpora always run as part of `make test` already)
#   make walcheck   kill -9 a crhd subprocess mid-ingest and prove the
#                   recovered state is bit-identical to an uncrashed replay
#   make loadcheck  boot crhd and drive a short seeded crhload smoke
#                   against it (zero errors, stage histograms populated)
#   make crhd       build the truth-discovery server binary
#   make crhload    build the load-generator binary

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet lint test race bench benchjson racehammer fuzz walcheck loadcheck crhd crhload clean

check: build vet lint race racehammer

lint:
	$(GO) run ./cmd/crhlint ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

benchjson:
	$(GO) run ./cmd/crhbench -exp all -scale small -json .
	$(GO) run ./cmd/crhbench -workers 1,2,4,8 -scale small -json .
	$(GO) run ./cmd/crhbench -ingest off,interval,batch -json .

racehammer:
	$(GO) test -race -count=2 -run 'Concurrent|Hammer' ./internal/core/... ./internal/obs/... ./internal/server/... ./cmd/crhload/

# Go runs one -fuzz pattern per package invocation, so each target gets
# its own line.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/data/
	$(GO) test -fuzz=FuzzRunSmall -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz=FuzzEncodeResolveResponse -fuzztime=$(FUZZTIME) ./internal/server/

walcheck:
	$(GO) run ./cmd/walcheck

loadcheck:
	sh scripts/loadcheck.sh

crhd:
	$(GO) build -o bin/crhd ./cmd/crhd

crhload:
	$(GO) build -o bin/crhload ./cmd/crhload

clean:
	rm -rf bin
