#!/bin/sh
# ci.sh — the full gate a change must pass before merging.
#
# Runs, in order:
#   1. make check      build + vet + crhlint + tests under the race
#                      detector (incl. the obs/server/crhload concurrency
#                      hammers)
#   2. make lint       redundant with check, but prints lint findings on
#                      their own so a lint failure is easy to spot in logs
#   3. make racehammer the core/obs/server/crhload concurrency hammers
#                      again, on their own so a data race is attributed in
#                      the logs
#   4. equivalence     the parallel-vs-sequential bit-identity suite on
#                      its own (docs/PARALLEL.md's contract), so a
#                      determinism regression is named in the logs
#   5. make walcheck   SIGKILL a crhd subprocess mid-ingest and verify the
#                      restarted server recovers bit-identical state
#                      (docs/DURABILITY.md's contract)
#   6. make fuzz       a short coverage-guided fuzz pass over the decoder,
#                      the live TSV stream, the solver, the WAL record
#                      codec and the resolve encoder (the committed
#                      corpora already ran as plain tests inside make check)
#   7. make loadcheck  boot a real crhd and drive a seeded crhload smoke
#                      against it: zero request errors and populated
#                      per-stage latency histograms (docs/LOAD.md)
#   8. allocation pins the AllocsPerRun pins on the resolve encode /
#                      cached-bytes serve paths and on ingest's value
#                      decode (a categorical batch allocates no more
#                      than a continuous one: one decode per value),
#                      the solver's
#                      zero-allocation-per-iteration contract (default
#                      config, every built-in scheme, the Huber and
#                      Bregman losses), the weighted median's (fallbacks
#                      included) and every weight scheme's, the losses'
#                      scratch and scoring contract (results independent
#                      of scratch contents, every entry-wide Deviations
#                      slot bit-equal to the per-claim formula, inputs
#                      unmodified: the solver passes its columns
#                      uncopied), the solver's claim scorings per run
#                      (I+1 for I iterations, one Deviations call per
#                      entry per pass), I-CRH's one scan per chunk (one
#                      categorical Truth call per resolved entry, one
#                      Deviations call per entry, one deviation per
#                      claim), plus the
#                      memory pins (a finished multi-worker run keeps no
#                      Prepared reachable, nor does a pool offer no
#                      worker took; a built Dataset owns its
#                      category dictionaries; crhd keeps only the
#                      current version's resolve results, not one per
#                      version ever resolved; the live TSV stream keeps
#                      only open windows' object timestamps), the
#                      incremental Build's allocations (a Build after a
#                      few new rows sorts only those rows: no scratch
#                      per logged row), Pool.Do's worker slots (each
#                      below the budget, never two running tasks in
#                      one: the solver's per-worker scratch relies on
#                      it) and the live stream's rejection of a record
#                      from a closed window, on their own so a
#                      regression in any of these paths is named in
#                      the logs
#                      (the golden byte-equality suite already ran inside
#                      make check)
#   9. perfbench       vet and unit tests of the benchmark program, its
#                      own Go module, which ./... above does not reach
#  10. coverage floor  go test -coverprofile over the solver, data,
#                      loss, scheme, statistics, server, streaming and
#                      WAL layers; fails if combined statement coverage
#                      of internal/{core,data,loss,reg,stats,server,
#                      stream,wal} falls below the floor, and archives
#                      the profile under results/coverage.out
#  11. lint self-check every analyzer crhlint -list reports must have a
#                      golden testdata package, and the full -json report
#                      (suppressed findings included) is archived under
#                      results/lint-report.json as the audit record
#  12. gofmt -l        fails if any tracked Go file is unformatted
#
# Exits non-zero on the first failure.

set -eu

cd "$(dirname "$0")/.."

echo "==> make check"
make check

echo "==> make lint"
make lint

echo "==> make racehammer"
make racehammer

echo "==> equivalence suite"
go test -run 'TestEquivalence|TestMetamorphic' -count=1 ./internal/core/

echo "==> walcheck (crash recovery)"
make walcheck

echo "==> fuzz (short)"
make fuzz FUZZTIME=5s

echo "==> loadcheck (serve-path smoke)"
make loadcheck

echo "==> allocation and memory pins (encode, ingest value decode, result retention, solver iterations and passes, I-CRH chunk scan, live stream windows, weighted median, weight schemes, loss scratch and scoring contract, run retention, pool worker slots, dictionary copies, incremental Build)"
go test -run 'TestEncodeAllocs|TestValidateBatchAllocs|TestSupersededResultsDropped' -count=1 ./internal/server/
go test -run 'TestSolverIterationAllocFree|TestSolverRunReusesPrepared|TestParallelRunReleasesPrepared|TestPoolReleasesUntakenOffers|TestRunScoringPasses|TestPoolDoSlots' -count=1 ./internal/core/
go test -run 'TestProcessScansChunkOnce|TestTSVStreamRejectsClosedWindowRecord|TestTSVStreamForgetsClosedWindows' -count=1 ./internal/stream/
go test -run 'TestWeightedMedianBufAllocFree' -count=1 ./internal/stats/
go test -run 'TestWeightsAllocFree' -count=1 ./internal/reg/
go test -run 'TestContinuousKernelBitIdentity|TestCategoricalKernelBitIdentity|TestContinuousDeviationsMatchFormula|TestEnsembleDeviationsMatchMembers|TestCategoricalDeviationsMatchFormula' -count=1 ./internal/loss/
go test -run 'TestBuildCopiesCategoryDictionaries|TestIncrementalBuildAllocs' -count=1 ./internal/data/

echo "==> perfbench (vet + unit tests)"
go -C perfbench vet ./... && go -C perfbench test ./...

echo "==> coverage floor (solver, data, loss, scheme, statistics, server, streaming and WAL layers)"
mkdir -p results
go test -count=1 -coverprofile=results/coverage.out \
	-coverpkg=./internal/core/...,./internal/data/...,./internal/loss/...,./internal/reg/...,./internal/stats/...,./internal/server/...,./internal/stream/...,./internal/wal/... \
	./internal/core/... ./internal/data/... ./internal/loss/... ./internal/reg/... ./internal/stats/... ./internal/server/... ./internal/stream/... ./internal/wal/... > /dev/null
total=$(go tool cover -func=results/coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
floor=85.0
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
	echo "coverage floor: ${total}% < ${floor}% over internal/{core,data,loss,reg,stats,server,stream,wal}" >&2
	exit 1
fi
echo "coverage floor: ${total}% >= ${floor}% (profile archived at results/coverage.out)"

echo "==> lint self-check (golden coverage + json report)"
missing=""
for name in $(go run ./cmd/crhlint -list | awk '{print $1}'); do
	if [ ! -d "internal/lint/testdata/src/$name" ]; then
		missing="$missing $name"
	fi
done
if [ -n "$missing" ]; then
	echo "lint self-check: analyzers without a golden testdata package:$missing" >&2
	exit 1
fi
mkdir -p results
go run ./cmd/crhlint -json ./... > results/lint-report.json
echo "lint self-check: report archived at results/lint-report.json"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "ci: all gates passed"
