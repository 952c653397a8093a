#!/usr/bin/env sh
# bench_snapshot.sh [mathcore|corpus|fleet|drift] — snapshot a benchmark
# family into a JSON file at the repository root: one JSON object mapping
# benchmark name -> { "ns_per_op": ..., "allocs_per_op": ... } plus any
# custom metrics the benchmark reports ("sessions_per_sec", "hit_rate",
# "sla_violations", "drift_events", "max_adapt_iters").
#
# Targets:
#   mathcore (default)  Cholesky, GP-predict, acquisition and meta-weight
#                       kernels plus the batched-inference benchmarks
#                       (PredictBatch, OptimizeAcqBatched, the narrow-block
#                       CEIBatch widths against the point-wise CEI
#                       reference, and the ranking loss)
#                       -> BENCH_mathcore.json
#   gpscale             BenchmarkGPFitLongHistory: exact vs subset-of-data
#                       sparse model update at n in {1000, 2000}, merged
#                       line-wise into BENCH_mathcore.json (other entries
#                       untouched). The committed snapshot is the
#                       acceptance record for the sparse-GP gate
#                       (sparse/n=2000 <= 20% of exact/n=2000); run
#                       `scripts/benchcheck -gpscale` against it to
#                       re-verify.
#   corpus              BenchmarkMetaIteration: shortlisted corpus path vs
#                       all-learners baseline at N in {34, 100, 1000, 4000}
#                       -> BENCH_corpus.json. The committed snapshot is the
#                       acceptance record for the sublinear-meta gate
#                       (corpus/N=1000 <= 25% of baseline/N=1000); run
#                       scripts/benchcheck against it to re-verify.
#   fleet               BenchmarkFleetSessions: 8 replay-bound sessions over
#                       one shared corpus at 1, 4 and 8 workers
#                       -> BENCH_fleet.json. The committed snapshot is the
#                       acceptance record for the fleet-scaling gate
#                       (>= 3x session throughput at 8 workers vs 1, shared
#                       fit-cache hit rate > 50%); run
#                       `scripts/benchcheck -fleet` against it to re-verify.
#   drift               BenchmarkDriftSimulatedDay: the diurnal and gradual
#                       ramp simulated 24h days with the drift-aware tuner
#                       vs the stationary baseline -> BENCH_drift.json. The
#                       committed snapshot is the acceptance record for the
#                       drift gate (diurnal: aware strictly fewer
#                       post-warmup SLA violations than stationary, at
#                       least one drift event, bounded re-convergence;
#                       ramp: aware no more violations than stationary);
#                       run `scripts/benchcheck -drift` against it to
#                       re-verify.
#
# Environment:
#   BENCHTIME=2s   per-benchmark budget (any go test -benchtime value)
#   COUNT=1        repetitions; with COUNT>1 the last measurement wins

set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-1}"
TARGET="${1:-mathcore}"

case "$TARGET" in
mathcore)
    OUT="BENCH_mathcore.json"
    PATTERN='^(BenchmarkCholAppend|BenchmarkCholFullRefactor|BenchmarkGPFitIncremental|BenchmarkGPFitLongHistory|BenchmarkGPPredict|BenchmarkGPPredictNoAlloc|BenchmarkPredictBatch|BenchmarkCEI|BenchmarkOptimizeAcqParallel|BenchmarkOptimizeAcqBatched|BenchmarkCEIBatchNarrow|BenchmarkRankLoss|BenchmarkDynamicWeights)$'
    ;;
gpscale)
    OUT="BENCH_mathcore.json"
    MERGE=1
    PATTERN='^BenchmarkGPFitLongHistory$'
    ;;
corpus)
    OUT="BENCH_corpus.json"
    PATTERN='^BenchmarkMetaIteration$'
    ;;
fleet)
    OUT="BENCH_fleet.json"
    PATTERN='^BenchmarkFleetSessions$'
    ;;
drift)
    OUT="BENCH_drift.json"
    PATTERN='^BenchmarkDriftSimulatedDay$'
    ;;
*)
    echo "usage: $0 [mathcore|gpscale|corpus|fleet|drift]" >&2
    exit 2
    ;;
esac

MERGE="${MERGE:-0}"
raw="$(mktemp)"
new="$(mktemp)"
trap 'rm -f "$raw" "$new"' EXIT

echo "==> go test -bench $TARGET (benchtime=$BENCHTIME, count=$COUNT)"
go test -run '^$' -bench "$PATTERN" -benchmem \
    -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw"

# Parse `BenchmarkName-N  iters  X ns/op [ Y B/op  Z allocs/op ]` lines into
# a JSON object. Sub-benchmark names (Benchmark/sub/N=k) are kept whole, only
# the trailing -GOMAXPROCS suffix is stripped. Benchmarks without -benchmem
# columns report allocs as null. Custom b.ReportMetric units (sessions/sec,
# hit_rate) are carried through when present.
awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""
    allocs = "null"
    sps = ""
    hr = ""
    viol = ""
    devents = ""
    adapt = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")           ns = $(i - 1)
        if ($i == "allocs/op")       allocs = $(i - 1)
        if ($i == "sessions/sec")    sps = $(i - 1)
        if ($i == "hit_rate")        hr = $(i - 1)
        if ($i == "sla_violations")  viol = $(i - 1)
        if ($i == "drift_events")    devents = $(i - 1)
        if ($i == "max_adapt_iters") adapt = $(i - 1)
    }
    if (ns != "") {
        v = sprintf("{\"ns_per_op\": %s, \"allocs_per_op\": %s", ns, allocs)
        if (sps != "")     v = v sprintf(", \"sessions_per_sec\": %s", sps)
        if (hr != "")      v = v sprintf(", \"hit_rate\": %s", hr)
        if (viol != "")    v = v sprintf(", \"sla_violations\": %s", viol)
        if (devents != "") v = v sprintf(", \"drift_events\": %s", devents)
        if (adapt != "")   v = v sprintf(", \"max_adapt_iters\": %s", adapt)
        vals[name] = v "}"
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
}
END {
    printf "{\n"
    for (i = 1; i <= n; i++) {
        printf "  \"%s\": %s%s\n", order[i], vals[order[i]], (i < n ? "," : "")
    }
    printf "}\n"
}
' "$raw" > "$new"

if [ "$MERGE" = 1 ] && [ -f "$OUT" ]; then
    # Line-wise merge into the existing snapshot: entries keep the committed
    # file's order, re-measured names are replaced in place, names only in
    # the new run are appended — so a gpscale refresh never clobbers the
    # other mathcore numbers.
    merged="$(mktemp)"
    awk '
    /^  "/ {
        line = $0
        sub(/,$/, "", line)
        name = line
        sub(/^  "/, "", name)
        sub(/".*/, "", name)
        val = line
        sub(/^[^:]*: /, "", val)
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        vals[name] = val
    }
    END {
        printf "{\n"
        for (i = 1; i <= n; i++) {
            printf "  \"%s\": %s%s\n", order[i], vals[order[i]], (i < n ? "," : "")
        }
        printf "}\n"
    }
    ' "$OUT" "$new" > "$merged"
    mv "$merged" "$OUT"
else
    cp "$new" "$OUT"
fi

echo "==> wrote $OUT"
cat "$OUT"
