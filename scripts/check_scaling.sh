#!/bin/sh
# Scaling + cache-effectiveness gate for the sharded front end
# (DESIGN.md §13): run bench/shard_scaling_bench — a closed-loop,
# multi-process load generator that forks a fresh listener per point —
# across 1/2/4-shard distinct-request mixes and an 80%-duplicate mix with
# the result cache on and off, then judge the clpp.shard_scaling.v1
# artifact against the "scaling" block of slo/budgets.json:
#
#   1. Near-linear distinct-mix scaling. per_core_speedup normalizes the
#      curve at min(shards, ncores) — shard processes cannot scale past
#      the runner's cores, and the gate must not pretend they can.
#   2. Cache effectiveness: >= 3x throughput at 80% duplicates vs the
#      same point with the cache off, with a hit-rate floor.
#   3. Hard zeros: no lost requests, and bitwise-identical verdicts for
#      every snippet across cached and uncached serving — the cache may
#      only ever change latency, never an answer. The bench itself exits
#      nonzero on either violation; `clpp-report slo` re-checks both.
#
# OMP_NUM_THREADS is pinned to 1 so per-shard OpenMP inference does not
# compete with the shard processes for cores: shards are the scale-out
# axis under test.
#
#   $ scripts/check_scaling.sh
#   $ WARN_ONLY=1 scripts/check_scaling.sh   # report violations but exit 0
#   $ POINTS="1 2" REQUESTS=48 scripts/check_scaling.sh
#
# Artifacts land in $OUT_DIR (default scaling_artifacts/):
#   SCALING_bench.stats.json   clpp.shard_scaling.v1 (per-point throughput
#                              + latency percentiles, scaling + cache_win)
#   SCALING_verdict.json       clpp-report slo --json verdict
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-perf}"
OUT_DIR="${OUT_DIR:-scaling_artifacts}"
POINTS="${POINTS:-1 2 4}"
REQUESTS="${REQUESTS:-96}"
DUP_REQUESTS="${DUP_REQUESTS:-256}"
CONCURRENCY="${CONCURRENCY:-8}"
DUP_RATE="${DUP_RATE:-0.8}"
BUDGET="${BUDGET:-slo/budgets.json}"
WARN_ONLY="${WARN_ONLY:-}"
export OMP_NUM_THREADS=1

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target shard_scaling_bench clpp-report >/dev/null

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

echo "== scaling bench: points [$POINTS], dup rate $DUP_RATE =="
BENCH_RC=0
"$BUILD_DIR/bench/shard_scaling_bench" \
  --points "$POINTS" --requests "$REQUESTS" --dup-requests "$DUP_REQUESTS" \
  --concurrency "$CONCURRENCY" --dup-rate "$DUP_RATE" \
  --out "$OUT_DIR/SCALING_bench.stats.json" || BENCH_RC=$?

if [ "$BENCH_RC" -ne 0 ]; then
  echo "check_scaling: bench lost requests or saw verdict drift (exit $BENCH_RC)" >&2
  [ -n "$WARN_ONLY" ] || exit 1
fi

echo "== budgets ($BUDGET, scaling block) =="
"$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" --json \
  --stats "$OUT_DIR/SCALING_bench.stats.json" \
  > "$OUT_DIR/SCALING_verdict.json" || true

SLO_RC=0
"$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" \
  --stats "$OUT_DIR/SCALING_bench.stats.json" || SLO_RC=$?

if [ "$SLO_RC" -eq 0 ]; then
  echo "check_scaling: scaling curve, cache win, and verdict identity all green"
else
  if [ -n "$WARN_ONLY" ]; then
    echo "check_scaling: budget violations (WARN_ONLY set; not failing)" >&2
  else
    echo "check_scaling: budget violations" >&2
    echo "check_scaling: elapsed $(($(date +%s) - START_S))s"
    exit 1
  fi
fi
echo "check_scaling: elapsed $(($(date +%s) - START_S))s"
