#!/bin/sh
# Regenerates bench_output.txt by running every bench harness in order.
#
# Each bench runs with observability on (CLPP_OBS=1) and exports its
# artifacts into $OUT_DIR (default bench_artifacts/):
#   BENCH_<name>.trace.json    Chrome trace_event JSON (chrome://tracing)
#   BENCH_<name>.metrics.json  clpp::obs metrics snapshot
# and the google-benchmark harnesses (bench_micro_kernels, bench_serve)
# additionally write their reports next to them as BENCH_<name>.json. After
# the loop the per-bench artifacts are merged into $OUT_DIR/BENCH_summary.json,
# the single-file capture of the run (`clpp-report summarize`).
#
# BENCH_GLOB narrows the sweep to space-separated glob patterns (e.g.
# BENCH_GLOB='bench_micro_kernels bench_serve' for the CI perf job, which
# times a stable subset rather than every paper table).
cd "$(dirname "$0")"
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-bench_artifacts}"
BENCH_GLOB="${BENCH_GLOB:-bench_*}"
mkdir -p "$OUT_DIR"
for pattern in $BENCH_GLOB; do
for b in "$BUILD_DIR"/bench/$pattern; do
  [ -x "$b" ] || continue
  name=$(basename "$b")
  extra=""
  case "$name" in
    bench_micro_kernels|bench_serve|bench_analysis)
      extra="--benchmark_out=$OUT_DIR/BENCH_${name}.json --benchmark_out_format=json"
      ;;
  esac
  echo "########## $b ##########"
  CLPP_OBS=1 \
  CLPP_TRACE_OUT="$OUT_DIR/BENCH_${name}.trace.json" \
  CLPP_METRICS_OUT="$OUT_DIR/BENCH_${name}.metrics.json" \
  "$b" $extra
  echo
done
done

# When the serve bench ran, also capture a loadgen stats artifact
# (clpp.serve_loadgen.v1: throughput + client/server latency percentiles +
# queue-wait vs compute split). `clpp-report diff` ignores its shape; it is the
# input scripts/check_slo.sh evaluates against slo/budgets.json.
if [ -f "$OUT_DIR/BENCH_bench_serve.json" ] && [ -x "$BUILD_DIR/examples/clpp-serve" ]; then
  echo "########## clpp-serve --loadgen ##########"
  "$BUILD_DIR/examples/clpp-serve" --random-model --no-analysis --no-compar \
    --loadgen 128 --stats-out "$OUT_DIR/BENCH_serve_loadgen.stats.json"
  echo
fi

if [ -x "$BUILD_DIR/examples/clpp-report" ]; then
  "$BUILD_DIR/examples/clpp-report" summarize "$OUT_DIR"
fi
