#!/bin/sh
# SLO gate for the serve path: run the closed-loop load generator twice —
# once uninstrumented and once fully instrumented (CLPP_OBS=1 with a Chrome
# trace export) — and evaluate the resulting clpp.serve_loadgen.v1 artifacts
# against the declarative budgets in slo/budgets.json with `clpp-report slo`.
# The second run also proves the observability overhead budget: tracing on
# must keep throughput within `obs_overhead.max_fraction` (5%) of tracing
# off.
#
#   $ scripts/check_slo.sh
#   $ WARN_ONLY=1 scripts/check_slo.sh     # report violations but exit 0
#   $ REQUESTS=64 scripts/check_slo.sh     # quicker smoke run
#   $ QUALITY_ENFORCE=1 scripts/check_slo.sh   # quality budgets gate too
#
# Model-quality budgets (the "quality" block: ECE/drift/disagreement) are
# evaluated warn-only by default — set QUALITY_ENFORCE=1 to let them fail
# the gate. Independently, a drift canary re-runs the loadgen with the
# out-of-distribution snippet mix (clpp-serve --drift) and asserts the
# drift budget *does* trip on it, proving the tripwire is live.
#
# Artifacts land in $OUT_DIR (default slo_artifacts/):
#   SLO_serve.stats.json       loadgen report, CLPP_OBS off
#   SLO_serve_obs.stats.json   loadgen report, CLPP_OBS=1
#   SLO_serve_obs.trace.json   Chrome trace of the instrumented run (the
#                              flow-linked request lanes, chrome://tracing)
#   SLO_drift.stats.json       drift-canary loadgen report
#   SLO_verdict.json           clpp-report slo --json verdict document
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-perf}"
OUT_DIR="${OUT_DIR:-slo_artifacts}"
REQUESTS="${REQUESTS:-128}"
CONCURRENCY="${CONCURRENCY:-16}"
BUDGET="${BUDGET:-slo/budgets.json}"
WARN_ONLY="${WARN_ONLY:-}"
QUALITY_ENFORCE="${QUALITY_ENFORCE:-}"

QUALITY_FLAG="--quality-warn-only"
if [ -n "$QUALITY_ENFORCE" ]; then
  QUALITY_FLAG=""
fi

# SLO numbers must come from an optimized build; shares build-perf with
# check_perf.sh so a combined CI run configures it once.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target clpp-serve clpp-report >/dev/null

mkdir -p "$OUT_DIR"

echo "== loadgen, observability off =="
CLPP_OBS=0 "$BUILD_DIR/examples/clpp-serve" --random-model \
  --no-analysis --no-compar \
  --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
  --stats-out "$OUT_DIR/SLO_serve.stats.json"

echo "== loadgen, observability on (tracing + metrics) =="
CLPP_OBS=1 CLPP_TRACE_OUT="$OUT_DIR/SLO_serve_obs.trace.json" \
  "$BUILD_DIR/examples/clpp-serve" --random-model \
  --no-analysis --no-compar \
  --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
  --stats-out "$OUT_DIR/SLO_serve_obs.stats.json"

echo "== budgets ($BUDGET) =="
"$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" --json $QUALITY_FLAG \
  --stats "$OUT_DIR/SLO_serve.stats.json" \
  --obs-stats "$OUT_DIR/SLO_serve_obs.stats.json" \
  > "$OUT_DIR/SLO_verdict.json" || true

if "$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" $QUALITY_FLAG \
  --stats "$OUT_DIR/SLO_serve.stats.json" \
  --obs-stats "$OUT_DIR/SLO_serve_obs.stats.json"; then
  echo "check_slo: all budgets met"
else
  if [ -n "$WARN_ONLY" ]; then
    echo "check_slo: budget violations (WARN_ONLY set; not failing)" >&2
  else
    echo "check_slo: budget violations" >&2
    exit 1
  fi
fi

# Drift canary: an out-of-distribution snippet mix must trip the drift
# budget (enforced, no warn-only). This asserts the tripwire itself works —
# a gate that cannot fail is not a gate.
echo "== drift canary (expect quality.drift_score FAIL) =="
CLPP_OBS=0 "$BUILD_DIR/examples/clpp-serve" --random-model \
  --no-analysis --no-compar --drift \
  --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
  --stats-out "$OUT_DIR/SLO_drift.stats.json"
if "$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" \
  --stats "$OUT_DIR/SLO_drift.stats.json"; then
  echo "check_slo: drift canary did NOT trip the drift budget" >&2
  exit 1
else
  echo "check_slo: drift canary tripped as expected"
fi
echo "check_slo: elapsed $(($(date +%s) - START_S))s"
