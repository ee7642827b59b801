#!/bin/sh
# SLO gate for the serve path: run the closed-loop load generator in
# alternating pairs — once uninstrumented and once fully instrumented
# (CLPP_OBS=1 with a Chrome trace export) — and evaluate the resulting
# clpp.serve_loadgen.v1 artifacts against the declarative budgets in
# slo/budgets.json with `clpp-report slo`. The pairs also prove the
# observability overhead budget: tracing on must keep throughput within
# `obs_overhead.max_fraction` (5%) of tracing off. One host stall decides a
# single short pair, so the gate runs five pairs of loadgens lasting at
# least 0.5 s each, prints every pair's on/off throughput ratio, and judges
# the pair with the median ratio.
#
#   $ scripts/check_slo.sh
#   $ WARN_ONLY=1 scripts/check_slo.sh     # report violations but exit 0
#   $ REQUESTS=4096 scripts/check_slo.sh   # longer loadgens (slow host)
#   $ QUALITY_ENFORCE=1 scripts/check_slo.sh   # quality budgets gate too
#
# Model-quality budgets (the "quality" block: ECE/drift/disagreement) are
# evaluated warn-only by default — set QUALITY_ENFORCE=1 to let them fail
# the gate. Independently, a drift canary re-runs the loadgen with the
# out-of-distribution snippet mix (clpp-serve --drift) and asserts the
# drift budget *does* trip on it, proving the tripwire is live.
#
# Artifacts land in $OUT_DIR (default slo_artifacts/):
#   SLO_serve.<i>.stats.json   pair i's loadgen report, CLPP_OBS off
#   SLO_serve_obs.<i>.stats.json   pair i's loadgen report, CLPP_OBS=1
#   SLO_pairs.txt              one "ratio pair" line per pair
#   SLO_serve.stats.json       the median pair's reports, judged against
#   SLO_serve_obs.stats.json   the budgets
#   SLO_serve_obs.trace.json   Chrome trace of the median pair's
#                              instrumented run (the flow-linked request
#                              lanes, chrome://tracing)
#   SLO_drift.stats.json       drift-canary loadgen report
#   SLO_verdict.json           clpp-report slo --json verdict document
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-perf}"
OUT_DIR="${OUT_DIR:-slo_artifacts}"
REQUESTS="${REQUESTS:-2048}"
CONCURRENCY="${CONCURRENCY:-16}"
PAIRS=5
MIN_SECONDS=0.5
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

# A number field of a one-line JSON artifact (the key must be unique).
json_number() { sed -n "s/.*\"$1\":\([-0-9.eE+]*\).*/\1/p" "$2"; }

echo "== obs overhead: $PAIRS alternating pairs of $REQUESTS-request loadgens =="
: > "$OUT_DIR/SLO_pairs.txt"
short=0
i=1
while [ "$i" -le "$PAIRS" ]; do
  CLPP_OBS=0 "$BUILD_DIR/examples/clpp-serve" --random-model \
    --no-analysis --no-compar \
    --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
    --stats-out "$OUT_DIR/SLO_serve.$i.stats.json"
  CLPP_OBS=1 CLPP_TRACE_OUT="$OUT_DIR/SLO_serve_obs.$i.trace.json" \
    "$BUILD_DIR/examples/clpp-serve" --random-model \
    --no-analysis --no-compar \
    --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
    --stats-out "$OUT_DIR/SLO_serve_obs.$i.stats.json"
  line=$(awk -v i="$i" -v min="$MIN_SECONDS" \
    -v off="$(json_number throughput_rps "$OUT_DIR/SLO_serve.$i.stats.json")" \
    -v on="$(json_number throughput_rps "$OUT_DIR/SLO_serve_obs.$i.stats.json")" \
    -v off_s="$(json_number seconds "$OUT_DIR/SLO_serve.$i.stats.json")" \
    -v on_s="$(json_number seconds "$OUT_DIR/SLO_serve_obs.$i.stats.json")" \
    'BEGIN {
      printf "pair %d: off %.1f req/s in %.2f s, on %.1f req/s in %.2f s, on/off %.3f\n",
             i, off, off_s, on, on_s, on / off > "/dev/stderr"
      printf "%.6f %d %d\n", on / off, i, (off_s < min || on_s < min) }')
  echo "$line" >> "$OUT_DIR/SLO_pairs.txt"
  short=$((short + ${line##* }))
  i=$((i + 1))
done
median=$(sort -n "$OUT_DIR/SLO_pairs.txt" | sed -n "$(((PAIRS + 1) / 2))p" | cut -d' ' -f2)
echo "median pair: $median"
cp "$OUT_DIR/SLO_serve.$median.stats.json" "$OUT_DIR/SLO_serve.stats.json"
cp "$OUT_DIR/SLO_serve_obs.$median.stats.json" "$OUT_DIR/SLO_serve_obs.stats.json"
mv "$OUT_DIR/SLO_serve_obs.$median.trace.json" "$OUT_DIR/SLO_serve_obs.trace.json"
rm -f "$OUT_DIR"/SLO_serve_obs.[0-9]*.trace.json

echo "== budgets ($BUDGET) =="
"$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" --json $QUALITY_FLAG \
  --stats "$OUT_DIR/SLO_serve.stats.json" \
  --obs-stats "$OUT_DIR/SLO_serve_obs.stats.json" \
  > "$OUT_DIR/SLO_verdict.json" || true

if [ "$short" -gt 0 ]; then
  echo "check_slo: $short pair(s) ran a loadgen shorter than ${MIN_SECONDS} s; raise REQUESTS" >&2
fi
if "$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" $QUALITY_FLAG \
  --stats "$OUT_DIR/SLO_serve.stats.json" \
  --obs-stats "$OUT_DIR/SLO_serve_obs.stats.json" && [ "$short" -eq 0 ]; then
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
