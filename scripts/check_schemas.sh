#!/bin/sh
# Schema-contract gate: generate one artifact per schema-versioned JSON
# document the tools emit, then validate every one of them with
# `clpp-report schema` (a structural required-key check over the declared
# "clpp.<name>.v1", embedded documents such as a loadgen's "server" block
# included). A producer renaming or dropping a field without bumping its
# version string fails here before any reader (clpp-report, dashboards)
# breaks downstream.
#
# The gate also pins clpp-report's output on fixed artifacts: every case of
# tests/golden/report/cases.txt must print its golden stdout byte for byte
# with its exit code (and its stderr, where a .err golden exists), and
# `summarize` over the fixture bench directory must write the golden
# BENCH_summary.json. A change that means to alter one of these outputs
# re-records its golden.
#
#   $ scripts/check_schemas.sh
#   $ BUILD_DIR=build scripts/check_schemas.sh
#
# Covered: clpp.lint.v1, clpp.explain.v1, clpp.serve_loadgen.v1 (quality
# block included), clpp.metrics_stream.v1, clpp.flight.v1, clpp.slo_budget.v1,
# clpp.slo_verdict.v1, clpp.insight_report.v1 (realworld and loadgen
# reports), clpp.shard_loadgen.v1, clpp.shard_stats.v1 (a sharded --listen
# front end's final stats document, cache block included),
# clpp.shard_scaling.v1 (a tiny scaling-bench run) and clpp.bench_summary.v1.
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-ci-release}"
OUT_DIR="${OUT_DIR:-schema_artifacts}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j \
  --target clpp-report clpp-lint clpp-serve clpp-insight \
  shard_scaling_bench >/dev/null

BIN="$BUILD_DIR/examples"
BIN_ABS="$(cd "$BIN" && pwd)"
REPORT="$BIN_ABS/clpp-report"
mkdir -p "$OUT_DIR"

echo "== generating artifacts =="

# clpp.lint.v1 — lint report over a real kernel (exit 1 = findings, fine).
"$BIN/clpp-lint" --json corpus/realworld/gemm.c \
  > "$OUT_DIR/lint.json" || true

# clpp.explain.v1 — dependence-engine decision provenance for the same file.
"$BIN/clpp-lint" --explain --json corpus/realworld/gemm.c \
  > "$OUT_DIR/explain.json"

# clpp.serve_loadgen.v1 (carries the clpp.insight.v1 quality block) plus a
# clpp.metrics_stream.v1 jsonl streamed while the loadgen runs.
CLPP_OBS=1 CLPP_METRICS_STREAM="$OUT_DIR/metrics_stream.jsonl" \
  CLPP_METRICS_STREAM_MS=50 \
  "$BIN/clpp-serve" --random-model --no-analysis --no-compar \
  --loadgen 32 --concurrency 4 --stats-out "$OUT_DIR/loadgen.json" >/dev/null

# An artifact that cannot be written must fail the run: /dev/full accepts
# the open and refuses the flush.
if "$BIN/clpp-serve" --random-model --no-analysis --no-compar \
  --loadgen 8 --concurrency 2 --stats-out /dev/full >/dev/null 2>&1; then
  echo "check_schemas: clpp-serve --stats-out /dev/full exited 0" >&2
  exit 1
fi
if "$BUILD_DIR/bench/shard_scaling_bench" --points 1 --requests 4 \
  --dup-requests 4 --concurrency 2 --out /dev/full >/dev/null 2>&1; then
  echo "check_schemas: shard_scaling_bench --out /dev/full exited 0" >&2
  exit 1
fi

# clpp.flight.v1 — the CLI fatal boundary (report_cli_error) dumps the
# flight recorder when a dump path is armed; a usage error is the cheapest
# deterministic fatal.
CLPP_FLIGHT_OUT="$OUT_DIR/flight.json" \
  "$BIN/clpp-insight" --realworld corpus/realworld >/dev/null 2>&1 || true
test -s "$OUT_DIR/flight.json" || {
  echo "check_schemas: fatal path produced no flight dump" >&2; exit 1; }

# Unarmed, a usage error reads as one and writes nothing: in an empty
# directory each CLI exits with its usage code on an unknown option (2;
# clpp-serve exits 1 on every error), prints no internal check text and
# leaves the directory empty.
empty=$(mktemp -d)
for entry in clpp-insight:2 clpp-lint:2 clpp-report:2 clpp-serve:1; do
  tool=${entry%:*}
  rc=0
  (cd "$empty" && env -u CLPP_FLIGHT_OUT "$BIN_ABS/$tool" --no-such-flag) \
    > /dev/null 2> "$OUT_DIR/usage.err" || rc=$?
  left=$(ls -A "$empty")
  if [ "$rc" != "${entry#*:}" ] || grep -q CLPP_CHECK "$OUT_DIR/usage.err" ||
     [ -n "$left" ]; then
    echo "check_schemas: $tool --no-such-flag exited $rc, left '$left':" >&2
    cat "$OUT_DIR/usage.err" >&2
    rm -rf "$empty"
    exit 1
  fi
done
rmdir "$empty"

# clpp.shard_loadgen.v1 — socket loadgen against a small sharded front end;
# the front end's stdout is the bare clpp.shard_stats.v1 stats document it
# prints after draining on SIGTERM. A stale port file from an aborted run
# would point the loadgen at a dead port, so remove it first; the trap keeps
# a `set -e` abort anywhere below from orphaning the front end.
rm -f "$OUT_DIR/shard_port"
"$BIN/clpp-serve" --random-model --no-analysis --no-compar \
  --listen --shards 2 --port-file "$OUT_DIR/shard_port" \
  > "$OUT_DIR/shard_stats.json" &
SHARD_PID=$!
trap 'kill "$SHARD_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$OUT_DIR/shard_port" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "check_schemas: no shard port" >&2; exit 1; }
  sleep 0.1
done
"$BIN/clpp-serve" --connect "$(cat "$OUT_DIR/shard_port")" \
  --loadgen 16 --concurrency 4 \
  --stats-out "$OUT_DIR/shard_loadgen.json" >/dev/null
kill "$SHARD_PID"
wait "$SHARD_PID" 2>/dev/null || true
trap - EXIT
test -s "$OUT_DIR/shard_stats.json" || {
  echo "check_schemas: listen front end printed no stats document" >&2
  exit 1; }

# clpp.shard_scaling.v1 — a tiny run of the closed-loop scaling bench
# (two points, a handful of requests) exercises the full artifact shape:
# per-point series, the scaling and cache_win summary blocks, and the
# verdict-identity verdict.
"$BUILD_DIR/bench/shard_scaling_bench" \
  --points "1 2" --requests 24 --dup-requests 32 --concurrency 4 \
  --out "$OUT_DIR/shard_scaling.json" >/dev/null

# clpp.slo_verdict.v1 — evaluate the loadgen artifact we just produced.
"$REPORT" slo --budget slo/budgets.json --quality-warn-only --json \
  --stats "$OUT_DIR/loadgen.json" > "$OUT_DIR/slo_verdict.json" || true

# clpp.insight_report.v1 — offline model-quality report over the kernels,
# and the loadgen quality summary.
"$BIN/clpp-insight" --realworld corpus/realworld --random-model --json \
  > "$OUT_DIR/insight_report.json"
"$REPORT" quality --json "$OUT_DIR/loadgen.json" \
  > "$OUT_DIR/quality_report.json"

echo "== clpp-report goldens =="
golden=tests/golden/report
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
pinned_rc=0
cases=0
while read -r name want_rc args; do
  case "$name" in ''|'#'*) continue ;; esac
  cases=$((cases + 1))
  rc=0
  "$REPORT" $args < /dev/null > "$tmp/out" 2> "$tmp/err" || rc=$?
  if cmp -s "$golden/$name" "$tmp/out" && [ "$rc" = "$want_rc" ] &&
     { [ ! -f "$golden/$name.err" ] || cmp -s "$golden/$name.err" "$tmp/err"; }; then
    continue
  fi
  echo "check_schemas: clpp-report $args (exit $rc) differs from $golden/$name (exit $want_rc):" >&2
  diff "$golden/$name" "$tmp/out" | head -40 >&2 || true
  cat "$tmp/err" >&2
  pinned_rc=1
done < "$golden/cases.txt"

# clpp.bench_summary.v1 — summarize a copy of the fixture bench directory
# (run from $OUT_DIR so the printed path is the golden's).
rm -rf "$OUT_DIR/bench_base"
cp -r "$golden/bench_base" "$OUT_DIR/bench_base"
(cd "$OUT_DIR" && "$REPORT" summarize bench_base) > "$tmp/out"
if ! cmp -s "$golden/summarize.txt" "$tmp/out" ||
   ! cmp -s "$golden/summarize.json" "$OUT_DIR/bench_base/BENCH_summary.json"; then
  echo "check_schemas: clpp-report summarize differs from $golden/summarize.{txt,json}" >&2
  pinned_rc=1
fi
if [ "$pinned_rc" != 0 ]; then
  exit 1
fi
echo "golden outputs: $cases cases and summarize byte-identical to $golden, exit codes included"

echo "== validating =="
"$REPORT" schema \
  "$OUT_DIR/lint.json" \
  "$OUT_DIR/explain.json" \
  "$OUT_DIR/loadgen.json" \
  "$OUT_DIR/shard_loadgen.json" \
  "$OUT_DIR/shard_stats.json" \
  "$OUT_DIR/shard_scaling.json" \
  "$OUT_DIR/metrics_stream.jsonl" \
  "$OUT_DIR/flight.json" \
  "$OUT_DIR/slo_verdict.json" \
  "$OUT_DIR/insight_report.json" \
  "$OUT_DIR/quality_report.json" \
  "$OUT_DIR/bench_base/BENCH_summary.json" \
  slo/budgets.json

echo "check_schemas: all artifacts conform"
echo "check_schemas: elapsed $(($(date +%s) - START_S))s"
