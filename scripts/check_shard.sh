#!/bin/sh
# Fault-injection gate for the sharded serving front end (DESIGN.md §12):
# start `clpp-serve --listen` with four shard workers and a CLPP_FAULTS plan
# that crashes every first-generation worker mid-burst, then drive the
# socket load generator against it. Two things must hold:
#
#   1. Zero lost requests. The loadgen itself exits 1 when any request went
#      unanswered, and `clpp-report slo` re-checks `lost` (plus the
#      supervisor's `unavailable` count) against the hard-zero ceilings in
#      the "shard" block of slo/budgets.json — a shard crash may cost latency, never an
#      answer.
#   2. Client latency/error/throughput stay inside the same budget block.
#
# The gate also asserts the crash actually happened (artifact's server
# stats show deaths > 0): a fault-tolerance gate whose fault never fires is
# just a smoke test wearing a helmet.
#
# The whole drill then runs a second time with the result cache enabled
# (--cache-cap, DESIGN.md §13): crash recovery must still lose nothing,
# and the loadgen's verdict-identity check must report zero mismatches —
# cached answers under shard churn have to be bitwise-identical to fresh
# ones.
#
#   $ scripts/check_shard.sh
#   $ WARN_ONLY=1 scripts/check_shard.sh   # report violations but exit 0
#   $ REQUESTS=64 SHARDS=2 scripts/check_shard.sh
#
# Artifacts land in $OUT_DIR (default shard_artifacts/):
#   SHARD_loadgen.stats.json   clpp.shard_loadgen.v1 (client + server stats)
#   SHARD_verdict.json         clpp-report slo --json verdict
#   SHARD_cached.stats.json    second pass with the result cache on
#   SHARD_cached_verdict.json  clpp-report slo verdict for the cached pass
#   flights/                   per-shard flight-recorder dumps from the
#                              injected crashes (shard<i>.gen1.flight.jsonl)
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-perf}"
OUT_DIR="${OUT_DIR:-shard_artifacts}"
REQUESTS="${REQUESTS:-200}"
CONCURRENCY="${CONCURRENCY:-8}"
SHARDS="${SHARDS:-4}"
CACHE_CAP="${CACHE_CAP:-4096}"
# Crash every gen-1 worker on its 3rd burst: late enough that the worker
# has answered some requests (exercising buffered-response harvest), early
# enough that plenty of accepted work is still pending (exercising
# redispatch). Restarted generations clear the plan and stay up.
FAULT_PLAN="${FAULT_PLAN:-shard.batch:3}"
# The cached pass crashes on the FIRST burst instead: once the demo mix's
# eight snippets are cached, almost nothing reaches a shard, so a third
# burst may never arrive — but the first one always does.
CACHED_FAULT_PLAN="${CACHED_FAULT_PLAN:-shard.batch:1}"
BUDGET="${BUDGET:-slo/budgets.json}"
WARN_ONLY="${WARN_ONLY:-}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target clpp-serve clpp-report >/dev/null

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR/flights"

# Batch isolation (DESIGN.md §9): an unparseable request fails alone, not
# the valid requests batched with it. Three lines arrive in one 200 ms batch
# window; the middle one holds '@', which starts no C token. A stats line
# follows them and answers in its turn: it counts all three.
echo "== batch isolation: one unparseable request among three in one batch =="
ISO="$OUT_DIR/batch_isolation.jsonl"
ISO_RC=0
printf '%s\n' \
  '{"id":1,"code":"for (i = 0; i < n; i++) a[i] = b[i];"}' \
  '{"id":2,"code":"for (i = 0; i < n; i++) a[i] = b[i] @ 2;"}' \
  '{"id":3,"code":"for (i = 0; i < n; i++) c[i] = a[i] + b[i];"}' \
  '{"id":4,"cmd":"stats"}' \
  | "$BUILD_DIR/examples/clpp-serve" --random-model --max-delay-us 200000 \
  > "$ISO" || ISO_RC=$?
# verdict_line <line> <id>: that line answers request <id> with a verdict.
verdict_line() {
  sed -n "$1p" "$ISO" | grep -v '"error"' | grep "\"id\":$2," \
    | grep -q '"p_directive"'
}
if [ "$ISO_RC" -ne 0 ] || [ "$(wc -l < "$ISO")" -ne 4 ] \
  || [ "$(grep -c '"error"' "$ISO")" -ne 1 ] \
  || ! sed -n 2p "$ISO" | grep -q '^{"error":.*"id":2}$' \
  || ! verdict_line 1 1 || ! verdict_line 3 3; then
  echo "check_shard: an unparseable request failed its batchmates (exit $ISO_RC):" >&2
  cat "$ISO" >&2
  exit 1
fi
if ! sed -n 4p "$ISO" | grep -q '^{"id":4,"stats":{' \
  || ! sed -n 4p "$ISO" | grep -q '"completed":2,' \
  || ! sed -n 4p "$ISO" | grep -q '"failed":1,'; then
  echo "check_shard: the stats line did not count the three requests before it:" >&2
  cat "$ISO" >&2
  exit 1
fi
echo "check_shard: batch isolation: only request 2 failed; stats counted all three"

# run_pass <label> <fault-plan> <stats-file> <verdict-file> [server args...]
# Starts the front end under the fault plan, drives the loadgen, stops the
# server, and asserts zero loss + deaths > 0 + the shard budget block.
run_pass() {
  PASS_LABEL="$1"; PASS_PLAN="$2"; PASS_STATS="$3"; PASS_VERDICT="$4"
  shift 4
  PORT_FILE="$OUT_DIR/port.$PASS_LABEL"
  rm -f "$PORT_FILE"

  echo "== front end ($PASS_LABEL): $SHARDS shards, fault plan $PASS_PLAN =="
  CLPP_FAULTS="$PASS_PLAN" "$BUILD_DIR/examples/clpp-serve" \
    --random-model --no-analysis --no-compar \
    --listen --shards "$SHARDS" --port-file "$PORT_FILE" \
    --flight-dir "$OUT_DIR/flights" "$@" &
  SERVER_PID=$!
  trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

  # The listener writes the ephemeral port after bind; give it a few seconds.
  i=0
  while [ ! -s "$PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      echo "check_shard: front end never wrote $PORT_FILE" >&2
      exit 1
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "check_shard: front end exited before binding" >&2; exit 1; }
    sleep 0.1
  done
  PORT=$(cat "$PORT_FILE")

  echo "== socket loadgen ($PASS_LABEL): $REQUESTS requests, $CONCURRENCY clients, port $PORT =="
  LOADGEN_RC=0
  "$BUILD_DIR/examples/clpp-serve" --connect "$PORT" \
    --loadgen "$REQUESTS" --concurrency "$CONCURRENCY" \
    --stats-out "$OUT_DIR/$PASS_STATS" || LOADGEN_RC=$?

  # Graceful stop: SIGTERM drains the supervisor and prints final stats.
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  trap - EXIT

  if [ "$LOADGEN_RC" -ne 0 ]; then
    echo "check_shard: $PASS_LABEL loadgen lost requests or saw verdict drift (exit $LOADGEN_RC)" >&2
    [ -n "$WARN_ONLY" ] || exit 1
  fi

  # The fault plan must have fired: every gen-1 shard inherits it, so the
  # server stats embedded in the artifact report deaths and a flight dump
  # per crash. A missing/zero count means the gate tested nothing.
  deaths=$(sed -n 's/.*"deaths":\([0-9][0-9]*\).*/\1/p' "$OUT_DIR/$PASS_STATS")
  if [ -z "$deaths" ] || [ "$deaths" -eq 0 ]; then
    echo "check_shard: $PASS_LABEL fault plan never fired (deaths=${deaths:-absent})" >&2
    exit 1
  fi
  dumps=$(ls "$OUT_DIR/flights" 2>/dev/null | wc -l)
  echo "check_shard: $PASS_LABEL: $deaths shard deaths, $dumps flight dumps harvested"

  echo "== budgets ($PASS_LABEL: $BUDGET, shard block) =="
  "$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" --json \
    --stats "$OUT_DIR/$PASS_STATS" \
    > "$OUT_DIR/$PASS_VERDICT" || true

  if "$BUILD_DIR/examples/clpp-report" slo --budget "$BUDGET" \
    --stats "$OUT_DIR/$PASS_STATS"; then
    echo "check_shard: $PASS_LABEL: crash recovery lost nothing and met every budget"
  else
    if [ -n "$WARN_ONLY" ]; then
      echo "check_shard: $PASS_LABEL budget violations (WARN_ONLY set; not failing)" >&2
    else
      echo "check_shard: $PASS_LABEL budget violations" >&2
      exit 1
    fi
  fi
}

run_pass nocache "$FAULT_PLAN" SHARD_loadgen.stats.json SHARD_verdict.json
run_pass cached "$CACHED_FAULT_PLAN" \
  SHARD_cached.stats.json SHARD_cached_verdict.json --cache-cap "$CACHE_CAP"

# The cached pass must actually have served from the cache, or the second
# drill degenerates into a rerun of the first.
cached=$(sed -n 's/.*"cached_responses":\([0-9][0-9]*\).*/\1/p' \
  "$OUT_DIR/SHARD_cached.stats.json")
if [ -z "$cached" ] || [ "$cached" -eq 0 ]; then
  echo "check_shard: cached pass never hit the cache (cached_responses=${cached:-absent})" >&2
  exit 1
fi
echo "check_shard: cached pass served $cached responses from the cache"
echo "check_shard: elapsed $(($(date +%s) - START_S))s"
