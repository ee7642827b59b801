#!/bin/sh
# ThreadSanitizer gate for the serving scheduler, the observability
# plumbing it leans on, and the parallel linter: build with
# -DCLPP_SANITIZE_THREAD=ON and run the `serve`-, `obs`-, `shard`-,
# `cache`- and `lint`-labeled tests (request queue, micro-batching
# workers, backpressure, drain-on-shutdown, sharded histograms under
# concurrent writers, flight-recorder rings, the metrics streamer thread,
# the shard supervisor/listener — single-threaded by design, which TSan
# verifies holds across worker forks and crash recovery — and the linter,
# which clpp-lint shares across an OpenMP team that lints its input
# files). libgomp is not instrumented; support/parallel.h publishes each
# team's fork and join to TSan itself. TSan is mutually exclusive with
# ASan/UBSan, hence a separate build tree from check_sanitize.sh.
#
#   $ scripts/check_tsan.sh
#   $ CTEST_ARGS="--repeat until-fail:5" scripts/check_tsan.sh
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-tsan}"

# TSan builds dominate CI wall-clock; reuse compiled objects via ccache
# when it is installed.
LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

cmake -B "$BUILD_DIR" -S . -DCLPP_SANITIZE_THREAD=ON -DCMAKE_BUILD_TYPE=Debug $LAUNCHER >/dev/null
cmake --build "$BUILD_DIR" -j >/dev/null

cd "$BUILD_DIR"
# halt_on_error turns any reported race into a test failure.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
ctest --output-on-failure -j"$(nproc)" -L "serve|obs|shard|cache|lint" ${CTEST_ARGS:-}
echo "check_tsan: elapsed $(($(date +%s) - START_S))s"
