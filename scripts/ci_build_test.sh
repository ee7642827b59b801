#!/bin/sh
# Tier-1 CI job: configure, build, and run the full ctest suite — the same
# verify command ROADMAP.md names, parameterized for the CI matrix.
#
#   $ scripts/ci_build_test.sh                          # system compiler, Release
#   $ CC=clang CXX=clang++ BUILD_TYPE=Debug scripts/ci_build_test.sh
#
# Env knobs: CC/CXX (compiler pair), BUILD_TYPE (Release|Debug),
# BUILD_DIR (default build-ci-<type>), CTEST_ARGS (extra ctest flags),
# WHOLE_BINARIES=1 (then also run every test binary whole, once: ctest runs
# each case in its own process, which hides state one test leaves for the
# next). ccache is picked up automatically when installed.
set -e
cd "$(dirname "$0")/.."

BUILD_TYPE="${BUILD_TYPE:-Release}"
BUILD_DIR="${BUILD_DIR:-build-ci-$(echo "$BUILD_TYPE" | tr '[:upper:]' '[:lower:]')}"

LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" $LAUNCHER
cmake --build "$BUILD_DIR" -j"$(nproc)"

cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)" ${CTEST_ARGS:-}

if [ "${WHOLE_BINARIES:-0}" = 1 ]; then
  # From the directory ctest runs the cases in.
  cd tests
  failed=""
  for t in ./*_test; do
    if ! "$t" > whole_binary.log 2>&1; then
      tail -40 whole_binary.log
      failed="$failed ${t#./}"
    fi
  done
  if [ -n "$failed" ]; then
    echo "ci_build_test: failed when run whole:$failed" >&2
    exit 1
  fi
  echo "ci_build_test: every test binary passes run whole"
fi
