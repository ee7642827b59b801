#!/bin/sh
# Lint self-audit gate: clpp-lint seeds directive defects into a generated
# corpus — worksharing AND omp simd families — and must catch 100% of them
# with ZERO clean records flagged. The v2 dependence engine made the
# zero-false-positive bar reachable (the seed engine's conservative bails
# on linearized matmul subscripts used to flag clean loops); this gate
# keeps both properties from regressing (tests/lint_test.cpp LintAudit and
# LintAuditSimd suites, continuously enforced). clpp-lint lints input files
# on an OpenMP team, so the gate also diffs `clpp-lint --json
# corpus/realworld/*.c` between OMP_NUM_THREADS=1 and the default team: any
# byte difference fails. Last, clpp-lint's output on fixed inputs is pinned
# byte for byte, exit code included, to the golden files in
# tests/golden/lint/: text and --json on a fixture with a loop per lint rule,
# --explain --json on corpus/realworld, --json and --explain --json on
# generated.c (loops of every codegen family, simd and seeded defects
# included, each directive above its loop), --audit --json --size 400, and text
# and --json on three inputs nested 100,000 levels deep (parentheses,
# blocks, a `+` chain in an annotated loop), generated at run time: hostile
# nesting must get a parse-error finding and exit 1, never a crash. A
# change that means to alter one of these outputs re-records its golden.
#
#   $ scripts/check_lint_audit.sh
#   $ SIZE=1000 BUGGY=0.25 scripts/check_lint_audit.sh
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-ci-release}"
SIZE="${SIZE:-400}"
BUGGY="${BUGGY:-0.15}"

if [ ! -x "$BUILD_DIR/examples/clpp-lint" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target clpp-lint >/dev/null
fi

# --audit exits 1 whenever seeded bugs are (correctly) reported as errors,
# so exit codes 0 and 1 both mean "the audit ran"; judge on the report.
rc=0
report=$("$BUILD_DIR/examples/clpp-lint" --audit --json --size "$SIZE" --buggy "$BUGGY") || rc=$?
if [ "$rc" -gt 1 ]; then
  echo "check_lint_audit: clpp-lint --audit failed (rc=$rc)" >&2
  exit "$rc"
fi

# Output must not depend on the team size: one thread against the default
# team, byte for byte, exit code included.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
team_rc=0
env -u OMP_NUM_THREADS "$BUILD_DIR/examples/clpp-lint" --json corpus/realworld/*.c \
  > "$tmp/team" || team_rc=$?
serial_rc=0
OMP_NUM_THREADS=1 "$BUILD_DIR/examples/clpp-lint" --json corpus/realworld/*.c \
  > "$tmp/serial" || serial_rc=$?
if ! cmp -s "$tmp/team" "$tmp/serial" || [ "$team_rc" != "$serial_rc" ]; then
  echo "check_lint_audit: --json corpus/realworld/*.c differs between" \
       "OMP_NUM_THREADS=1 (rc=$serial_rc) and the default team (rc=$team_rc)" >&2
  exit 1
fi
echo "--json corpus/realworld/*.c: identical at OMP_NUM_THREADS=1 and the default team (rc=$team_rc)"

# Golden outputs: pin <golden file> <exit code> <clpp-lint arguments...>,
# run in $pin_dir. stdout must equal the golden byte for byte, stderr must
# stay empty.
golden=tests/golden/lint
lint=$(cd "$BUILD_DIR/examples" && pwd)/clpp-lint
pin_dir=.
pinned_rc=0
pin() {
  name=$1 want_rc=$2
  shift 2
  rc=0
  (cd "$pin_dir" && "$lint" "$@") > "$tmp/pin.out" 2> "$tmp/pin.err" || rc=$?
  if cmp -s "$golden/$name" "$tmp/pin.out" && [ "$rc" = "$want_rc" ] && [ ! -s "$tmp/pin.err" ]; then
    return 0
  fi
  echo "check_lint_audit: clpp-lint $* (exit $rc) differs from $golden/$name (exit $want_rc):" >&2
  diff "$golden/$name" "$tmp/pin.out" | head -40 >&2 || true
  cat "$tmp/pin.err" >&2
  pinned_rc=1
}
pin rules.txt 1 "$golden/rules.c" "$golden/parse_error.c"
pin rules.json 1 --json "$golden/rules.c" "$golden/parse_error.c"
pin explain-realworld.json 0 --explain --json corpus/realworld/*.c
pin generated.json 1 --json "$golden/generated.c"
pin explain-generated.json 0 --explain --json "$golden/generated.c"
pin audit-400.json 1 --audit --json --size 400
mkdir "$tmp/deep"
python3 - "$tmp/deep" <<'EOF'
import sys
directory, n = sys.argv[1], 100000
with open(f"{directory}/parens.c", "w") as f:
    f.write("x = " + "(" * n + "y" + ")" * n + ";\n")
with open(f"{directory}/blocks.c", "w") as f:
    f.write("{" * n + "}" * n + "\n")
with open(f"{directory}/chain.c", "w") as f:
    f.write("#pragma omp parallel for\nfor (i = 0; i < n; i++)\n  a[i] = "
            + " + ".join(["b[i]"] * n) + ";\n")
EOF
pin_dir=$tmp/deep
pin deep-nesting.txt 1 parens.c blocks.c chain.c
pin deep-nesting.json 1 --json parens.c blocks.c chain.c
pin_dir=.
if [ "$pinned_rc" != 0 ]; then
  exit 1
fi
echo "golden outputs: 8/8 byte-identical to $golden, exit codes included"

echo "$report" | python3 -c '
import json, sys
report = json.load(sys.stdin)
seeded, caught = report["seeded_bugs"], report["bugs_caught"]
false_pos, linted = report["clean_flagged"], report["linted"]
simd_seeded = sum(1 for row in report["rows"]
                  if row.get("bug", "").startswith("simd-"))
print(f"lint audit: {caught}/{seeded} seeded bugs caught "
      f"({simd_seeded} simd), {false_pos}/{linted} clean loops flagged")
if seeded == 0:
    sys.exit("check_lint_audit: corpus seeded no bugs; raise SIZE/BUGGY")
if simd_seeded == 0:
    sys.exit("check_lint_audit: no simd-* bugs seeded; the simd families "
             "are not in the mix (raise SIZE, or the generator regressed)")
if caught != seeded:
    sys.exit(f"check_lint_audit: catch rate {caught/seeded:.0%} < 100%")
if false_pos > 0:
    sys.exit(f"check_lint_audit: {false_pos} clean loops flagged "
             f"(the bar is zero false positives)")
'
echo "check_lint_audit: elapsed $(($(date +%s) - START_S))s"
