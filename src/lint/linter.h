// Static OpenMP race detector and directive linter.
//
// The linter closes the loop the paper leaves open: once a transformer (or
// a human, or a label generator) has attached `#pragma omp parallel for`
// to a loop, is the directive actually *right*? It walks a parsed
// translation unit, pairs each worksharing-loop pragma with the loop that
// follows it, re-runs the clpp::analysis dependence machinery on that loop,
// and diffs what the analysis proves against what the directive claims.
//
// Rules (ids in lint/diagnostics.h):
//   loop-carried-dependence  error    dependence survives the clauses given
//   missing-private          error    per-iteration scalar not privatized
//   missing-reduction        error    reduction idiom without the clause
//   shared-induction         error    induction variable listed shared(...)
//   uninitialized-private    warning  private var read before first write
//   non-canonical-loop       error    directive on an unshareable loop
//   small-trip-count         warning  static trip count too small to pay off
//   unknown-call-effect      warning  callee side effects cannot be proven
//   parse-error              error    input did not parse (CLI robustness)
//
// `omp simd` legality family (needs the v2 distance engine in
// analysis/ddtest.h — a carried dependence of known distance d is *legal*
// under safelen(k) iff k <= d):
//   simd-unsafe-carried-dependence  error    distance 1/unknown, or safelen > d
//   simd-misses-safelen             error    known d >= 2 but no safelen given
//   simd-reduction-mismatch         error    simd accumulation without clause
//   simd-on-non-innermost           warning  simd on a loop containing a loop
//
// Fix-its edit a copy of the directive as written (missing private and
// reduction clauses added, the induction dropped from shared(...)):
// clause-level findings carry the corrected whole pragma line.
#pragma once

#include <string>

#include "analysis/depend.h"
#include "analysis/sideeffects.h"
#include "frontend/ast.h"
#include "lint/diagnostics.h"

namespace clpp::lint {

/// Default analyzer personality for linting: maximum recognition power
/// (min/max reductions on, unknown calls assumed pure so dependence testing
/// continues past them — call effects are reported separately by the
/// unknown-call-effect rule), and no trip-count gate (handled by the
/// small-trip-count rule instead).
analysis::AnalyzerOptions lint_analyzer_options();

struct LintOptions {
  analysis::AnalyzerOptions analyzer = lint_analyzer_options();
  /// Loops with a static trip count below this draw small-trip-count.
  long long small_trip_threshold = 8;
  /// Attach corrected-pragma fix-its to clause-level diagnostics.
  bool emit_fixits = true;
};

/// Stateless once built: its const members may run concurrently, as they
/// do when clpp-lint and the audit lint their units on one OpenMP team.
class Linter {
 public:
  explicit Linter(LintOptions options = {});

  const LintOptions& options() const { return options_; }

  /// Parses `source` and lints it; a parse failure yields a single
  /// parse-error diagnostic instead of throwing.
  LintReport lint_source(const std::string& source,
                         std::string file = "<input>") const;

  /// Lints an already-parsed translation unit.
  LintReport lint_unit(const frontend::Node& unit,
                       std::string file = "<input>") const;

  /// Lints one (directive, loop) pair directly — the corpus convention
  /// where a record's directive applies to the snippet's first loop
  /// regardless of intervening declarations. `loop` may be null ("directive
  /// with no loop to govern" → non-canonical-loop).
  LintReport lint_loop(const frontend::Node& unit,
                       const frontend::OmpDirective& directive,
                       const frontend::Node* loop,
                       std::string file = "<input>") const;

 private:
  /// `pragma` is the directive's line in the unit, or null when the
  /// directive comes from outside it (lint_loop).
  void lint_pair(const analysis::SideEffectOracle& oracle, const frontend::Node* pragma,
                 const frontend::OmpDirective& directive,
                 const frontend::Node* stmt, LintReport& report) const;

  LintOptions options_;
};

}  // namespace clpp::lint
