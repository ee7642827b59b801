// Loop-carried data-dependence analysis and the per-loop verdict.
//
// This is step (2) of the S2S workflow in §1.1 of the paper: given a
// canonical loop, decide whether any pair of accesses to the same array can
// touch the same element on *different* iterations (a loop-carried
// dependence), whether scalars can be privatized, and whether written
// scalars follow a reduction idiom. Array subscripts go through the exact
// direction/distance engine of analysis/ddtest.h; hazards it cannot model
// (unknown calls, pointer writes, struct access) are handled conservatively
// — which is precisely how Cetus-class compilers end up with high
// precision and low recall.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/accesses.h"
#include "analysis/ddtest.h"
#include "analysis/loopinfo.h"
#include "analysis/sideeffects.h"
#include "frontend/pragma.h"

namespace clpp::analysis {

/// A detected (or suspected) loop-carried dependence, for diagnostics.
/// `line`/`column` point at the access that triggered the report (0 when
/// the snippet carries no position info, e.g. hand-built ASTs).
struct Dependence {
  std::string variable;
  std::string detail;
  int line = 0;
  int column = 0;
  bool scalar = false;  // scalar recurrence (vs array dependence)
  /// Exact iteration distance at the analyzed loop's level, when the v2
  /// engine pinned it (strong SIV). Unset for conservative findings.
  std::optional<long long> distance;
  /// Direction vector indexed by nest depth, e.g. "(<, =)"; empty for
  /// scalar recurrences and rank-mismatched accesses (no level information).
  std::string direction;
  /// Provenance: name of the dependence test that decided this finding
  /// (dep_test_name of the deciding DepTest).
  std::string deciding_test;
};

/// Provenance record for one tested access pair — which test of the
/// hierarchy decided it and what it concluded. Recorded for EVERY pair fed
/// to the engine (refuted, same-iteration, and carried alike), so a proof
/// trace can show why a loop was judged (non-)parallel, not only the first
/// blocking dependence.
struct PairProvenance {
  std::string array;     // base variable ("sum" for scalar entries)
  std::string src_text;  // printed source access, e.g. "A[i][j]"
  std::string snk_text;  // printed sink access
  std::string test;      // deciding test (dep_test_name)
  std::string direction; // "(<, =)" style; empty without level info
  std::optional<long long> distance;  // exact distance when pinned
  bool possible = true;  // false: dependence refuted
  bool carried = false;  // true: collides across distinct iterations
  bool exact = true;     // false: conservative answer
  bool scalar = false;   // scalar recurrence entry, not a subscript pair
  int line = 0;          // write site
};

/// One-line human rendering of a provenance record, e.g.
///   "banerjee: y[j] vs y[j], carried, direction (*), distance unknown"
/// Used by lint diagnostics and `clpp-lint --explain` proof traces.
std::string provenance_text(const PairProvenance& provenance);

/// Final analysis verdict for one loop.
struct LoopVerdict {
  bool canonical = false;         // loop matched the canonical form
  bool parallelizable = false;    // no blocking dependence/hazard found
  bool bailed = false;            // analysis aborted on a hazard
  bool conservative = false;      // judged serial by default, not by proof
  std::vector<std::string> notes; // human-readable reasons, in order found
  std::vector<Dependence> dependences;
  std::vector<std::string> private_candidates;   // scalars to privatize
  std::vector<frontend::Reduction> reductions;
  std::optional<long long> trip_count;
  std::string induction;

  /// Dependence-test precision accounting (EXPERIMENTS.md comparisons).
  std::size_t dep_pairs_tested = 0;   // access pairs fed to the engine
  std::size_t dep_pairs_unknown = 0;  // pairs answered conservatively

  /// Per-pair decision provenance, in test order (clpp-lint --explain).
  std::vector<PairProvenance> pair_provenance;

  /// True when every tested pair resolved exactly and nothing bailed or
  /// fell back: the verdict is a proof, not a conservative default.
  bool exact() const { return !bailed && !conservative && dep_pairs_unknown == 0; }
};

/// Personality knobs: each S2S compiler profile instantiates the analyzer
/// with different capabilities (see clpp::s2s).
struct AnalyzerOptions {
  /// Treat calls with unknown side effects as pure (aggressive) instead of
  /// bailing (conservative).
  bool assume_unknown_calls_pure = false;
  /// Abort on struct member accesses (Cetus-class parsers often do).
  bool bail_on_struct_access = true;
  /// Recognize `if (x > m) m = x;` style min/max reductions.
  bool recognize_minmax_reduction = false;
  /// Recognize reductions at all (+/-/*).
  bool recognize_reduction = true;
  /// Loops with a static trip count below this are not worth parallelizing.
  long long min_trip_count = 0;
};

/// Dependence analyzer bound to a snippet's side-effect oracle.
class DependenceAnalyzer {
 public:
  DependenceAnalyzer(const SideEffectOracle& oracle, AnalyzerOptions options);

  /// Analyzes one For node in full.
  LoopVerdict analyze(const frontend::Node& loop) const;

  /// Same, over a scan of the loop that the caller already holds for its
  /// own rules, so the loop is read once.
  LoopVerdict analyze(const LoopScan& scan) const;

 private:
  void analyze_arrays(const LoopScan& scan, LoopVerdict& verdict) const;
  void analyze_scalars(const LoopScan& scan, LoopVerdict& verdict) const;

  const SideEffectOracle* oracle_;
  AnalyzerOptions options_;
};

}  // namespace clpp::analysis
