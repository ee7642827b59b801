// Dependence-proof explanations: why the engine judged each loop the way
// it did.
//
// `clpp-lint --explain` does not need a directive to check — it walks every
// `for` loop of the translation unit (nested loops included), runs the
// dependence analyzer on each, and renders the per-pair decision provenance
// the v2 engine records (analysis::PairProvenance): which test of the
// ZIV / strong-SIV / GCD / Banerjee hierarchy decided each subscript pair,
// the direction vector, and the pinned distance when one exists. The same
// data backs the machine-readable `clpp.explain.v1` document.
#pragma once

#include <string>
#include <vector>

#include "analysis/depend.h"
#include "frontend/ast.h"
#include "support/json.h"

namespace clpp::lint {

/// Proof trace for one loop of the unit.
struct LoopExplanation {
  int line = 0;   // `for` keyword position (0 = unpositioned)
  int depth = 0;  // nesting depth within the unit (0 = outermost)
  analysis::LoopVerdict verdict;
};

/// Analyzes every `for` loop in `unit` (document order, nested included).
std::vector<LoopExplanation> explain_unit(
    const frontend::Node& unit,
    const analysis::AnalyzerOptions& options);

/// Human rendering: one block per loop, one line per tested pair.
std::string render_explanations(const std::string& file,
                                const std::vector<LoopExplanation>& loops);

/// `clpp.explain.v1` document over the same data.
Json explanations_json(const std::string& file,
                       const std::vector<LoopExplanation>& loops);

}  // namespace clpp::lint
