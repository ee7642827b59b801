// Canonical loop-nest structure recognition.
//
// S2S compilers only parallelize loops they can put in canonical form
// (OpenMP's "canonical loop form"): `for (i = L; i REL U; STEP)` with an
// integer induction variable and a loop-invariant bound. This module
// extracts that shape plus a static trip-count estimate when bounds are
// literal.
#pragma once

#include <optional>
#include <string_view>

#include "frontend/ast.h"

namespace clpp::analysis {

/// Direction of the canonical induction.
enum class LoopDirection { kUp, kDown };

/// Canonical form of one `for` loop. Its names view the loop's tree.
struct CanonicalLoop {
  std::string_view induction;    // induction variable name
  const frontend::Node* lower = nullptr;  // init expression (rhs)
  const frontend::Node* upper = nullptr;  // bound expression
  std::string_view relation;     // "<", "<=", ">", ">="
  long long step = 1;            // signed step (from i++, i+=c, i-=c, i--)
  LoopDirection direction = LoopDirection::kUp;
  bool declared_in_init = false; // `for (int i = ...)`

  /// Trip count when both bounds are integer literals; nullopt otherwise.
  std::optional<long long> static_trip_count() const;
};

/// Tries to canonicalize `loop` (must be a For node). Returns nullopt for
/// non-canonical loops (multiple inductions, non-unit complex steps,
/// pointer walks, missing pieces) — exactly the cases real S2S compilers
/// refuse to transform.
std::optional<CanonicalLoop> canonicalize(const frontend::Node& loop);

/// Integer literal value of an expression node, if it is one: a C integer
/// literal (frontend::int_literal_value), possibly negated.
std::optional<long long> literal_value(const frontend::Node& expr);

}  // namespace clpp::analysis
