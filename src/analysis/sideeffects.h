// Function side-effect analysis.
//
// The paper identifies "determining function side effects" as a major S2S
// pitfall [24]: Cetus-class compilers must prove a called function pure (or
// at least loop-safe) before parallelizing a loop that calls it. This
// module classifies callees as pure / io / alloc / writes-memory / unknown,
// analyzing snippet-local function bodies recursively and falling back to a
// whitelist of libm-style pure functions.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/ast.h"

namespace clpp::analysis {

/// Effect classification of a callee, ordered by severity.
enum class CallEffect {
  kPure,         // no memory effects beyond its own locals (safe)
  kWritesArgs,   // may write through pointer/array arguments
  kAllocates,    // malloc/free family — not thread-safe to reorder freely
  kIo,           // printf/scanf family — ordering matters, never parallel
  kUnknown,      // no body available and not whitelisted
};

/// Side-effect oracle over a snippet: knows whitelisted library functions
/// and analyzes locally defined functions (FuncDef nodes in the unit).
class SideEffectOracle {
 public:
  /// Builds the oracle from a snippet translation unit: indexes every
  /// FuncDef with a body and classifies it bottom-up.
  explicit SideEffectOracle(const frontend::Node& unit);

  /// Effect of calling `name`.
  CallEffect effect_of(std::string_view name) const;

  /// True if `name` is on the built-in pure whitelist (libm etc.).
  static bool is_whitelisted_pure(std::string_view name);
  /// True if `name` is a known I/O function.
  static bool is_known_io(std::string_view name);
  /// True if `name` is a known allocation function.
  static bool is_known_alloc(std::string_view name);

 private:
  CallEffect classify(std::string_view name,
                      std::vector<std::string_view>& in_progress) const;

  std::map<std::string, const frontend::Node*, std::less<>> bodies_;
  mutable std::map<std::string, CallEffect, std::less<>> cache_;
};

/// Severity order for combining effects.
CallEffect worse(CallEffect a, CallEffect b);

}  // namespace clpp::analysis
