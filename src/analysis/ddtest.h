// Exact data-dependence testing over affine loop nests (engine v2).
//
// Strides, scaled coefficients, multi-variable subscripts (a*i + b*j + c)
// and imperfect nests all stay exact, because every access pair goes
// through a dependence-equation solver:
//
//   * every access site is located on its chain of enclosing canonical
//     loops (the analyzed loop at depth 0);
//   * each subscript dimension is lowered to a linear form over per-side
//     iteration-count variables (index = lower + step * t, t in [0, trip)),
//     so strides and non-zero lower bounds are handled exactly, including
//     lower bounds that reference outer inductions (triangular nests);
//   * the dependence equation src_d = snk_d is tested per dimension with
//     the classic hierarchy — ZIV, strong SIV (exact distance), weak SIV
//     and restricted MIV via a GCD divisibility test plus Banerjee-style
//     interval bounds — separately for each direction class (<, =, >) of
//     the tracked loop level;
//   * per-dimension results are intersected across dimensions
//     (subscript-by-subscript); coupled subscripts stay sound because every
//     per-dimension class set is a necessary condition, so the intersection
//     over-approximates the simultaneous solution set.
//
// The result is a direction/distance vector indexed by nest depth. All
// conservatism is one-sided: the solver may report a dependence that does
// not exist, never the reverse (see tests/depend_oracle_test.cpp).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/accesses.h"
#include "analysis/loopinfo.h"
#include "frontend/ast.h"

namespace clpp::analysis {

/// Multi-variable affine form: sum of coeff*var over quantified induction
/// variables, plus a literal offset, plus symbolic loop-invariant addends
/// with literal coefficients (`n - 1` is symbols{n: 1}, offset -1).
/// `affine == false` means the expression is not representable.
struct AffineForm {
  bool affine = false;
  std::map<std::string, long long> coeffs;   // induction var -> coefficient
  std::map<std::string, long long> symbols;  // invariant text -> coefficient
  long long offset = 0;

  bool operator==(const AffineForm&) const = default;
};

/// Environment for affine analysis of one subscript expression.
struct SubscriptEnv {
  /// Names that are quantified induction variables of the nest.
  std::set<std::string> vars;
  /// Names written anywhere in the analyzed body. A mutated name is neither
  /// a usable induction nor a cancelable invariant; mentioning one outside
  /// `vars` makes the form non-affine (conservative).
  std::set<std::string> mutated;
};

/// Analyzes `expr` as an affine function over `env.vars`. Loop-invariant
/// subtrees (no vars, no mutated names) that are not otherwise affine fold
/// into a single opaque symbol keyed by their printed text, so they cancel
/// only against a textually identical subtree.
AffineForm analyze_affine(const frontend::Node& expr, const SubscriptEnv& env);

/// Direction classes of one nest level, as a bitmask over the sign of
/// (t_snk - t_src) in iteration space: "<" means the source iteration is
/// earlier, "=" same iteration, ">" later.
enum : unsigned {
  kDirLt = 1u << 0,
  kDirEq = 1u << 1,
  kDirGt = 1u << 2,
  kDirAll = kDirLt | kDirEq | kDirGt,
};

/// Per-level entry of a direction/distance vector.
struct DepLevel {
  std::string var;          // induction variable of this level
  unsigned dirs = kDirAll;  // admissible direction classes
  std::optional<long long> distance;  // exact iteration distance when pinned

  bool operator==(const DepLevel&) const = default;
};

/// Renders one direction set as "<", "=", ">", "<=", "*", ...
std::string direction_text(unsigned dirs);

/// Which member of the test hierarchy decided a pair — the provenance of
/// the verdict. "Decided" means: for a refuted pair, the test that proved
/// the dependence equation unsolvable; for a surviving exact pair, the
/// deepest test that constrained it (a pinned distance beats interval
/// bounds beats divisibility); for a conservative answer, kConservative.
enum class DepTest {
  kConservative,  // engine fell back; no proof either way
  kZiv,           // zero-index-variable: constant difference decides
  kStrongSiv,     // single-level opposite-coefficient pair: exact distance
  kGcd,           // divisibility of the constant by the coefficient gcd
  kBanerjee,      // interval bounds on the dependence equation
  kTextPinned,    // identical-subscript rule pinned levels to `=`
  kScalar,        // scalar recurrence reasoning, not a subscript test
};

/// Human-readable name ("ziv", "strong-siv", "gcd", "banerjee",
/// "text-pinned", "conservative", "scalar-recurrence").
const char* dep_test_name(DepTest test);

/// Result of testing one pair of accesses to the same array.
struct PairResult {
  /// False when the solver proved no two iterations of the analyzed loop
  /// (equal or distinct) can touch the same element.
  bool possible = true;
  /// False when any step fell back to a conservative answer (non-affine
  /// subscript, unresolved symbol, unknown binding).
  bool exact = true;
  /// Provenance: the test that decided this pair.
  DepTest deciding = DepTest::kConservative;
  /// Direction/distance vector; levels[0] is the analyzed loop, deeper
  /// entries are the common enclosing canonical loops in nesting order.
  std::vector<DepLevel> levels;

  /// True when the accesses can collide on two distinct iterations of the
  /// analyzed loop (levels[0] admits "<" or ">").
  bool carried() const;
  /// Exact carried distance at the analyzed level, when pinned.
  std::optional<long long> carried_distance() const;
};

/// Loop-nest context for one analyzed loop: canonical info for every `for`
/// in the nest, each linked to its enclosing canonical loop, plus the
/// innermost enclosing canonical loop of every access site. A site's chain
/// of enclosing loops is rebuilt from the links when a pair is tested.
class NestContext {
 public:
  /// `loop` must be a For node that canonicalizes; `accesses` is the scan
  /// of its body, collect_accesses(loop.child(3)), which the caller already
  /// holds for its own tests.
  NestContext(const frontend::Node& loop, const AccessSet& accesses);

  /// Tests whether `src` and `snk` (accesses of the set the context was
  /// built from, at least one a write) can reference the same element, and
  /// on which iteration-distance vectors. Ranks must match (caller's
  /// concern).
  PairResult test_pair(const Access& src, const Access& snk) const;

  const CanonicalLoop& analyzed() const { return analyzed_; }

 private:
  struct LoopRec {
    const LoopRec* outer = nullptr;  // enclosing canonical loop; null at the root
    std::size_t depth = 1;           // canonical loops from the root to here
    CanonicalLoop canon;
    std::optional<long long> trip;
  };

  void index_nest(const frontend::Node& node, const LoopRec* enclosing);
  const LoopRec* innermost_of(const frontend::Node* site) const;

  CanonicalLoop analyzed_;
  std::vector<std::unique_ptr<LoopRec>> loops_;
  /// (site, innermost enclosing canonical loop), sorted by site.
  std::vector<std::pair<const frontend::Node*, const LoopRec*>> sites_;
  SubscriptEnv env_;
};

}  // namespace clpp::analysis
