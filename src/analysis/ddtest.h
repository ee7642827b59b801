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

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <optional>
#include <set>
#include <string>
#include <string_view>
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
/// only against a textually identical subtree. NestContext builds the same
/// form as a run of AffineTerms in its arena; this returns it as maps.
AffineForm analyze_affine(const frontend::Node& expr, const SubscriptEnv& env);

/// One term of an affine form as NestContext builds it: the coefficient of
/// an induction (`var`) or of a loop-invariant symbol, named by a view of
/// the tree or of the context's arena.
struct AffineTerm {
  std::string_view name;
  long long coeff = 0;
  bool var = false;
};

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
  std::string_view var;     // induction variable of this level (views the tree)
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

/// Loop-nest context for one analyzed loop, built over its LoopScan: the
/// nest's canonical loops with their lower bounds in affine form, and, on
/// first use, each tested subscript lowered to iteration-count variables.
/// Tables and per-pair scratch live in an arena inside the context, so a
/// typical pair is tested without a heap call; the scratch makes the
/// context single-threaded.
class NestContext {
 public:
  /// `scan` must be of a canonical loop and outlive the context.
  explicit NestContext(const LoopScan& scan);
  NestContext(const NestContext&) = delete;
  NestContext& operator=(const NestContext&) = delete;

  /// Tests whether `src` and `snk` (accesses of the scan the context was
  /// built from, at least one a write) can reference the same element, and
  /// on which iteration-distance vectors. Ranks must match (caller's
  /// concern).
  PairResult test_pair(const Access& src, const Access& snk);

  const CanonicalLoop& analyzed() const { return loops().front().canon; }

 private:
  /// A run of affine_terms_: an affine form's coefficients and symbols.
  struct Form {
    bool affine = false;
    long long offset = 0;
    std::uint32_t begin = 0, end = 0;
  };
  /// One subscript dimension lowered to iteration-count variables,
  /// index = lower + step * t(loop) for every bound induction: coefficient
  /// runs in loop_terms_ and sym_terms_, merged and free of zeros.
  struct Lowered {
    bool ready = false;  // computed
    bool ok = false;     // false: not affine, or an induction is unbound here
    long long constant = 0;
    std::uint32_t terms_begin = 0, terms_end = 0;
    std::uint32_t syms_begin = 0, syms_end = 0;
  };
  struct LoopTerm {
    std::uint32_t loop;
    long long coeff;
  };
  struct SymTerm {
    std::string_view text;
    long long coeff;
  };
  /// One dimension of the pair under test: src - snk.
  struct Dim {
    bool ok = false;           // false: no constraint from this dimension
    bool text_pinned = false;  // resolved by the identical-subscript rule
    const Lowered* src = nullptr;
    const Lowered* snk = nullptr;
    long long constant = 0;
  };
  /// One level of the pair under test: a loop both sites share.
  struct Level {
    std::uint32_t loop;
    bool force_eq = false;  // an identical subscript pins it to `=`
  };
  /// Refutation bookkeeping of one pair (see test_pair).
  struct Mechanisms {
    bool ziv = false, gcd = false, banerjee = false;
    DepTest refuter = DepTest::kBanerjee;
  };

  const std::pmr::vector<NestLoop>& loops() const;
  Form build_form(const frontend::Node& expr);
  const Lowered& lowered(const Access& access, std::size_t dim);
  bool lower(const Form& form, std::uint32_t inner, long long scale,
             std::uint32_t terms_begin, std::uint32_t syms_begin, long long& constant);
  bool identical_subscripts(const frontend::Node& src, const frontend::Node& snk);
  bool class_possible(const Dim& dim, std::uint32_t lvl, unsigned cls,
                      Mechanisms& mech) const;
  std::optional<long long> pinned_distance(const Dim& dim, std::uint32_t lvl) const;

  alignas(std::max_align_t) std::array<std::byte, 2048> inline_;
  std::pmr::monotonic_buffer_resource memory_{inline_.data(), inline_.size()};
  const LoopScan* scan_;
  /// The subscript environment: the nest's inductions and every scalar the
  /// body writes.
  std::pmr::vector<std::string_view> vars_{&memory_};
  std::pmr::vector<std::string_view> mutated_{&memory_};
  std::pmr::vector<AffineTerm> affine_terms_{&memory_};
  std::pmr::vector<Form> lower_bounds_{&memory_};  // per nest loop
  std::pmr::vector<Lowered> lowered_{&memory_};    // per subscript_table entry
  std::pmr::vector<LoopTerm> loop_terms_{&memory_};
  std::pmr::vector<SymTerm> sym_terms_{&memory_};
  // Per-pair scratch.
  std::pmr::vector<Dim> dims_{&memory_};
  std::pmr::vector<Level> common_{&memory_};
  std::pmr::vector<std::string_view> mentioned_{&memory_};
  std::string src_text_, snk_text_;
};

}  // namespace clpp::analysis
