#include "analysis/ddtest.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>

#include "frontend/printer.h"
#include "support/error.h"

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;

namespace {

// Interval arithmetic saturates well below the LLONG range so that sums of
// products of user literals cannot wrap; only the sign and 0-membership of
// bounds matter, so clamping is sound.
constexpr long long kBig = 1LL << 62;

long long sat(long long v) { return std::clamp(v, -kBig, kBig); }

long long sat_add(long long a, long long b) {
  return sat(static_cast<long long>(
      std::clamp(static_cast<__int128>(a) + b, static_cast<__int128>(-kBig),
                 static_cast<__int128>(kBig))));
}

long long sat_mul(long long a, long long b) {
  return sat(static_cast<long long>(
      std::clamp(static_cast<__int128>(a) * b, static_cast<__int128>(-kBig),
                 static_cast<__int128>(kBig))));
}

/// True when saturation left `v` exact. Lowered coefficients and constants
/// must be: a clamped one would let the tests refute a real collision, and
/// keeping coefficients below kBig keeps the sum of two from wrapping.
bool exact(long long v) { return v > -kBig && v < kBig; }

/// `out = a + b` and `out = a * b`; false, leaving `out` unspecified, when
/// the result does not fit. Literal arithmetic goes through these: a form
/// that overflows is not affine.
bool checked_add(long long a, long long b, long long& out) {
  return !__builtin_add_overflow(a, b, &out);
}
bool checked_mul(long long a, long long b, long long& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

bool contains(std::span<const std::string_view> names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

bool has_assignment(const Node& expr) {
  bool found = false;
  frontend::walk(expr, [&](const Node& n, int) {
    if (n.kind == NodeKind::kAssignment) found = true;
    if (n.kind == NodeKind::kUnaryOp &&
        (n.text == "++" || n.text == "--" || n.text == "p++" || n.text == "p--"))
      found = true;
  });
  return found;
}

/// Builds affine forms as runs at the end of one term table. A run is
/// sorted (inductions first, each kind by name), merged and free of zeros,
/// and its offset is returned beside it.
class AffineBuilder {
 public:
  /// `vars` are the quantified inductions, `mutated` the names written in
  /// the body; printed symbol texts are kept in `texts`.
  AffineBuilder(std::span<const std::string_view> vars,
                std::span<const std::string_view> mutated,
                std::pmr::vector<AffineTerm>& terms, std::pmr::memory_resource& texts,
                std::string& scratch)
      : vars_(vars), mutated_(mutated), terms_(terms), texts_(texts), scratch_(scratch) {}

  /// Appends the run of `expr` and sets `offset`; false, with nothing
  /// appended, when `expr` is not affine or its arithmetic overflows.
  bool build(const Node& expr, long long& offset) {
    const std::size_t mark = terms_.size();
    if (auto value = literal_value(expr)) {
      offset = *value;
      return true;
    }
    if (expr.kind == NodeKind::kID) {
      const bool var = contains(vars_, expr.text);
      // A name whose value changes inside the body is not cancelable.
      if (!var && contains(mutated_, expr.text)) return false;
      terms_.push_back({expr.text, 1, var});
      offset = 0;
      return true;
    }
    // An operand that is not affine mentions an induction or a mutated
    // name, or assigns; then so does `expr`, which is not affine either.
    if (expr.kind == NodeKind::kBinaryOp &&
        (expr.text == "+" || expr.text == "-" || expr.text == "*")) {
      long long lhs = 0, rhs = 0;
      if (!build(expr.child(0), lhs)) return false;
      const std::size_t mid = terms_.size();
      if (!build(expr.child(1), rhs)) {
        terms_.resize(mark);
        return false;
      }
      if (expr.text != "*") {
        const long long sign = expr.text == "-" ? -1 : 1;
        if (scale(mid, sign) && checked_mul(rhs, sign, rhs) &&
            checked_add(lhs, rhs, offset) && normalize(mark))
          return true;
        terms_.resize(mark);
        return false;
      }
      // Multiplication stays affine only against a pure literal factor;
      // symbolic coefficients (i*N) would need delinearization.
      const bool lhs_const = mid == mark;
      if (lhs_const || terms_.size() == mid) {
        if (scale(mark, lhs_const ? lhs : rhs) && checked_mul(lhs, rhs, offset) &&
            normalize(mark))
          return true;
        terms_.resize(mark);
        return false;
      }
      terms_.resize(mark);
      // fall through to the opaque-invariant rule
    }
    if (expr.kind == NodeKind::kUnaryOp && (expr.text == "-" || expr.text == "+")) {
      const long long sign = expr.text == "-" ? -1 : 1;
      if (build(expr.child(0), offset) && scale(mark, sign) &&
          checked_mul(offset, sign, offset))
        return true;
      terms_.resize(mark);
      return false;
    }
    // Loop-invariant but non-affine subtree (n*m, f(n), c[k] with invariant
    // k...): usable as one opaque symbol keyed by printed text — it cancels
    // against a textually identical subtree. Mutated names or quantified vars
    // inside disqualify it.
    if (mentions_outside(expr) || has_assignment(expr)) return false;
    scratch_.clear();
    frontend::append_expression(expr, scratch_);
    char* text = static_cast<char*>(texts_.allocate(scratch_.size(), 1));
    std::memcpy(text, scratch_.data(), scratch_.size());
    terms_.push_back({{text, scratch_.size()}, 1, false});
    offset = 0;
    return true;
  }

 private:
  bool mentions_outside(const Node& expr) const {
    bool found = false;
    frontend::walk(expr, [&](const Node& n, int) {
      if (n.kind == NodeKind::kID &&
          (contains(vars_, n.text) || contains(mutated_, n.text)))
        found = true;
    });
    return found;
  }

  bool scale(std::size_t from, long long factor) {
    for (std::size_t k = from; k < terms_.size(); ++k)
      if (!checked_mul(terms_[k].coeff, factor, terms_[k].coeff)) return false;
    return true;
  }

  /// Sorts the run from `from`, merges equal names and drops zeros.
  bool normalize(std::size_t from) {
    const auto first = terms_.begin() + static_cast<std::ptrdiff_t>(from);
    std::sort(first, terms_.end(), [](const AffineTerm& a, const AffineTerm& b) {
      return a.var != b.var ? a.var : a.name < b.name;
    });
    auto out = first;
    for (auto it = first; it != terms_.end(); ++it) {
      if (out != first && (out - 1)->var == it->var && (out - 1)->name == it->name) {
        if (!checked_add((out - 1)->coeff, it->coeff, (out - 1)->coeff)) return false;
      } else {
        *out++ = *it;
      }
    }
    terms_.erase(
        std::remove_if(first, out, [](const AffineTerm& t) { return t.coeff == 0; }),
        terms_.end());
    return true;
  }

  std::span<const std::string_view> vars_;
  std::span<const std::string_view> mutated_;
  std::pmr::vector<AffineTerm>& terms_;
  std::pmr::memory_resource& texts_;
  std::string& scratch_;
};

}  // namespace

AffineForm analyze_affine(const Node& expr, const SubscriptEnv& env) {
  const std::vector<std::string_view> vars(env.vars.begin(), env.vars.end());
  const std::vector<std::string_view> mutated(env.mutated.begin(), env.mutated.end());
  std::pmr::monotonic_buffer_resource memory;
  std::pmr::vector<AffineTerm> terms(&memory);
  std::string scratch;
  AffineForm form;
  if (!AffineBuilder(vars, mutated, terms, memory, scratch).build(expr, form.offset))
    return form;
  form.affine = true;
  for (const AffineTerm& t : terms)
    (t.var ? form.coeffs : form.symbols)[std::string(t.name)] = t.coeff;
  return form;
}

const char* dep_test_name(DepTest test) {
  switch (test) {
    case DepTest::kConservative: return "conservative";
    case DepTest::kZiv: return "ziv";
    case DepTest::kStrongSiv: return "strong-siv";
    case DepTest::kGcd: return "gcd";
    case DepTest::kBanerjee: return "banerjee";
    case DepTest::kTextPinned: return "text-pinned";
    case DepTest::kScalar: return "scalar-recurrence";
  }
  return "unknown";
}

std::string direction_text(unsigned dirs) {
  switch (dirs & kDirAll) {
    case 0: return "0";
    case kDirLt: return "<";
    case kDirEq: return "=";
    case kDirGt: return ">";
    case kDirLt | kDirEq: return "<=";
    case kDirEq | kDirGt: return ">=";
    case kDirLt | kDirGt: return "<>";
    default: return "*";
  }
}

bool PairResult::carried() const {
  if (!possible) return false;
  if (levels.empty()) return true;  // conservative: no level information
  return (levels.front().dirs & (kDirLt | kDirGt)) != 0;
}

std::optional<long long> PairResult::carried_distance() const {
  if (!possible || levels.empty()) return std::nullopt;
  return levels.front().distance;
}

// ---------------------------------------------------------------------------
// NestContext

NestContext::NestContext(const LoopScan& scan) : scan_(&scan) {
  CLPP_CHECK_MSG(scan.canonical() != nullptr, "NestContext expects a canonical loop");
  // Non-canonical loops contribute no binding: their inductions stay in
  // `mutated` and any subscript that mentions one degrades to a
  // conservative answer.
  const AccessSet& body = scan.body();
  for (const NestLoop& loop : body.loops) vars_.push_back(loop.canon.induction);
  for (const Access& a : body.accesses)
    if (a.is_write && !a.is_array && !contains(mutated_, a.variable))
      mutated_.push_back(a.variable);
  lower_bounds_.reserve(body.loops.size());
  for (const NestLoop& loop : body.loops)
    lower_bounds_.push_back(build_form(*loop.canon.lower));
  lowered_.resize(body.subscript_table.size());
}

const std::pmr::vector<NestLoop>& NestContext::loops() const {
  return scan_->body().loops;
}

NestContext::Form NestContext::build_form(const Node& expr) {
  Form form;
  form.begin = static_cast<std::uint32_t>(affine_terms_.size());
  form.affine = AffineBuilder(vars_, mutated_, affine_terms_, memory_, src_text_)
                    .build(expr, form.offset);
  form.end = static_cast<std::uint32_t>(affine_terms_.size());
  return form;
}

const NestContext::Lowered& NestContext::lowered(const Access& access, std::size_t dim) {
  const auto& table = scan_->body().subscript_table;
  Lowered& out = lowered_[static_cast<std::size_t>(&access.subscripts[dim] - table.data())];
  if (out.ready) return out;
  out.ready = true;
  const std::size_t mark = affine_terms_.size();
  const Form form = build_form(*access.subscripts[dim]);
  out.terms_begin = static_cast<std::uint32_t>(loop_terms_.size());
  out.syms_begin = static_cast<std::uint32_t>(sym_terms_.size());
  out.ok = lower(form, access.loop, 1, out.terms_begin, out.syms_begin, out.constant);
  affine_terms_.resize(mark);  // the lower bounds' runs stay
  if (!out.ok) {
    loop_terms_.resize(out.terms_begin);
    sym_terms_.resize(out.syms_begin);
  }
  const auto terms = loop_terms_.begin() + out.terms_begin;
  loop_terms_.erase(std::remove_if(terms, loop_terms_.end(),
                                   [](const LoopTerm& t) { return t.coeff == 0; }),
                    loop_terms_.end());
  const auto syms = sym_terms_.begin() + out.syms_begin;
  sym_terms_.erase(std::remove_if(syms, sym_terms_.end(),
                                  [](const SymTerm& t) { return t.coeff == 0; }),
                   sym_terms_.end());
  std::sort(sym_terms_.begin() + out.syms_begin, sym_terms_.end(),
            [](const SymTerm& a, const SymTerm& b) { return a.text < b.text; });
  out.terms_end = static_cast<std::uint32_t>(loop_terms_.size());
  out.syms_end = static_cast<std::uint32_t>(sym_terms_.size());
  return out;
}

// Lowers one affine form into iteration-count variables:
// value(v bound at loop L) = lower_L + step_L * t(L), recursing into lower
// bounds that reference outer inductions. A name binds to the innermost
// loop of its induction at or outside `inner`. Coefficients accumulate into
// the runs from `terms_begin` and `syms_begin`. A value that saturates or
// overflows fails the lowering, which answers the pair conservatively.
bool NestContext::lower(const Form& form, std::uint32_t inner, long long scale,
                        std::uint32_t terms_begin, std::uint32_t syms_begin,
                        long long& constant) {
  if (!form.affine) return false;
  constant = sat_add(constant, sat_mul(scale, form.offset));
  if (!exact(constant)) return false;
  for (std::uint32_t k = form.begin; k < form.end; ++k) {
    const AffineTerm term = affine_terms_[k];
    if (term.var) continue;
    long long coeff = 0;
    if (!checked_mul(scale, term.coeff, coeff)) return false;
    const auto sym = std::find_if(sym_terms_.begin() + syms_begin, sym_terms_.end(),
                                  [&](const SymTerm& s) { return s.text == term.name; });
    if (sym == sym_terms_.end())
      sym_terms_.push_back({term.name, coeff});
    else if (!checked_add(sym->coeff, coeff, sym->coeff))
      return false;
  }
  const auto& nest = loops();
  for (std::uint32_t k = form.begin; k < form.end; ++k) {
    const AffineTerm term = affine_terms_[k];
    if (!term.var) continue;
    std::uint32_t rec = inner;
    while (rec != kNoLoop && nest[rec].canon.induction != term.name)
      rec = nest[rec].outer;
    if (rec == kNoLoop) return false;  // not bound here: stay conservative
    const long long coeff = sat_mul(scale, term.coeff);
    const long long step = sat_mul(coeff, nest[rec].canon.step);
    if (!exact(coeff) || !exact(step)) return false;
    const auto slot = std::find_if(loop_terms_.begin() + terms_begin, loop_terms_.end(),
                                   [&](const LoopTerm& t) { return t.loop == rec; });
    if (slot == loop_terms_.end())
      loop_terms_.push_back({rec, step});
    else if (!checked_add(slot->coeff, step, slot->coeff) || !exact(slot->coeff))
      return false;
    if (!lower(lower_bounds_[rec], nest[rec].outer, coeff, terms_begin, syms_begin,
               constant))
      return false;
  }
  return true;
}

// Identical-subscript rule: two textually identical subscripts —
// G[(i*NL)+j] on both sides — address the same element exactly when the
// mentioned inductions agree, because a pure arithmetic index expression is
// injective in practice for real linearized subscripts (row-major i*N+j
// with j < N). That pins every mentioned level to the `=` direction. The
// rule is OFF for subscripts routed through memory or calls (A[idx[i]],
// A[f(i)]) — those maps are arbitrary and can collide across iterations —
// and for expressions reading body-mutated scalars, where text equality no
// longer means value equality. Marks the pinned levels of common_.
bool NestContext::identical_subscripts(const Node& src, const Node& snk) {
  src_text_.clear();
  snk_text_.clear();
  frontend::append_expression(src, src_text_);
  frontend::append_expression(snk, snk_text_);
  if (src_text_ != snk_text_ || has_assignment(src)) return false;
  bool opaque = false;
  mentioned_.clear();
  frontend::walk(src, [&](const Node& n, int) {
    if (n.kind == NodeKind::kArrayRef || n.kind == NodeKind::kFuncCall) opaque = true;
    if (n.kind != NodeKind::kID) return;
    mentioned_.push_back(n.text);
    // Canonical inductions are "mutated" by their own loop headers; they
    // are exactly what the rule pins, so only other written scalars
    // disqualify it.
    if (contains(mutated_, n.text) && !contains(vars_, n.text)) opaque = true;
  });
  if (opaque) return false;
  for (Level& level : common_)
    if (contains(mentioned_, loops()[level.loop].canon.induction)) level.force_eq = true;
  return true;
}

// Direction-class test for dimension `dim` at level `lvl`: substitute the
// class constraint on (t_src, t_snk) of `lvl`, then refute with a GCD
// divisibility test and Banerjee-style interval bounds. Every remaining
// variable v ranges over [0, hi] (hi == nullopt: unbounded).
bool NestContext::class_possible(const Dim& dim, std::uint32_t lvl, unsigned cls,
                                 Mechanisms& mech) const {
  if (!dim.ok) return true;  // no constraint from this dimension
  const auto& nest = loops();
  const auto bound_of = [&](std::uint32_t loop,
                            long long less) -> std::optional<long long> {
    if (!nest[loop].trip) return std::nullopt;
    return *nest[loop].trip - less;
  };
  const std::span<const LoopTerm> src_terms(loop_terms_.data() + dim.src->terms_begin,
                                            dim.src->terms_end - dim.src->terms_begin);
  const std::span<const LoopTerm> snk_terms(loop_terms_.data() + dim.snk->terms_begin,
                                            dim.snk->terms_end - dim.snk->terms_begin);

  // The difference src - snk: the sink's coefficients enter negated.
  long long c_src = 0, c_snk = 0;
  for (const LoopTerm& t : src_terms)
    if (t.loop == lvl) c_src = t.coeff;
  for (const LoopTerm& t : snk_terms)
    if (t.loop == lvl) c_snk = -t.coeff;
  long long constant = dim.constant;
  struct Var {
    long long c;
    std::optional<long long> hi;
  };
  std::array<Var, 2> level_vars;
  std::size_t n_level_vars = 1;
  if (cls == kDirEq) {
    // t_src == t_snk == t in [0, trip-1].
    level_vars[0] = {c_src + c_snk, bound_of(lvl, 1)};
  } else {
    // t_snk = t_src + d (or t_src = t_snk + d), d = 1 + d', d' >= 0.
    const long long c_far = cls == kDirLt ? c_snk : c_src;
    level_vars = {Var{c_src + c_snk, bound_of(lvl, 2)}, Var{c_far, bound_of(lvl, 2)}};
    n_level_vars = 2;
    constant = sat_add(constant, c_far);
  }
  const auto for_each_var = [&](const auto& fn) {
    for (const LoopTerm& t : src_terms)
      if (t.loop != lvl) fn(t.coeff, bound_of(t.loop, 1));
    for (const LoopTerm& t : snk_terms)
      if (t.loop != lvl) fn(-t.coeff, bound_of(t.loop, 1));
    for (std::size_t v = 0; v < n_level_vars; ++v) fn(level_vars[v].c, level_vars[v].hi);
  };

  bool empty_range = false;
  long long g = 0;
  for_each_var([&](long long c, std::optional<long long> hi) {
    if (hi && *hi < 0) empty_range = true;
    if (c != 0) g = std::gcd(g, c < 0 ? -c : c);
  });
  if (empty_range) {
    mech.refuter = DepTest::kBanerjee;  // bounds argument: empty range
    return false;
  }
  if (g == 0) {
    // No free variables left: a pure constant difference — ZIV.
    mech.ziv = true;
    if (constant != 0) mech.refuter = DepTest::kZiv;
    return constant == 0;
  }
  mech.gcd = true;
  if (constant % g != 0) {
    mech.refuter = DepTest::kGcd;
    return false;
  }

  long long lo_sum = constant, hi_sum = constant;
  bool lo_inf = false, hi_inf = false;
  for_each_var([&](long long c, std::optional<long long> hi) {
    if (c == 0) return;
    if (!hi) {
      (c > 0 ? hi_inf : lo_inf) = true;
      return;
    }
    const long long extent = sat_mul(c, *hi);
    lo_sum = sat_add(lo_sum, std::min(0LL, extent));
    hi_sum = sat_add(hi_sum, std::max(0LL, extent));
  });
  mech.banerjee = true;
  const bool feasible = (lo_inf || lo_sum <= 0) && (hi_inf || hi_sum >= 0);
  if (!feasible) mech.refuter = DepTest::kBanerjee;
  return feasible;
}

// Strong-SIV pinning: a dimension whose only variables are this level's
// pair with opposite coefficients fixes the iteration distance exactly.
std::optional<long long> NestContext::pinned_distance(const Dim& dim,
                                                      std::uint32_t lvl) const {
  if (!dim.ok) return std::nullopt;
  const std::uint32_t terms = dim.src->terms_end - dim.src->terms_begin +
                              dim.snk->terms_end - dim.snk->terms_begin;
  if (terms != 2) return std::nullopt;
  const auto coeff_at = [&](const Lowered& side) -> std::optional<long long> {
    for (std::uint32_t k = side.terms_begin; k < side.terms_end; ++k)
      if (loop_terms_[k].loop == lvl) return loop_terms_[k].coeff;
    return std::nullopt;
  };
  const auto s = coeff_at(*dim.src);
  const auto k = coeff_at(*dim.snk);
  // In src - snk the sink's coefficient is -*k: opposite coefficients are
  // equal ones here.
  if (!s || !k || *s != *k || *s == 0) return std::nullopt;
  if (dim.constant % *s != 0) return std::nullopt;
  return dim.constant / *s;  // delta = t_snk - t_src
}

PairResult NestContext::test_pair(const Access& src, const Access& snk) {
  const auto& nest = loops();
  if (src.loop == kNoLoop || snk.loop == kNoLoop) {
    PairResult conservative;
    conservative.exact = false;
    conservative.levels.push_back({analyzed().induction, kDirAll, std::nullopt});
    return conservative;
  }

  // Common enclosing canonical loops: the analyzed loop down to the
  // innermost loop around both sites, found by walking the outer links.
  std::uint32_t shared = src.loop;
  for (std::uint32_t other = snk.loop; shared != other;) {
    if (nest[shared].depth >= nest[other].depth)
      shared = nest[shared].outer;
    else
      other = nest[other].outer;
  }
  common_.assign(nest[shared].depth, Level{});
  for (std::uint32_t rec = shared; rec != kNoLoop; rec = nest[rec].outer)
    common_[nest[rec].depth - 1].loop = rec;

  const std::size_t rank = std::min(src.subscripts.size(), snk.subscripts.size());
  dims_.clear();
  for (std::size_t d = 0; d < rank; ++d) {
    Dim dim;
    const Lowered& src_dim = lowered(src, d);
    if (!src_dim.ok || !lowered(snk, d).ok) {
      dim.text_pinned = identical_subscripts(*src.subscripts[d], *snk.subscripts[d]);
      dims_.push_back(dim);
      continue;
    }
    const Lowered& snk_dim = lowered(snk, d);
    // Symbolic terms must cancel: both sides' merged runs are equal.
    dim.ok = std::equal(sym_terms_.begin() + src_dim.syms_begin,
                        sym_terms_.begin() + src_dim.syms_end,
                        sym_terms_.begin() + snk_dim.syms_begin,
                        sym_terms_.begin() + snk_dim.syms_end,
                        [](const SymTerm& a, const SymTerm& b) {
                          return a.text == b.text && a.coeff == b.coeff;
                        });
    dim.src = &src_dim;
    dim.snk = &snk_dim;
    dim.constant = sat_add(src_dim.constant, -snk_dim.constant);
    dims_.push_back(dim);
  }

  PairResult result;
  result.exact = std::all_of(dims_.begin(), dims_.end(),
                             [](const Dim& d) { return d.ok || d.text_pinned; });
  result.levels.reserve(common_.size());
  // Provenance bookkeeping: which hierarchy members actually ran on this
  // pair, and which one fired the most recent refutation.
  Mechanisms mech;
  for (const Level& common : common_) {
    const std::uint32_t lvl = common.loop;
    DepLevel level;
    level.var = nest[lvl].canon.induction;
    level.dirs = 0;
    DepTest kill = DepTest::kBanerjee;
    for (unsigned cls : {kDirLt, kDirEq, kDirGt}) {
      const bool ok = std::all_of(dims_.begin(), dims_.end(), [&](const Dim& d) {
        return class_possible(d, lvl, cls, mech);
      });
      if (ok)
        level.dirs |= cls;
      else
        kill = mech.refuter;
    }
    std::optional<long long> pin;
    bool conflict = false;
    for (const Dim& dim : dims_) {
      if (auto delta = pinned_distance(dim, lvl)) {
        if (pin && *pin != *delta) conflict = true;
        pin = delta;
      }
    }
    if (conflict) {
      level.dirs = 0;  // two dimensions demand different distances
      kill = DepTest::kStrongSiv;
    }
    if (pin && level.dirs != 0) {
      // A pinned distance must also survive the class test (trip bounds).
      const unsigned cls = *pin == 0 ? kDirEq : (*pin > 0 ? kDirLt : kDirGt);
      if ((level.dirs & cls) == 0) {
        level.dirs = 0;
        kill = DepTest::kStrongSiv;
      } else {
        level.dirs = cls;
        level.distance = pin;
      }
    }
    if (common.force_eq) {
      const unsigned before = level.dirs;
      level.dirs &= kDirEq;
      if (level.dirs == 0 && before != 0) kill = DepTest::kTextPinned;
    }
    result.levels.push_back(level);
    if (level.dirs == 0) {
      result.possible = false;
      result.deciding = kill;
      return result;
    }
  }

  // A dimension that rules out every class of every level independently can
  // only happen when the dimension itself has no solution at all (ZIV).
  for (const Dim& dim : dims_) {
    if (!dim.ok) continue;
    if (dim.src->terms_begin == dim.src->terms_end &&
        dim.snk->terms_begin == dim.snk->terms_end && dim.constant != 0) {
      result.possible = false;
      result.deciding = DepTest::kZiv;
      return result;
    }
  }

  // Provenance of a surviving pair: the deepest test that constrained it.
  // A pinned analyzed-level distance is a strong-SIV result; `=`-pins from
  // the identical-subscript rule are text-pinned; otherwise credit the
  // furthest hierarchy member that ran (Banerjee > GCD > ZIV).
  if (!result.exact) {
    result.deciding = DepTest::kConservative;
  } else if (!result.levels.empty() && result.levels.front().distance) {
    result.deciding = DepTest::kStrongSiv;
  } else if (!common_.empty() && common_.front().force_eq) {
    result.deciding = DepTest::kTextPinned;
  } else if (mech.banerjee) {
    result.deciding = DepTest::kBanerjee;
  } else if (mech.gcd) {
    result.deciding = DepTest::kGcd;
  } else {
    result.deciding = DepTest::kZiv;
  }
  return result;
}

}  // namespace clpp::analysis
