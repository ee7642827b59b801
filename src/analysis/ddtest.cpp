#include "analysis/ddtest.h"

#include <algorithm>
#include <functional>
#include <numeric>

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

bool mentions_outside(const Node& expr, const SubscriptEnv& env) {
  bool bad = false;
  frontend::walk(expr, [&](const Node& n, int) {
    if (n.kind == NodeKind::kID &&
        (env.vars.count(n.text) > 0 || env.mutated.count(n.text) > 0))
      bad = true;
  });
  return bad;
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

AffineForm not_affine() { return AffineForm{}; }

void fold_in(AffineForm& out, const AffineForm& in, long long scale) {
  for (const auto& [v, c] : in.coeffs) out.coeffs[v] += scale * c;
  for (const auto& [s, c] : in.symbols) out.symbols[s] += scale * c;
  out.offset += scale * in.offset;
}

void prune_zeros(AffineForm& f) {
  std::erase_if(f.coeffs, [](const auto& e) { return e.second == 0; });
  std::erase_if(f.symbols, [](const auto& e) { return e.second == 0; });
}

}  // namespace

AffineForm analyze_affine(const Node& expr, const SubscriptEnv& env) {
  if (auto value = literal_value(expr)) {
    AffineForm f;
    f.affine = true;
    f.offset = *value;
    return f;
  }
  if (expr.kind == NodeKind::kID) {
    AffineForm f;
    f.affine = true;
    if (env.vars.count(expr.text) > 0) {
      f.coeffs[expr.text] = 1;
    } else if (env.mutated.count(expr.text) == 0) {
      f.symbols[expr.text] = 1;
    } else {
      return not_affine();  // value changes inside the body: not cancelable
    }
    return f;
  }
  if (expr.kind == NodeKind::kBinaryOp &&
      (expr.text == "+" || expr.text == "-" || expr.text == "*")) {
    const AffineForm lhs = analyze_affine(expr.child(0), env);
    const AffineForm rhs = analyze_affine(expr.child(1), env);
    if (lhs.affine && rhs.affine) {
      if (expr.text == "+" || expr.text == "-") {
        AffineForm out = lhs;
        fold_in(out, rhs, expr.text == "+" ? 1 : -1);
        prune_zeros(out);
        return out;
      }
      // Multiplication stays affine only against a pure literal factor;
      // symbolic coefficients (i*N) would need delinearization.
      const bool lhs_const = lhs.coeffs.empty() && lhs.symbols.empty();
      const bool rhs_const = rhs.coeffs.empty() && rhs.symbols.empty();
      if (lhs_const || rhs_const) {
        AffineForm out;
        out.affine = true;
        fold_in(out, lhs_const ? rhs : lhs, lhs_const ? lhs.offset : rhs.offset);
        prune_zeros(out);
        return out;
      }
    }
    // fall through to the opaque-invariant rule
  }
  if (expr.kind == NodeKind::kUnaryOp && (expr.text == "-" || expr.text == "+")) {
    const AffineForm inner = analyze_affine(expr.child(0), env);
    if (inner.affine) {
      AffineForm out;
      out.affine = true;
      fold_in(out, inner, expr.text == "-" ? -1 : 1);
      prune_zeros(out);
      return out;
    }
  }
  // Loop-invariant but non-affine subtree (n*m, f(n), c[k] with invariant
  // k...): usable as one opaque symbol keyed by printed text — it cancels
  // against a textually identical subtree. Mutated names or quantified vars
  // inside disqualify it.
  if (!mentions_outside(expr, env) && !has_assignment(expr)) {
    AffineForm f;
    f.affine = true;
    f.symbols[frontend::print_expression(expr)] = 1;
    return f;
  }
  return not_affine();
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

namespace {

/// Orders NestContext's (site, loop) entries, sorted by site, against a site.
constexpr auto kBySite = [](const auto& entry, const Node* site) {
  return entry.first < site;
};

}  // namespace

NestContext::NestContext(const Node& loop, const AccessSet& accesses) {
  const auto canonical = canonicalize(loop);
  CLPP_CHECK_MSG(canonical.has_value(), "NestContext expects a canonical loop");
  analyzed_ = *canonical;

  // Record every canonical `for` in the nest and, for every access site,
  // the innermost canonical loop around it (analyzed loop outermost).
  // Non-canonical loops contribute no binding: their inductions stay in
  // `mutated` and any subscript that mentions one degrades to a
  // conservative answer.
  sites_.reserve(accesses.accesses.size());
  for (const Access& a : accesses.accesses) sites_.emplace_back(a.site, nullptr);
  std::sort(sites_.begin(), sites_.end());
  sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
  index_nest(loop, nullptr);

  for (const auto& rec : loops_) env_.vars.insert(rec->canon.induction);
  for (const Access& a : accesses.accesses)
    if (a.is_write && !a.is_array) env_.mutated.insert(a.variable);
}

void NestContext::index_nest(const Node& node, const LoopRec* enclosing) {
  if (node.kind == NodeKind::kFor) {
    if (auto canon = canonicalize(node)) {
      auto rec = std::make_unique<LoopRec>();
      rec->outer = enclosing;
      rec->depth = enclosing == nullptr ? 1 : enclosing->depth + 1;
      rec->trip = canon->static_trip_count();
      rec->canon = std::move(*canon);
      enclosing = rec.get();
      loops_.push_back(std::move(rec));
    }
  }
  const auto site = std::lower_bound(sites_.begin(), sites_.end(), &node, kBySite);
  if (site != sites_.end() && site->first == &node) site->second = enclosing;
  for (const auto& c : node.children) index_nest(*c, enclosing);
}

const NestContext::LoopRec* NestContext::innermost_of(const Node* site) const {
  const auto it = std::lower_bound(sites_.begin(), sites_.end(), site, kBySite);
  return it != sites_.end() && it->first == site ? it->second : nullptr;
}

namespace {

/// One side-tagged iteration-count variable t(side, loop).
using IterKey = std::pair<int, const void*>;

/// Linear difference src - snk over iteration-count variables.
struct LinearDiff {
  bool ok = true;  // false: fell back to conservative (no constraint)
  /// Non-affine dimension resolved by the identical-subscript rule: it
  /// contributes `=` pins instead of numeric terms and does not degrade
  /// the result to inexact.
  bool text_pinned = false;
  std::map<IterKey, long long> terms;
  long long constant = 0;
};

}  // namespace

PairResult NestContext::test_pair(const Access& src, const Access& snk) const {
  PairResult conservative;
  conservative.exact = false;
  conservative.levels.push_back({analyzed_.induction, kDirAll, std::nullopt});

  const LoopRec* inner_src = innermost_of(src.site);
  const LoopRec* inner_snk = innermost_of(snk.site);
  if (inner_src == nullptr || inner_snk == nullptr) return conservative;

  // Common enclosing canonical loops: the analyzed loop down to the
  // innermost loop around both sites, found by walking the outer links.
  const LoopRec* shared = inner_src;
  for (const LoopRec* other = inner_snk; shared != other;) {
    if (shared->depth >= other->depth)
      shared = shared->outer;
    else
      other = other->outer;
  }
  std::vector<const LoopRec*> common(shared->depth);
  for (const LoopRec* rec = shared; rec != nullptr; rec = rec->outer)
    common[rec->depth - 1] = rec;

  // Lower one side of one subscript into iteration-count variables:
  // value(v bound at loop L) = lower_L + step_L * t(side, L), recursing
  // into lower bounds that reference outer inductions. A name binds to the
  // innermost loop of its induction at or outside `inner`.
  std::function<bool(const AffineForm&, int, const LoopRec*, long long, LinearDiff&,
                     std::map<std::string, long long>&)>
      lower_form = [&](const AffineForm& form, int side, const LoopRec* inner,
                       long long scale, LinearDiff& out,
                       std::map<std::string, long long>& syms) {
        if (!form.affine) return false;
        out.constant = sat_add(out.constant, sat_mul(scale, form.offset));
        for (const auto& [sym, c] : form.symbols) syms[sym] += scale * c;
        for (const auto& [name, c] : form.coeffs) {
          const LoopRec* rec = inner;
          while (rec != nullptr && rec->canon.induction != name) rec = rec->outer;
          if (rec == nullptr) return false;  // not bound here: stay conservative
          const long long coeff = sat_mul(scale, c);
          out.terms[{side, rec}] += sat_mul(coeff, rec->canon.step);
          const AffineForm low = analyze_affine(*rec->canon.lower, env_);
          if (!lower_form(low, side, rec->outer, coeff, out, syms)) return false;
        }
        return true;
      };

  const std::size_t rank = std::min(src.subscripts.size(), snk.subscripts.size());
  std::vector<LinearDiff> dims;
  // Levels an identical-text dimension pins to the `=` direction (below).
  std::set<const LoopRec*> force_eq;
  for (std::size_t d = 0; d < rank; ++d) {
    LinearDiff diff;
    std::map<std::string, long long> syms;
    const AffineForm fs = analyze_affine(*src.subscripts[d], env_);
    const AffineForm fk = analyze_affine(*snk.subscripts[d], env_);
    LinearDiff pos, neg;
    std::map<std::string, long long> syms_pos, syms_neg;
    if (!lower_form(fs, 1, inner_src, 1, pos, syms_pos) ||
        !lower_form(fk, 2, inner_snk, 1, neg, syms_neg)) {
      diff.ok = false;
      dims.push_back(diff);
      // Identical-subscript rule: two textually identical subscripts —
      // G[(i*NL)+j] on both sides — address the same element exactly when
      // the mentioned inductions agree, because a pure arithmetic index
      // expression is injective in practice for real linearized subscripts
      // (row-major i*N+j with j < N). That pins every mentioned level to
      // the `=` direction. The rule is OFF for subscripts routed through
      // memory or calls (A[idx[i]], A[f(i)]) — those maps are arbitrary
      // and can collide across iterations — and for expressions reading
      // body-mutated scalars, where text equality no longer means value
      // equality.
      if (frontend::print_expression(*src.subscripts[d]) ==
              frontend::print_expression(*snk.subscripts[d]) &&
          !has_assignment(*src.subscripts[d])) {
        bool opaque = false;
        std::set<std::string> mentioned;
        frontend::walk(*src.subscripts[d], [&](const Node& n, int) {
          if (n.kind == NodeKind::kArrayRef || n.kind == NodeKind::kFuncCall)
            opaque = true;
          if (n.kind != NodeKind::kID) return;
          mentioned.insert(n.text);
          // Canonical inductions are "mutated" by their own loop headers;
          // they are exactly what the rule pins, so only other written
          // scalars disqualify it.
          if (env_.mutated.count(n.text) > 0 && env_.vars.count(n.text) == 0)
            opaque = true;
        });
        if (!opaque) {
          dims.back().text_pinned = true;
          for (const LoopRec* lvl : common)
            if (mentioned.count(lvl->canon.induction) > 0) force_eq.insert(lvl);
        }
      }
      continue;
    }
    for (const auto& [k, c] : pos.terms) diff.terms[k] += c;
    for (const auto& [k, c] : neg.terms) diff.terms[k] -= c;
    diff.constant = sat_add(pos.constant, -neg.constant);
    for (const auto& [s, c] : syms_pos) syms[s] += c;
    for (const auto& [s, c] : syms_neg) syms[s] -= c;
    std::erase_if(diff.terms, [](const auto& e) { return e.second == 0; });
    const bool syms_cancel =
        std::all_of(syms.begin(), syms.end(), [](const auto& e) { return e.second == 0; });
    if (!syms_cancel) diff.ok = false;  // unresolved symbolic difference
    dims.push_back(diff);
  }

  // Provenance bookkeeping: which hierarchy members actually ran on this
  // pair, and which one fired the most recent refutation. `refuter` is only
  // meaningful right after a class_possible call returned false.
  struct Mechanisms {
    bool ziv = false, gcd = false, banerjee = false;
    DepTest refuter = DepTest::kBanerjee;
  } mech;

  // Direction-class test for dimension `diff` at level `lvl`: substitute the
  // class constraint on (t_src, t_snk) of `lvl`, then refute with a GCD
  // divisibility test and Banerjee-style interval bounds. Every remaining
  // variable v ranges over [0, hi] (hi == nullopt: unbounded).
  const auto class_possible = [&](const LinearDiff& diff, const LoopRec* lvl,
                                  unsigned cls) {
    if (!diff.ok) return true;  // no constraint from this dimension
    std::vector<std::pair<long long, std::optional<long long>>> vars;
    long long constant = diff.constant;

    const auto bound_of = [](const LoopRec* rec,
                             long long less) -> std::optional<long long> {
      if (!rec->trip) return std::nullopt;
      return *rec->trip - less;
    };

    long long c_src = 0, c_snk = 0;
    for (const auto& [key, c] : diff.terms) {
      if (key.second == static_cast<const void*>(lvl)) {
        (key.first == 1 ? c_src : c_snk) = c;
        continue;
      }
      const auto* rec = static_cast<const LoopRec*>(key.second);
      vars.push_back({c, bound_of(rec, 1)});
    }
    if (cls == kDirEq) {
      // t_src == t_snk == t in [0, trip-1].
      vars.push_back({c_src + c_snk, bound_of(lvl, 1)});
    } else {
      // t_snk = t_src + d (or t_src = t_snk + d), d = 1 + d', d' >= 0.
      const long long c_far = cls == kDirLt ? c_snk : c_src;
      vars.push_back({c_src + c_snk, bound_of(lvl, 2)});
      vars.push_back({c_far, bound_of(lvl, 2)});
      constant = sat_add(constant, c_far);
    }

    long long g = 0;
    for (const auto& [c, hi] : vars) {
      if (hi && *hi < 0) {
        mech.refuter = DepTest::kBanerjee;  // bounds argument: empty range
        return false;
      }
      if (c != 0) g = std::gcd(g, c < 0 ? -c : c);
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
    for (const auto& [c, hi] : vars) {
      if (c == 0) continue;
      if (!hi) {
        (c > 0 ? hi_inf : lo_inf) = true;
        continue;
      }
      const long long extent = sat_mul(c, *hi);
      lo_sum = sat_add(lo_sum, std::min(0LL, extent));
      hi_sum = sat_add(hi_sum, std::max(0LL, extent));
    }
    mech.banerjee = true;
    const bool feasible = (lo_inf || lo_sum <= 0) && (hi_inf || hi_sum >= 0);
    if (!feasible) mech.refuter = DepTest::kBanerjee;
    return feasible;
  };

  // Strong-SIV pinning: a dimension whose only variables are this level's
  // pair with opposite coefficients fixes the iteration distance exactly.
  const auto pinned_distance =
      [&](const LinearDiff& diff, const LoopRec* lvl) -> std::optional<long long> {
    if (!diff.ok || diff.terms.size() != 2) return std::nullopt;
    const auto s = diff.terms.find({1, lvl});
    const auto k = diff.terms.find({2, lvl});
    if (s == diff.terms.end() || k == diff.terms.end()) return std::nullopt;
    if (s->second != -k->second || s->second == 0) return std::nullopt;
    if (diff.constant % s->second != 0) return std::nullopt;
    return diff.constant / s->second;  // delta = t_snk - t_src
  };

  PairResult result;
  for (const LinearDiff& diff : dims) {
    if (!diff.ok && !diff.text_pinned) result.exact = false;
  }

  for (const LoopRec* lvl : common) {
    DepLevel level;
    level.var = lvl->canon.induction;
    level.dirs = 0;
    DepTest kill = DepTest::kBanerjee;
    for (unsigned cls : {kDirLt, kDirEq, kDirGt}) {
      const bool ok = std::all_of(dims.begin(), dims.end(), [&](const LinearDiff& d) {
        return class_possible(d, lvl, cls);
      });
      if (ok)
        level.dirs |= cls;
      else
        kill = mech.refuter;
    }
    std::optional<long long> pin;
    bool conflict = false;
    for (const LinearDiff& diff : dims) {
      if (auto delta = pinned_distance(diff, lvl)) {
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
    if (force_eq.count(lvl) > 0) {
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
  for (const LinearDiff& diff : dims) {
    if (!diff.ok) continue;
    if (diff.terms.empty() && diff.constant != 0) {
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
  } else if (!common.empty() && force_eq.count(common.front()) > 0) {
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
