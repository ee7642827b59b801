#include "analysis/depend.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "frontend/printer.h"
#include "obs/metrics.h"

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;
using frontend::Reduction;
using frontend::ReductionOp;

namespace {

bool mentions(const Node& expr, const std::string& name) {
  bool found = false;
  frontend::walk(expr, [&](const Node& n, int) {
    if (n.kind == NodeKind::kID && n.text == name) found = true;
  });
  return found;
}

/// Printed form of one access, e.g. "A[i][j + 1]".
std::string access_text(const Access& a) {
  std::string out = a.variable;
  for (const Node* s : a.subscripts)
    out += "[" + frontend::print_expression(*s) + "]";
  return out;
}

/// "(<, =)"-style rendering of a pair's direction vector.
std::string direction_vector(const PairResult& pair) {
  std::string direction = "(";
  for (std::size_t l = 0; l < pair.levels.size(); ++l) {
    if (l > 0) direction += ", ";
    direction += direction_text(pair.levels[l].dirs);
  }
  return direction + ")";
}

/// clpp.ddtest.* decision counters — one per deciding test plus a total.
/// References are resolved once (the registry lookup locks); Counter::add
/// is a relaxed fetch_add gated on obs::enabled().
void count_decision(DepTest test) {
  auto& m = obs::metrics();
  static obs::Counter& pairs = m.counter("clpp.ddtest.pairs");
  static obs::Counter& conservative = m.counter("clpp.ddtest.conservative");
  static obs::Counter& ziv = m.counter("clpp.ddtest.ziv");
  static obs::Counter& strong_siv = m.counter("clpp.ddtest.strong_siv");
  static obs::Counter& gcd = m.counter("clpp.ddtest.gcd");
  static obs::Counter& banerjee = m.counter("clpp.ddtest.banerjee");
  static obs::Counter& text_pinned = m.counter("clpp.ddtest.text_pinned");
  static obs::Counter& scalar = m.counter("clpp.ddtest.scalar");
  pairs.add(1);
  switch (test) {
    case DepTest::kConservative: conservative.add(1); break;
    case DepTest::kZiv: ziv.add(1); break;
    case DepTest::kStrongSiv: strong_siv.add(1); break;
    case DepTest::kGcd: gcd.add(1); break;
    case DepTest::kBanerjee: banerjee.add(1); break;
    case DepTest::kTextPinned: text_pinned.add(1); break;
    case DepTest::kScalar: scalar.add(1); break;
  }
}

}  // namespace

std::string provenance_text(const PairProvenance& provenance) {
  std::string out = provenance.test;
  out += ": ";
  if (provenance.scalar)
    out += "'" + provenance.array + "' scalar recurrence";
  else
    out += provenance.src_text + " vs " + provenance.snk_text;
  if (!provenance.possible)
    out += ", refuted";
  else if (!provenance.carried)
    out += ", same-iteration only";
  else
    out += ", carried";
  if (!provenance.direction.empty()) out += ", direction " + provenance.direction;
  if (provenance.distance)
    out += ", distance " + std::to_string(*provenance.distance);
  if (!provenance.exact) out += " (conservative)";
  return out;
}

DependenceAnalyzer::DependenceAnalyzer(const SideEffectOracle& oracle,
                                       AnalyzerOptions options)
    : oracle_(&oracle), options_(options) {}

LoopVerdict DependenceAnalyzer::analyze(const Node& loop) const {
  // canonicalize() turns away a For without its four children before the
  // body is read.
  return analyze(loop, loop.children.size() == 4 ? collect_accesses(loop.child(3))
                                                 : AccessSet{});
}

LoopVerdict DependenceAnalyzer::analyze(const Node& loop, const AccessSet& accesses) const {
  LoopVerdict verdict;
  const auto canonical = canonicalize(loop);
  if (!canonical) {
    verdict.notes.push_back("loop is not in canonical form");
    return verdict;
  }
  verdict.canonical = true;
  verdict.induction = canonical->induction;
  verdict.trip_count = canonical->static_trip_count();

  const Node& body = loop.child(3);

  if (has_early_exit(body)) {
    verdict.notes.push_back("body has early exit (break/goto/return)");
    return verdict;
  }

  // Hazards first: these abort analysis entirely (the "bail" behaviour the
  // paper's ComPar exhibits on 526/3547 test snippets).
  if (accesses.hazards.function_pointer_call) {
    verdict.bailed = true;
    verdict.notes.push_back("call through function pointer");
    return verdict;
  }
  if (accesses.hazards.struct_access && options_.bail_on_struct_access) {
    verdict.bailed = true;
    verdict.notes.push_back("struct member access unsupported");
    return verdict;
  }
  if (accesses.hazards.pointer_deref_write) {
    verdict.bailed = true;
    verdict.notes.push_back("write through pointer dereference");
    return verdict;
  }

  // Side effects of calls.
  std::set<std::string> seen_calls;
  for (const std::string& callee : accesses.hazards.called_functions) {
    if (!seen_calls.insert(callee).second) continue;
    const CallEffect effect = oracle_->effect_of(callee);
    switch (effect) {
      case CallEffect::kPure:
        break;
      case CallEffect::kIo:
        verdict.notes.push_back("calls I/O function '" + callee + "'");
        return verdict;
      case CallEffect::kAllocates:
        verdict.notes.push_back("calls allocator '" + callee + "'");
        return verdict;
      case CallEffect::kWritesArgs:
        // Serial without testing a pair: a conservative answer, not a proof.
        // Not a bail, which S2S would count as a compile failure.
        verdict.conservative = true;
        verdict.notes.push_back("call to '" + callee + "' may write shared memory");
        return verdict;
      case CallEffect::kUnknown:
        if (!options_.assume_unknown_calls_pure) {
          verdict.bailed = true;
          verdict.notes.push_back("unknown side effects of '" + callee + "'");
          return verdict;
        }
        verdict.notes.push_back("assuming unknown call '" + callee + "' is pure");
        break;
    }
  }

  analyze_arrays(loop, accesses, verdict);
  analyze_scalars(body, canonical->induction, accesses, verdict);

  if (!verdict.dependences.empty()) {
    verdict.parallelizable = false;
    return verdict;
  }

  if (options_.min_trip_count > 0 && verdict.trip_count &&
      *verdict.trip_count < options_.min_trip_count) {
    verdict.notes.push_back("trip count " + std::to_string(*verdict.trip_count) +
                            " below profitability threshold");
    verdict.parallelizable = false;
    return verdict;
  }

  verdict.parallelizable = true;
  return verdict;
}

void DependenceAnalyzer::analyze_arrays(const Node& loop, const AccessSet& accesses,
                                        LoopVerdict& verdict) const {
  // Direction/distance vectors per access pair over the whole canonical
  // nest (see ddtest.h).
  const NestContext nest(loop, accesses);

  std::map<std::string, std::vector<const Access*>> arrays;
  for (const Access& a : accesses.accesses)
    if (a.is_array) arrays[a.variable].push_back(&a);

  for (const auto& [name, list] : arrays) {
    const bool any_write =
        std::any_of(list.begin(), list.end(), [](const Access* a) { return a->is_write; });
    if (!any_write) continue;

    bool reported = false;
    for (std::size_t wi = 0; wi < list.size() && !reported; ++wi) {
      const Access* w = list[wi];
      if (!w->is_write) continue;
      const int dep_line = w->site ? w->site->line : 0;
      const int dep_column = w->site ? w->site->column : 0;
      // Every (write, other) pair, including the write against itself:
      // `a[0] = i` self-conflicts across iterations (output dependence).
      // Write-write pairs are tested once (oi >= wi).
      for (std::size_t oi = 0; oi < list.size(); ++oi) {
        const Access* other = list[oi];
        if (other->is_write && oi < wi) continue;
        if (w->subscripts.size() != other->subscripts.size()) {
          ++verdict.dep_pairs_tested;
          ++verdict.dep_pairs_unknown;
          count_decision(DepTest::kConservative);
          PairProvenance prov;
          prov.array = name;
          prov.src_text = access_text(*w);
          prov.snk_text = access_text(*other);
          prov.test = dep_test_name(DepTest::kConservative);
          prov.carried = true;
          prov.exact = false;
          prov.line = dep_line;
          verdict.pair_provenance.push_back(std::move(prov));
          Dependence mismatch;
          mismatch.variable = name;
          mismatch.detail = "accesses with different dimensionality";
          mismatch.line = dep_line;
          mismatch.column = dep_column;
          mismatch.deciding_test = dep_test_name(DepTest::kConservative);
          verdict.dependences.push_back(std::move(mismatch));
          reported = true;
          break;
        }
        ++verdict.dep_pairs_tested;
        const PairResult pair = nest.test_pair(*w, *other);
        if (!pair.exact) ++verdict.dep_pairs_unknown;
        count_decision(pair.deciding);
        PairProvenance prov;
        prov.array = name;
        prov.src_text = access_text(*w);
        prov.snk_text = access_text(*other);
        prov.test = dep_test_name(pair.deciding);
        prov.possible = pair.possible;
        prov.carried = pair.possible && pair.carried();
        prov.exact = pair.exact;
        prov.distance = pair.carried_distance();
        prov.direction = direction_vector(pair);
        prov.line = dep_line;
        verdict.pair_provenance.push_back(prov);
        if (!pair.possible || !pair.carried()) continue;

        Dependence dep;
        dep.variable = name;
        dep.line = dep_line;
        dep.column = dep_column;
        dep.detail = pair.exact ? "loop-carried dependence"
                                : "subscript too complex for dependence test";
        dep.distance = pair.carried_distance();
        if (dep.distance) dep.distance = std::abs(*dep.distance);
        dep.direction = prov.direction;
        dep.deciding_test = prov.test;
        verdict.dependences.push_back(std::move(dep));
        reported = true;
        break;
      }
    }
  }
}

namespace {

/// Recognizes whether `stmt` is a reduction statement over scalar `s`.
/// Returns the operator, and appends every node of the statement subtree to
/// `covered` so the caller can verify no other accesses of `s` exist.
std::optional<ReductionOp> match_reduction_stmt(const Node& stmt, const std::string& s,
                                                bool allow_minmax,
                                                std::set<const Node*>& covered) {
  auto cover = [&covered](const Node& root) {
    frontend::walk(root, [&](const Node& n, int) { covered.insert(&n); });
  };

  const Node* expr = &stmt;
  if (expr->kind == NodeKind::kExprStmt) expr = &expr->child(0);

  if (expr->kind == NodeKind::kAssignment && expr->child(0).kind == NodeKind::kID &&
      expr->child(0).text == s) {
    const Node& rhs = expr->child(1);
    if (expr->text == "+=" && !mentions(rhs, s)) {
      cover(stmt);
      return ReductionOp::kAdd;
    }
    if (expr->text == "-=" && !mentions(rhs, s)) {
      cover(stmt);
      return ReductionOp::kSub;
    }
    if (expr->text == "*=" && !mentions(rhs, s)) {
      cover(stmt);
      return ReductionOp::kMul;
    }
    if (expr->text == "=") {
      // s = s + e | s = e + s | s = s * e | s = e * s | s = fmax(s, e)...
      if (rhs.kind == NodeKind::kBinaryOp && (rhs.text == "+" || rhs.text == "*")) {
        const Node& l = rhs.child(0);
        const Node& r = rhs.child(1);
        const bool l_is_s = l.kind == NodeKind::kID && l.text == s;
        const bool r_is_s = r.kind == NodeKind::kID && r.text == s;
        if (l_is_s != r_is_s) {
          const Node& other = l_is_s ? r : l;
          if (!mentions(other, s)) {
            cover(stmt);
            return rhs.text == "+" ? ReductionOp::kAdd : ReductionOp::kMul;
          }
        }
      }
      if (rhs.kind == NodeKind::kBinaryOp && rhs.text == "-") {
        const Node& l = rhs.child(0);
        if (l.kind == NodeKind::kID && l.text == s && !mentions(rhs.child(1), s)) {
          cover(stmt);
          return ReductionOp::kSub;
        }
      }
      if (rhs.kind == NodeKind::kFuncCall && rhs.child(0).kind == NodeKind::kID) {
        const std::string& fn = rhs.child(0).text;
        if ((fn == "fmax" || fn == "fmin" || fn == "max" || fn == "min" ||
             fn == "MAX" || fn == "MIN") &&
            rhs.child(1).children.size() == 2) {
          const Node& a0 = rhs.child(1).child(0);
          const Node& a1 = rhs.child(1).child(1);
          const bool first_is_s = a0.kind == NodeKind::kID && a0.text == s;
          const bool second_is_s = a1.kind == NodeKind::kID && a1.text == s;
          if (first_is_s != second_is_s) {
            cover(stmt);
            const bool is_max = fn == "fmax" || fn == "max" || fn == "MAX";
            return is_max ? ReductionOp::kMax : ReductionOp::kMin;
          }
        }
      }
    }
    return std::nullopt;
  }

  // if (e REL s) s = e;  — min/max via comparison.
  if (allow_minmax && expr->kind == NodeKind::kIf && expr->children.size() == 2) {
    const Node& cond = expr->child(0);
    const Node* assign = &expr->child(1);
    if (assign->kind == NodeKind::kCompound && assign->children.size() == 1)
      assign = &assign->child(0);
    if (assign->kind == NodeKind::kExprStmt) assign = &assign->child(0);
    if (cond.kind == NodeKind::kBinaryOp && assign->kind == NodeKind::kAssignment &&
        assign->text == "=" && assign->child(0).kind == NodeKind::kID &&
        assign->child(0).text == s) {
      const Node& value = assign->child(1);
      const std::string value_text = frontend::print_expression(value);
      const std::string l_text = frontend::print_expression(cond.child(0));
      const std::string r_text = frontend::print_expression(cond.child(1));
      const bool l_is_s = cond.child(0).kind == NodeKind::kID && cond.child(0).text == s;
      const bool r_is_s = cond.child(1).kind == NodeKind::kID && cond.child(1).text == s;
      if ((cond.text == ">" || cond.text == ">=") && r_is_s && l_text == value_text) {
        cover(stmt);
        return ReductionOp::kMax;  // if (e > s) s = e
      }
      if ((cond.text == "<" || cond.text == "<=") && r_is_s && l_text == value_text) {
        cover(stmt);
        return ReductionOp::kMin;
      }
      if ((cond.text == "<" || cond.text == "<=") && l_is_s && r_text == value_text) {
        cover(stmt);
        return ReductionOp::kMax;  // if (s < e) s = e
      }
      if ((cond.text == ">" || cond.text == ">=") && l_is_s && r_text == value_text) {
        cover(stmt);
        return ReductionOp::kMin;
      }
    }
  }
  return std::nullopt;
}

/// Collects the reduction statements for `s` anywhere in the body.
std::optional<ReductionOp> find_reduction(const Node& body, const std::string& s,
                                          bool allow_minmax,
                                          std::set<const Node*>& covered) {
  std::optional<ReductionOp> op;
  bool conflict = false;
  std::function<void(const Node&)> scan = [&](const Node& node) {
    std::set<const Node*> local;
    if (auto matched = match_reduction_stmt(node, s, allow_minmax, local)) {
      if (op && *op != *matched) conflict = true;
      op = matched;
      covered.insert(local.begin(), local.end());
      return;  // statement consumed; don't descend further
    }
    for (const auto& c : node.children) scan(*c);
  };
  scan(body);
  if (conflict) return std::nullopt;
  return op;
}

}  // namespace

void DependenceAnalyzer::analyze_scalars(const Node& body, const std::string& induction,
                                         const AccessSet& accesses,
                                         LoopVerdict& verdict) const {
  // Scalars declared inside the body are iteration-local by construction.
  std::set<std::string> local_decls;
  frontend::walk(body, [&](const Node& node, int) {
    if (node.kind == NodeKind::kDecl) local_decls.insert(node.text);
  });

  // Sites that execute conditionally (inside an If branch or a ternary
  // arm). A conditional first write does NOT privatize: on iterations where
  // the guard is false the stale value is observed — the lastprivate trap.
  std::set<const Node*> conditional_sites;
  frontend::walk(body, [&](const Node& node, int) {
    const std::size_t first_branch =
        node.kind == NodeKind::kIf || node.kind == NodeKind::kTernaryOp ? 1 : SIZE_MAX;
    for (std::size_t b = first_branch; b < node.children.size(); ++b)
      frontend::walk(node.child(b), [&](const Node& inner, int) {
        conditional_sites.insert(&inner);
      });
  });

  // Induction variables of nested canonical loops are privatizable.
  std::set<std::string> nested_inductions;
  frontend::walk(body, [&](const Node& node, int) {
    if (node.kind != NodeKind::kFor) return;
    if (auto inner = canonicalize(node)) nested_inductions.insert(inner->induction);
  });

  std::set<std::string> handled;
  for (const Access& access : accesses.accesses) {
    if (access.is_array || !access.is_write) continue;
    const std::string& name = access.variable;
    if (name == induction) continue;  // privatized by the runtime
    if (!handled.insert(name).second) continue;

    if (local_decls.count(name)) continue;  // block-scoped: already private

    if (nested_inductions.count(name)) {
      verdict.private_candidates.push_back(name);
      continue;
    }

    // Reduction idiom?
    if (options_.recognize_reduction) {
      std::set<const Node*> covered;
      if (auto op = find_reduction(body, name, options_.recognize_minmax_reduction,
                                   covered)) {
        // Every access of this scalar must belong to a reduction statement.
        const bool all_covered = std::all_of(
            accesses.accesses.begin(), accesses.accesses.end(), [&](const Access& a) {
              return a.variable != name || covered.count(a.site) > 0;
            });
        if (all_covered && !covered.empty()) {
          verdict.reductions.push_back(Reduction{*op, name});
          continue;
        }
      }
    }

    // Privatizable? Def-before-use within the body: the first access in
    // program order must be a write that executes unconditionally.
    const Access* first = nullptr;
    for (const Access& a : accesses.accesses) {
      if (a.variable == name && !a.is_array) {
        first = &a;
        break;
      }
    }
    if (first && first->is_write && conditional_sites.count(first->site) == 0) {
      verdict.private_candidates.push_back(name);
      continue;
    }

    Dependence dep;
    dep.variable = name;
    dep.detail = "loop-carried scalar dependence";
    dep.line = access.site ? access.site->line : 0;
    dep.column = access.site ? access.site->column : 0;
    dep.scalar = true;
    dep.distance = 1;  // each iteration reads the previous iteration's value
    dep.deciding_test = dep_test_name(DepTest::kScalar);
    count_decision(DepTest::kScalar);
    PairProvenance prov;
    prov.array = name;
    prov.src_text = name;
    prov.snk_text = name;
    prov.test = dep.deciding_test;
    prov.carried = true;
    prov.scalar = true;
    prov.distance = 1;
    prov.direction = "(<)";
    prov.line = dep.line;
    verdict.pair_provenance.push_back(std::move(prov));
    verdict.dependences.push_back(std::move(dep));
  }
}

}  // namespace clpp::analysis
