#include "analysis/depend.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory_resource>
#include <optional>
#include <span>

#include "frontend/printer.h"
#include "obs/metrics.h"

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;
using frontend::Reduction;
using frontend::ReductionOp;

namespace {

bool mentions(const Node& expr, std::string_view name) {
  bool found = false;
  frontend::walk(expr, [&](const Node& n, int) {
    if (n.kind == NodeKind::kID && n.text == name) found = true;
  });
  return found;
}

/// Printed form of one array access, e.g. "A[i][j + 1]": its site is the
/// whole subscripted expression.
std::string access_text(const Access& a) { return frontend::print_expression(*a.site); }

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
  const LoopScan scan(loop);
  return analyze(scan);
}

LoopVerdict DependenceAnalyzer::analyze(const LoopScan& scan) const {
  LoopVerdict verdict;
  const CanonicalLoop* canonical = scan.canonical();
  if (canonical == nullptr) {
    verdict.notes.push_back("loop is not in canonical form");
    return verdict;
  }
  verdict.canonical = true;
  verdict.induction = canonical->induction;
  verdict.trip_count = scan.body().loops.front().trip;

  const AccessSet& body = scan.body();
  if (body.hazards.early_exit) {
    verdict.notes.push_back("body has early exit (break/goto/return)");
    return verdict;
  }

  // Hazards first: these abort analysis entirely (the "bail" behaviour the
  // paper's ComPar exhibits on 526/3547 test snippets).
  if (body.hazards.function_pointer_call) {
    verdict.bailed = true;
    verdict.notes.push_back("call through function pointer");
    return verdict;
  }
  if (body.hazards.struct_access && options_.bail_on_struct_access) {
    verdict.bailed = true;
    verdict.notes.push_back("struct member access unsupported");
    return verdict;
  }
  if (body.hazards.pointer_deref_write) {
    verdict.bailed = true;
    verdict.notes.push_back("write through pointer dereference");
    return verdict;
  }

  // Side effects of calls, each callee once.
  const auto& calls = body.hazards.called_functions;
  for (auto it = calls.begin(); it != calls.end(); ++it) {
    const std::string_view callee = *it;
    if (std::find(calls.begin(), it, callee) != it) continue;
    const CallEffect effect = oracle_->effect_of(callee);
    if (effect == CallEffect::kPure) continue;
    const std::string quoted = "'" + std::string(callee) + "'";
    switch (effect) {
      case CallEffect::kPure:
        break;
      case CallEffect::kIo:
        verdict.notes.push_back("calls I/O function " + quoted);
        return verdict;
      case CallEffect::kAllocates:
        verdict.notes.push_back("calls allocator " + quoted);
        return verdict;
      case CallEffect::kWritesArgs:
        // Serial without testing a pair: a conservative answer, not a proof.
        // Not a bail, which S2S would count as a compile failure.
        verdict.conservative = true;
        verdict.notes.push_back("call to " + quoted + " may write shared memory");
        return verdict;
      case CallEffect::kUnknown:
        if (!options_.assume_unknown_calls_pure) {
          verdict.bailed = true;
          verdict.notes.push_back("unknown side effects of " + quoted);
          return verdict;
        }
        verdict.notes.push_back("assuming unknown call " + quoted + " is pure");
        break;
    }
  }

  analyze_arrays(scan, verdict);
  analyze_scalars(scan, verdict);

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

void DependenceAnalyzer::analyze_arrays(const LoopScan& scan, LoopVerdict& verdict) const {
  // Array accesses grouped by name in name order, program order within a
  // name (the access table is in program order).
  alignas(std::max_align_t) std::array<std::byte, 1024> inline_bytes;
  std::pmr::monotonic_buffer_resource memory(inline_bytes.data(), inline_bytes.size());
  std::pmr::vector<const Access*> arrays(&memory);
  for (const Access& a : scan.body().accesses)
    if (a.is_array) arrays.push_back(&a);
  std::sort(arrays.begin(), arrays.end(), [](const Access* a, const Access* b) {
    return a->variable != b->variable ? a->variable < b->variable : a < b;
  });

  // Direction/distance vectors per access pair over the whole canonical
  // nest (see ddtest.h), built on the first pair.
  std::optional<NestContext> nest;
  for (auto group = arrays.begin(); group != arrays.end();) {
    const std::string_view name = (*group)->variable;
    const auto group_end = std::find_if(
        group, arrays.end(), [&](const Access* a) { return a->variable != name; });
    const std::span<const Access* const> list(group, group_end);
    group = group_end;
    const bool any_write =
        std::any_of(list.begin(), list.end(), [](const Access* a) { return a->is_write; });
    if (!any_write) continue;
    if (!nest) nest.emplace(scan);

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
        PairProvenance prov;
        prov.array = name;
        prov.src_text = access_text(*w);
        prov.snk_text = access_text(*other);
        prov.line = dep_line;
        ++verdict.dep_pairs_tested;
        if (w->subscripts.size() != other->subscripts.size()) {
          ++verdict.dep_pairs_unknown;
          count_decision(DepTest::kConservative);
          prov.test = dep_test_name(DepTest::kConservative);
          prov.carried = true;
          prov.exact = false;
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
        const PairResult pair = nest->test_pair(*w, *other);
        if (!pair.exact) ++verdict.dep_pairs_unknown;
        count_decision(pair.deciding);
        prov.test = dep_test_name(pair.deciding);
        prov.possible = pair.possible;
        prov.carried = pair.possible && pair.carried();
        prov.exact = pair.exact;
        prov.distance = pair.carried_distance();
        prov.direction = direction_vector(pair);
        const bool carried = prov.carried;
        if (carried) {
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
        }
        verdict.pair_provenance.push_back(std::move(prov));
        if (!carried) continue;
        reported = true;
        break;
      }
    }
  }
}

namespace {

/// True when `a` and `b` print as the same expression.
bool same_text(const Node& a, const Node& b) {
  std::string a_text, b_text;
  frontend::append_expression(a, a_text);
  frontend::append_expression(b, b_text);
  return a_text == b_text;
}

/// Recognizes whether `stmt` is a reduction statement over scalar `s` and
/// returns the operator.
std::optional<ReductionOp> match_reduction_stmt(const Node& stmt, std::string_view s,
                                                bool allow_minmax) {
  const Node* expr = &stmt;
  if (expr->kind == NodeKind::kExprStmt) expr = &expr->child(0);

  if (expr->kind == NodeKind::kAssignment && expr->child(0).kind == NodeKind::kID &&
      expr->child(0).text == s) {
    const Node& rhs = expr->child(1);
    if (expr->text == "+=" && !mentions(rhs, s)) return ReductionOp::kAdd;
    if (expr->text == "-=" && !mentions(rhs, s)) return ReductionOp::kSub;
    if (expr->text == "*=" && !mentions(rhs, s)) return ReductionOp::kMul;
    if (expr->text == "=") {
      // s = s + e | s = e + s | s = s * e | s = e * s | s = fmax(s, e)...
      if (rhs.kind == NodeKind::kBinaryOp && (rhs.text == "+" || rhs.text == "*")) {
        const Node& l = rhs.child(0);
        const Node& r = rhs.child(1);
        const bool l_is_s = l.kind == NodeKind::kID && l.text == s;
        const bool r_is_s = r.kind == NodeKind::kID && r.text == s;
        if (l_is_s != r_is_s && !mentions(l_is_s ? r : l, s))
          return rhs.text == "+" ? ReductionOp::kAdd : ReductionOp::kMul;
      }
      if (rhs.kind == NodeKind::kBinaryOp && rhs.text == "-") {
        const Node& l = rhs.child(0);
        if (l.kind == NodeKind::kID && l.text == s && !mentions(rhs.child(1), s))
          return ReductionOp::kSub;
      }
      if (rhs.kind == NodeKind::kFuncCall && rhs.child(0).kind == NodeKind::kID) {
        const std::string_view fn = rhs.child(0).text;
        if ((fn == "fmax" || fn == "fmin" || fn == "max" || fn == "min" ||
             fn == "MAX" || fn == "MIN") &&
            rhs.child(1).children.size() == 2) {
          const Node& a0 = rhs.child(1).child(0);
          const Node& a1 = rhs.child(1).child(1);
          const bool first_is_s = a0.kind == NodeKind::kID && a0.text == s;
          const bool second_is_s = a1.kind == NodeKind::kID && a1.text == s;
          if (first_is_s != second_is_s) {
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
      const bool l_is_s = cond.child(0).kind == NodeKind::kID && cond.child(0).text == s;
      const bool r_is_s = cond.child(1).kind == NodeKind::kID && cond.child(1).text == s;
      const bool greater = cond.text == ">" || cond.text == ">=";
      const bool less = cond.text == "<" || cond.text == "<=";
      // if (e > s) s = e  /  if (e < s) s = e
      if ((greater || less) && r_is_s && same_text(cond.child(0), value))
        return greater ? ReductionOp::kMax : ReductionOp::kMin;
      // if (s < e) s = e  /  if (s > e) s = e
      if ((greater || less) && l_is_s && same_text(cond.child(1), value))
        return less ? ReductionOp::kMax : ReductionOp::kMin;
    }
  }
  return std::nullopt;
}

/// Accesses of `s` whose site lies in the subtree of `root`.
std::size_t accesses_within(const Node& root, std::string_view s,
                            const AccessSet& accesses) {
  std::size_t count = 0;
  frontend::walk(root, [&](const Node& n, int) {
    const bool site = n.kind == NodeKind::kID || n.kind == NodeKind::kArrayRef ||
                      n.kind == NodeKind::kDecl;
    if (!site) return;
    for (const Access& a : accesses.accesses) count += a.site == &n && a.variable == s;
  });
  return count;
}

/// Reduction statements for `s` in the body, outermost first; `covered`
/// counts the accesses of `s` inside them.
void find_reductions(const Node& node, std::string_view s, bool allow_minmax,
                     const AccessSet& accesses, std::optional<ReductionOp>& op,
                     bool& conflict, std::size_t& covered) {
  if (auto matched = match_reduction_stmt(node, s, allow_minmax)) {
    if (op && *op != *matched) conflict = true;
    op = matched;
    covered += accesses_within(node, s, accesses);
    return;  // statement consumed; don't descend further
  }
  for (const Node* c : node.children)
    find_reductions(*c, s, allow_minmax, accesses, op, conflict, covered);
}

}  // namespace

void DependenceAnalyzer::analyze_scalars(const LoopScan& scan, LoopVerdict& verdict) const {
  const AccessSet& body = scan.body();
  const std::string_view induction = scan.canonical()->induction;
  const auto& accesses = body.accesses;
  for (auto it = accesses.begin(); it != accesses.end(); ++it) {
    const Access& access = *it;
    if (access.is_array || !access.is_write) continue;
    const std::string_view name = access.variable;
    if (name == induction) continue;  // privatized by the runtime
    // Each scalar once, at its first write.
    if (std::any_of(accesses.begin(), it, [&](const Access& a) {
          return !a.is_array && a.is_write && a.variable == name;
        }))
      continue;

    // Scalars declared inside the body are iteration-local by construction.
    if (std::find(body.decls.begin(), body.decls.end(), name) != body.decls.end()) continue;

    // Induction variables of nested canonical loops are privatizable.
    if (std::any_of(body.loops.begin() + 1, body.loops.end(),
                    [&](const NestLoop& loop) { return loop.canon.induction == name; })) {
      verdict.private_candidates.emplace_back(name);
      continue;
    }

    // Reduction idiom? Every access of the scalar must belong to a
    // reduction statement.
    if (options_.recognize_reduction) {
      std::optional<ReductionOp> op;
      bool conflict = false;
      std::size_t covered = 0;
      find_reductions(scan.loop().child(3), name, options_.recognize_minmax_reduction, body,
                      op, conflict, covered);
      if (op && !conflict &&
          covered == static_cast<std::size_t>(std::count_if(
                         accesses.begin(), accesses.end(),
                         [&](const Access& a) { return a.variable == name; }))) {
        verdict.reductions.push_back(Reduction{*op, std::string(name)});
        continue;
      }
    }

    // Privatizable? Def-before-use within the body: the first access in
    // program order must be a write that executes unconditionally. A
    // conditional first write does NOT privatize: on iterations where the
    // guard is false the stale value is observed — the lastprivate trap.
    const Access* first = body.first_scalar_access(name);
    if (first && first->is_write && !first->conditional) {
      verdict.private_candidates.emplace_back(name);
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
