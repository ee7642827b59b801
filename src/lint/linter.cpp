#include "lint/linter.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/accesses.h"
#include "analysis/loopinfo.h"
#include "analysis/sideeffects.h"
#include "frontend/parser.h"
#include "frontend/pragma.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clpp::lint {

using analysis::Access;
using analysis::AccessSet;
using analysis::CallEffect;
using frontend::Node;
using frontend::NodeKind;
using frontend::OmpDirective;

namespace {

SourceRange token_range(int line, int column, std::size_t length) {
  if (line <= 0) return {};
  const int len = length > 0 ? static_cast<int>(length) : 1;
  return {line, column, line, column + len - 1};
}

/// Range of the whole "#pragma ..." line (node text excludes the '#').
SourceRange pragma_range(const Node& pragma) {
  return token_range(pragma.line, pragma.column, pragma.text.size() + 1);
}

/// Range anchored at a statement's keyword/operator token.
SourceRange node_range(const Node& node) {
  std::size_t length = node.text.size();
  if (node.kind == NodeKind::kFor) length = 3;
  return token_range(node.line, node.column, length);
}

/// Range of the first positioned write of `name`, else `fallback`.
SourceRange first_write_range(const AccessSet& accesses, std::string_view name,
                              SourceRange fallback) {
  for (const Access& a : accesses.accesses)
    if (a.variable == name && a.is_write && a.site && a.site->line > 0)
      return token_range(a.site->line, a.site->column, name.size());
  return fallback;
}

/// Range of the first direct call to `callee` in `body`, else `fallback`.
SourceRange call_site_range(const Node& body, std::string_view callee,
                            SourceRange fallback) {
  SourceRange found = fallback;
  bool done = false;
  frontend::walk(body, [&](const Node& node, int) {
    if (done || node.kind != NodeKind::kFuncCall || node.children.empty()) return;
    const Node& target = node.child(0);
    if (target.kind == NodeKind::kID && target.text == callee && target.line > 0) {
      found = token_range(target.line, target.column, callee.size());
      done = true;
    }
  });
  return found;
}

template <typename Names>
bool contains(const Names& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

void erase_name(std::vector<std::string>& names, std::string_view name) {
  names.erase(std::remove(names.begin(), names.end(), name), names.end());
}

/// Adds one report's totals to the `clpp.lint.*` counters. The references
/// are looked up once: a registry lookup takes a process-wide mutex, and
/// audit units are linted on every core.
void count_report(const LintReport& report) {
  auto& m = obs::metrics();
  static obs::Counter& loops = m.counter("clpp.lint.loops_linted");
  static obs::Counter& diagnostics = m.counter("clpp.lint.diagnostics");
  static obs::Counter& errors = m.counter("clpp.lint.errors");
  static obs::Counter& warnings = m.counter("clpp.lint.warnings");
  loops.add(report.loops_checked);
  diagnostics.add(report.diagnostics.size());
  errors.add(report.errors());
  warnings.add(report.warnings());
}

void count_fixit() {
  static obs::Counter& fixits = obs::metrics().counter("clpp.lint.fixits");
  fixits.add();
}

std::string describe_effect(CallEffect effect) {
  switch (effect) {
    case CallEffect::kIo:
      return "performs I/O; output interleaves nondeterministically across threads";
    case CallEffect::kAllocates:
      return "allocates or frees memory; heap calls serialize and must not race";
    case CallEffect::kWritesArgs:
      return "may write memory reachable through its arguments";
    case CallEffect::kUnknown:
      return "has unknown side effects (no body available, not whitelisted)";
    case CallEffect::kPure:
      break;
  }
  return "is pure";
}

}  // namespace

analysis::AnalyzerOptions lint_analyzer_options() {
  analysis::AnalyzerOptions options;
  options.assume_unknown_calls_pure = true;
  options.recognize_reduction = true;
  options.recognize_minmax_reduction = true;
  options.bail_on_struct_access = true;
  options.min_trip_count = 0;  // small-trip-count rule handles profitability
  return options;
}

Linter::Linter(LintOptions options) : options_(std::move(options)) {}

LintReport Linter::lint_source(const std::string& source, std::string file) const {
  frontend::NodePtr unit;
  try {
    unit = frontend::parse_snippet(source);
  } catch (const ParseError& e) {
    LintReport report;
    report.file = std::move(file);
    report.diagnostics.push_back({rule::kParseError, Severity::kError,
                                  token_range(1, 1, 1),
                                  std::string("input does not parse: ") + e.what(),
                                  {},
                                  {}});
    return report;
  }
  return lint_unit(*unit, std::move(file));
}

LintReport Linter::lint_unit(const Node& unit, std::string file) const {
  CLPP_TRACE_SPAN("lint.unit");
  LintReport report;
  report.file = std::move(file);
  // One oracle per unit: its memo is a pure function of the unit, so every
  // loop of the unit shares it.
  const analysis::SideEffectOracle oracle(unit);

  // Every statement list (top level and nested compounds) can host a
  // directive + loop pair.
  frontend::walk(unit, [&](const Node& scope, int) {
    if (scope.kind != NodeKind::kTranslationUnit && scope.kind != NodeKind::kCompound)
      return;
    for (std::size_t i = 0; i < scope.children.size(); ++i) {
      const Node& item = *scope.children[i];
      if (item.kind != NodeKind::kPragma || !frontend::is_omp_pragma(item.text))
        continue;
      OmpDirective directive;
      try {
        directive = frontend::parse_omp_pragma(item.text);
      } catch (const ParseError&) {
        continue;  // not a directive we model; stay silent
      }
      if (!directive.is_loop_directive()) continue;
      const Node* stmt = nullptr;
      for (std::size_t j = i + 1; j < scope.children.size(); ++j) {
        if (scope.children[j]->kind == NodeKind::kPragma) continue;
        stmt = scope.children[j];
        break;
      }
      lint_pair(oracle, &item, directive, stmt, report);
    }
  });
  count_report(report);
  return report;
}

LintReport Linter::lint_loop(const Node& unit, const OmpDirective& directive,
                             const Node* loop, std::string file) const {
  CLPP_TRACE_SPAN("lint.unit");
  LintReport report;
  report.file = std::move(file);
  lint_pair(analysis::SideEffectOracle(unit), nullptr, directive, loop, report);
  count_report(report);
  return report;
}

void Linter::lint_pair(const analysis::SideEffectOracle& oracle, const Node* pragma,
                       const OmpDirective& directive, const Node* stmt,
                       LintReport& report) const {
  CLPP_TRACE_SPAN("lint.loop");
  auto add = [&](const char* rule_id, Severity severity, SourceRange range,
                 std::string message, std::string fix = {}) {
    if (!options_.emit_fixits) fix.clear();
    if (!fix.empty()) count_fixit();
    report.diagnostics.push_back(
        {rule_id, severity, range, std::move(message), std::move(fix), {}});
  };
  // Directive-level findings point at the pragma line. A directive from
  // outside the unit has no position there: its findings sit at the top of
  // the snippet, as wide as the rendered directive. Only a finding needs it.
  const auto at_pragma = [&] {
    return pragma != nullptr ? pragma_range(*pragma)
                             : token_range(1, 1, directive.to_string().size());
  };

  if (stmt == nullptr || stmt->kind != NodeKind::kFor) {
    add(rule::kNonCanonicalLoop, Severity::kError, at_pragma(),
        "worksharing-loop directive is not followed by a for loop");
    return;
  }
  const Node& loop = *stmt;
  const SourceRange at_loop = node_range(loop);
  ++report.loops_checked;

  // One scan of the loop serves the analyzer and every rule below.
  const analysis::LoopScan scan(loop);
  const analysis::CanonicalLoop* canonical = scan.canonical();
  if (canonical == nullptr) {
    add(rule::kNonCanonicalLoop, Severity::kError, at_loop,
        "loop is not in OpenMP canonical form (single integer induction, "
        "invariant bound, constant step)");
    return;
  }
  const Node& body = loop.child(3);
  const AccessSet& accesses = scan.body();
  if (accesses.hazards.early_exit) {
    add(rule::kNonCanonicalLoop, Severity::kError, at_loop,
        "loop body exits early (break/goto/return); iterations cannot be "
        "shared out");
    return;
  }

  const analysis::DependenceAnalyzer analyzer(oracle, options_.analyzer);
  const analysis::LoopVerdict verdict = analyzer.analyze(scan);

  // --- unknown-call-effect: every non-pure direct callee, once each.
  const auto& calls = accesses.hazards.called_functions;
  for (auto it = calls.begin(); it != calls.end(); ++it) {
    const std::string_view callee = *it;
    if (std::find(calls.begin(), it, callee) != it) continue;
    const CallEffect effect = oracle.effect_of(callee);
    if (effect == CallEffect::kPure) continue;
    add(rule::kUnknownCallEffect, Severity::kWarning,
        call_site_range(body, callee, at_loop),
        "call to '" + std::string(callee) + "' inside the parallel loop " +
            describe_effect(effect));
  }

  // --- conservative aliasing hazards the dependence test cannot see past.
  if (accesses.hazards.pointer_deref_write)
    add(rule::kLoopCarried, Severity::kWarning, at_loop,
        "cannot prove iterations independent: loop writes through a pointer "
        "dereference");
  if (accesses.hazards.function_pointer_call)
    add(rule::kLoopCarried, Severity::kWarning, at_loop,
        "cannot prove iterations independent: call through a function pointer");

  // A bare `omp simd` (no worksharing) has its own legality rules: carried
  // dependences route to the simd-* family instead of loop-carried-dependence,
  // because a known distance >= 2 is *legal* under a small enough safelen.
  const bool pure_simd = directive.simd && !directive.for_loop;

  // --- small-trip-count (fork/join cost — worksharing only).
  if (!pure_simd && verdict.trip_count &&
      *verdict.trip_count < options_.small_trip_threshold)
    add(rule::kSmallTripCount, Severity::kWarning, at_loop,
        "static trip count " + std::to_string(*verdict.trip_count) +
            " is below the profitability threshold (" +
            std::to_string(options_.small_trip_threshold) +
            "); fork/join overhead will dominate");

  // Clause surface the directive already provides; worksharing privatizes
  // the iterator.
  const std::string_view induction = canonical->induction;
  const auto privatized = [&](std::string_view name) {
    return name == induction || contains(directive.private_vars, name) ||
           contains(directive.firstprivate_vars, name) ||
           contains(directive.lastprivate_vars, name);
  };
  const auto reduces = [](const std::vector<frontend::Reduction>& reductions,
                          std::string_view name) {
    return std::any_of(reductions.begin(), reductions.end(),
                       [&](const frontend::Reduction& r) { return r.variable == name; });
  };
  const auto reduced = [&](std::string_view name) {
    return reduces(directive.reductions, name);
  };

  // --- loop-carried-dependence / simd-* family: dependences that survive
  // the clauses.
  // Decision provenance for a finding: the first carried provenance record
  // of the same variable (the one that produced the Dependence). Attached
  // to the diagnostic pushed last by `add`.
  auto attach_provenance = [&](const analysis::Dependence& dep,
                               std::size_t before) {
    if (report.diagnostics.size() <= before) return;  // nothing was added
    for (const analysis::PairProvenance& p : verdict.pair_provenance) {
      if (p.array != dep.variable || p.scalar != dep.scalar) continue;
      if (!p.possible || !p.carried) continue;
      report.diagnostics.back().provenance = analysis::provenance_text(p);
      return;
    }
    if (!dep.deciding_test.empty())
      report.diagnostics.back().provenance = dep.deciding_test;
  };
  for (const analysis::Dependence& dep : verdict.dependences) {
    const SourceRange at_dep =
        dep.line > 0 ? token_range(dep.line, dep.column, dep.variable.size())
                     : at_loop;
    const bool scalar = dep.scalar;
    if (scalar && privatized(dep.variable)) continue;  // clause cuts the edge
    const std::size_t diags_before = report.diagnostics.size();
    if (pure_simd) {
      if (scalar) {
        if (reduced(dep.variable)) {
          add(rule::kSimdReductionMismatch, Severity::kError, at_dep,
              "carried dependence on '" + dep.variable +
                  "' does not match its reduction clause on the simd "
                  "directive; lanes combine incorrectly");
        } else {
          add(rule::kSimdUnsafeDep, Severity::kError, at_dep,
              "loop-carried scalar dependence on '" + dep.variable +
                  "' has distance 1; no safelen makes this loop "
                  "vectorizable");
        }
      } else if (dep.distance && *dep.distance >= 2) {
        const long long d = *dep.distance;
        if (directive.safelen == 0 || directive.safelen > d) {
          frontend::OmpDirective with_safelen = directive;
          with_safelen.safelen = static_cast<int>(d);
          if (directive.safelen == 0)
            add(rule::kSimdMissesSafelen, Severity::kError, at_dep,
                "array dependence on '" + dep.variable + "' has distance " +
                    std::to_string(d) +
                    " but the simd directive declares no safelen; vector "
                    "lengths above " + std::to_string(d) + " are miscompiled",
                with_safelen.to_string());
          else
            add(rule::kSimdUnsafeDep, Severity::kError, at_dep,
                "safelen(" + std::to_string(directive.safelen) +
                    ") exceeds the carried dependence distance " +
                    std::to_string(d) + " on '" + dep.variable + "'",
                with_safelen.to_string());
        }
        // safelen <= d: the declared safelen licenses this dependence.
      } else {
        add(rule::kSimdUnsafeDep, Severity::kError, at_dep,
            "loop-carried array dependence on '" + dep.variable + "' (" +
                dep.detail + ") has distance " +
                (dep.distance ? std::to_string(*dep.distance)
                              : std::string("unknown")) +
                "; no safelen can license it");
      }
      attach_provenance(dep, diags_before);
      continue;
    }
    std::string message;
    if (scalar && reduced(dep.variable))
      message = "carried dependence on '" + dep.variable +
                "' does not match its reduction clause; the combined result "
                "will differ from serial execution";
    else if (scalar)
      message = "loop-carried scalar dependence on '" + dep.variable +
                "': each iteration reads the previous iteration's value";
    else
      message = "loop-carried array dependence on '" + dep.variable + "' (" +
                dep.detail + ")";
    add(rule::kLoopCarried, Severity::kError, at_dep, std::move(message));
    attach_provenance(dep, diags_before);
  }

  // Clause-level findings share one fix-it: the fully corrected pragma.
  struct Pending {
    const char* rule_id;
    SourceRange range;
    std::string message;
  };
  std::vector<Pending> pending;
  std::optional<OmpDirective> corrected_once;
  const auto corrected = [&]() -> OmpDirective& {
    return corrected_once ? *corrected_once : corrected_once.emplace(directive);
  };

  // --- shared-induction.
  if (contains(directive.shared_vars, induction)) {
    pending.push_back({rule::kSharedInduction, at_pragma(),
                       "induction variable '" + std::string(induction) +
                           "' is listed shared(...): every thread would write "
                           "the one shared iterator"});
    erase_name(corrected().shared_vars, induction);
  }

  // --- missing-private.
  for (const std::string& name : verdict.private_candidates) {
    if (privatized(name) || reduced(name)) continue;
    pending.push_back({rule::kMissingPrivate,
                       first_write_range(accesses, name, at_pragma()),
                       "'" + name +
                           "' is rewritten every iteration but not privatized; "
                           "concurrent writes race"});
    corrected().private_vars.push_back(name);
  }

  // --- missing-reduction (wrong operator counts as missing).
  for (const frontend::Reduction& r : verdict.reductions) {
    const frontend::Reduction* declared = nullptr;
    for (const frontend::Reduction& d : directive.reductions)
      if (d.variable == r.variable) declared = &d;
    if (declared != nullptr && declared->op == r.op) continue;
    const std::string clause =
        "reduction(" + frontend::reduction_op_name(r.op) + ": " + r.variable + ")";
    std::string message;
    if (declared != nullptr)
      message = "reduction operator mismatch on '" + r.variable +
                "': clause declares '" + frontend::reduction_op_name(declared->op) +
                "' but the loop accumulates with '" +
                frontend::reduction_op_name(r.op) + "'";
    else if (privatized(r.variable) && r.variable != induction)
      message = "'" + r.variable +
                "' accumulates across iterations but is only privatized; each "
                "thread's partial result is discarded — use " + clause;
    else
      message = "accumulation over '" + r.variable +
                "' races on the shared scalar; needs " + clause;
    pending.push_back({pure_simd ? rule::kSimdReductionMismatch
                                 : rule::kMissingReduction,
                       first_write_range(accesses, r.variable, at_pragma()),
                       std::move(message)});
    OmpDirective& fix = corrected();
    std::erase_if(fix.reductions,
                  [&](const frontend::Reduction& d) { return d.variable == r.variable; });
    fix.reductions.push_back(r);
    erase_name(fix.private_vars, r.variable);
    erase_name(fix.firstprivate_vars, r.variable);
    erase_name(fix.lastprivate_vars, r.variable);
  }

  const std::string fix_text = pending.empty() ? std::string{} : corrected().to_string();
  for (Pending& p : pending)
    add(p.rule_id, Severity::kError, p.range, std::move(p.message), fix_text);

  // --- simd-on-non-innermost: vectorizing an outer loop is rarely intended.
  if (directive.simd && accesses.has_for) {
    std::string fix;
    if (directive.for_loop) {
      frontend::OmpDirective dropped = directive;
      dropped.simd = false;
      dropped.safelen = 0;
      dropped.simdlen = 0;
      fix = dropped.to_string();
    }
    add(rule::kSimdNonInnermost, Severity::kWarning, at_loop,
        "simd applies to a loop whose body contains another loop; "
        "vectorize the innermost loop instead",
        std::move(fix));
  }

  // --- uninitialized-private: a private var whose first access reads it.
  for (const std::string& name : directive.private_vars) {
    if (name == induction) continue;
    if (reduces(verdict.reductions, name)) continue;  // missing-reduction already fired
    const Access* first = accesses.first_scalar_access(name);
    if (first == nullptr || first->is_write) continue;
    OmpDirective promoted = directive;
    erase_name(promoted.private_vars, name);
    promoted.firstprivate_vars.push_back(name);
    add(rule::kUninitializedPrivate, Severity::kWarning,
        first->site && first->site->line > 0
            ? token_range(first->site->line, first->site->column, name.size())
            : at_pragma(),
        "private variable '" + name +
            "' is read before any write in the loop body; private copies "
            "start uninitialized (firstprivate keeps the original value)",
        promoted.to_string());
  }
}

}  // namespace clpp::lint
