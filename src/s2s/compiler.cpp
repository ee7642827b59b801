#include "s2s/compiler.h"

#include <algorithm>

#include "frontend/printer.h"

namespace clpp::s2s {

using frontend::Node;
using frontend::NodeKind;
using frontend::OmpDirective;

CompilerProfile cetus_profile() {
  CompilerProfile p;
  p.name = "cetus";
  p.analyzer.assume_unknown_calls_pure = false;
  p.analyzer.bail_on_struct_access = true;
  p.analyzer.recognize_reduction = true;
  p.analyzer.recognize_minmax_reduction = false;  // canonical forms only
  p.analyzer.min_trip_count = 8;                  // §5.2: skips low-trip loops
  p.explicit_iterator_private = true;             // §5.3 pitfall
  p.emit_schedule = true;  // always static: the Table 1 example 2 pitfall
  p.fail_on_local_functions = false;
  p.fail_on_structs = false;  // bails during analysis instead
  p.fail_on_goto = true;
  return p;
}

CompilerProfile autopar_profile() {
  CompilerProfile p;
  p.name = "autopar";
  p.analyzer.assume_unknown_calls_pure = false;
  p.analyzer.bail_on_struct_access = true;
  p.analyzer.recognize_reduction = false;  // ROSE/AutoPar weak on reductions
  p.analyzer.min_trip_count = 0;
  p.explicit_iterator_private = true;
  p.emit_schedule = false;
  p.fail_on_local_functions = true;  // no interprocedural analysis
  p.fail_on_structs = true;
  p.fail_on_goto = true;
  return p;
}

CompilerProfile par4all_profile() {
  CompilerProfile p;
  p.name = "par4all";
  p.analyzer.assume_unknown_calls_pure = false;
  p.analyzer.bail_on_struct_access = true;
  p.analyzer.recognize_reduction = true;
  p.analyzer.recognize_minmax_reduction = false;
  p.analyzer.min_trip_count = 0;
  p.explicit_iterator_private = false;
  p.emit_schedule = false;
  p.fail_on_local_functions = true;
  p.fail_on_structs = true;
  p.fail_on_goto = true;
  p.max_statements = 40;  // gives up on long snippets
  return p;
}

const Node* find_target_loop(const Node& unit) {
  for (const auto& child : unit.children)
    if (child->kind == NodeKind::kFor) return child;
  // Fall back to the first loop anywhere (snippet wrapped in a function).
  const Node* found = nullptr;
  frontend::walk(unit, [&](const Node& node, int) {
    if (!found && node.kind == NodeKind::kFor) found = &node;
  });
  return found;
}

S2SCompiler::S2SCompiler(CompilerProfile profile) : profile_(std::move(profile)) {}

bool S2SCompiler::compile_gate(const Node& unit, S2SResult& result) const {
  bool has_goto = false;
  bool has_struct = false;
  bool has_local_fn = false;
  std::size_t statements = 0;
  frontend::walk(unit, [&](const Node& node, int) {
    switch (node.kind) {
      case NodeKind::kGoto:
      case NodeKind::kLabel:
        has_goto = true;
        break;
      case NodeKind::kStructRef:
        has_struct = true;
        break;
      case NodeKind::kDecl:
        if (node.aux == "struct-def" || node.aux.rfind("struct", 0) == 0)
          has_struct = true;
        break;
      case NodeKind::kFuncDef:
        if (node.children.size() > 1 && node.child(1).kind == NodeKind::kCompound)
          has_local_fn = true;
        break;
      case NodeKind::kExprStmt:
      case NodeKind::kIf:
      case NodeKind::kFor:
      case NodeKind::kWhile:
      case NodeKind::kDoWhile:
      case NodeKind::kReturn:
        ++statements;
        break;
      default:
        break;
    }
  });
  if (has_goto && profile_.fail_on_goto) {
    result.status = S2SResult::Status::kFailed;
    result.notes.push_back(profile_.name + ": goto/label unsupported");
    return false;
  }
  if (has_struct && profile_.fail_on_structs) {
    result.status = S2SResult::Status::kFailed;
    result.notes.push_back(profile_.name + ": struct constructs unsupported");
    return false;
  }
  if (has_local_fn && profile_.fail_on_local_functions) {
    result.status = S2SResult::Status::kFailed;
    result.notes.push_back(profile_.name + ": local function definitions unsupported");
    return false;
  }
  if (profile_.max_statements > 0 && statements > profile_.max_statements) {
    result.status = S2SResult::Status::kFailed;
    result.notes.push_back(profile_.name + ": snippet too large (" +
                           std::to_string(statements) + " statements)");
    return false;
  }
  return true;
}

S2SResult S2SCompiler::process(const Node& unit) const {
  S2SResult result;
  if (!compile_gate(unit, result)) return result;
  const Node* loop = find_target_loop(unit);
  if (!loop) {
    result.status = S2SResult::Status::kNoDirective;
    result.notes.push_back(profile_.name + ": no for-loop found");
    return result;
  }
  return process_loop(unit, *loop);
}

S2SResult S2SCompiler::process_loop(const Node& unit, const Node& loop) const {
  S2SResult result;
  if (!compile_gate(unit, result)) return result;

  const analysis::SideEffectOracle oracle(unit);
  const analysis::DependenceAnalyzer analyzer(oracle, profile_.analyzer);
  const analysis::LoopVerdict verdict = analyzer.analyze(loop);
  result.notes.insert(result.notes.end(), verdict.notes.begin(), verdict.notes.end());

  if (verdict.bailed) {
    result.status = S2SResult::Status::kFailed;
    return result;
  }
  if (!verdict.parallelizable) {
    result.status = S2SResult::Status::kNoDirective;
    return result;
  }

  result.status = S2SResult::Status::kParallelized;
  result.directive = directive_from_verdict(verdict, profile_.explicit_iterator_private,
                                            profile_.emit_schedule);
  return result;
}

OmpDirective directive_from_verdict(const analysis::LoopVerdict& verdict,
                                    bool explicit_iterator_private,
                                    bool emit_schedule) {
  OmpDirective directive;
  directive.parallel = true;
  directive.for_loop = true;
  if (emit_schedule) directive.schedule = frontend::ScheduleKind::kStatic;
  if (explicit_iterator_private && !verdict.induction.empty())
    directive.private_vars.push_back(verdict.induction);
  for (const std::string& name : verdict.private_candidates)
    directive.private_vars.push_back(name);
  directive.reductions = verdict.reductions;
  return directive;
}

std::string S2SCompiler::annotate(const std::string& source) const {
  frontend::NodePtr unit;
  try {
    unit = frontend::parse_snippet(source);
  } catch (const ParseError&) {
    return source;  // robustness contract: hand back the input untouched
  }
  const S2SResult result = process(*unit);
  if (!result.parallelized()) return source;

  // Re-emit the snippet with the directive inserted before the target loop.
  const Node* target = find_target_loop(*unit);
  std::string out;
  for (const auto& item : unit->children) {
    if (item == target) out += result.directive->to_string() + "\n";
    out += frontend::print_source(*item);
  }
  return out;
}

}  // namespace clpp::s2s
