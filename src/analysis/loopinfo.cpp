#include "analysis/loopinfo.h"

#include <cmath>

#include "frontend/lexer.h"

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;

std::optional<long long> literal_value(const Node& expr) {
  if (expr.kind == NodeKind::kConstant && expr.aux == "int")
    return frontend::int_literal_value(expr.text);
  if (expr.kind == NodeKind::kUnaryOp && expr.text == "-") {
    if (auto inner = literal_value(expr.child(0))) return -*inner;
  }
  return std::nullopt;
}

std::optional<long long> CanonicalLoop::static_trip_count() const {
  if (!lower || !upper) return std::nullopt;
  const auto lo = literal_value(*lower);
  const auto hi = literal_value(*upper);
  if (!lo || !hi || step == 0) return std::nullopt;
  long long span = 0;
  if (direction == LoopDirection::kUp) {
    span = *hi - *lo + (relation == "<=" ? 1 : 0);
  } else {
    span = *lo - *hi + (relation == ">=" ? 1 : 0);
  }
  if (span <= 0) return 0;
  const long long mag = std::abs(step);
  return (span + mag - 1) / mag;
}

namespace {

/// Extracts (var, lower) from the init clause.
bool match_init(const Node& init, std::string_view& var, const Node*& lower,
                bool& declared) {
  if (init.kind == NodeKind::kDecl) {
    // `int i = expr` — dims would make this non-canonical.
    if (init.aux.find("[]") != std::string::npos || init.children.size() != 1)
      return false;
    var = init.text;
    lower = &init.child(0);
    declared = true;
    return true;
  }
  if (init.kind == NodeKind::kAssignment && init.text == "=" &&
      init.child(0).kind == NodeKind::kID) {
    var = init.child(0).text;
    lower = &init.child(1);
    declared = false;
    return true;
  }
  return false;
}

/// Extracts the relation and bound from the condition clause.
bool match_cond(const Node& cond, std::string_view var, std::string_view& relation,
                const Node*& upper) {
  if (cond.kind != NodeKind::kBinaryOp) return false;
  if (cond.text != "<" && cond.text != "<=" && cond.text != ">" && cond.text != ">=")
    return false;
  if (cond.child(0).kind == NodeKind::kID && cond.child(0).text == var) {
    relation = cond.text;
    upper = &cond.child(1);
    return true;
  }
  // Reversed form `N > i`.
  if (cond.child(1).kind == NodeKind::kID && cond.child(1).text == var) {
    if (cond.text == "<") relation = ">";
    else if (cond.text == "<=") relation = ">=";
    else if (cond.text == ">") relation = "<";
    else relation = "<=";
    upper = &cond.child(0);
    return true;
  }
  return false;
}

/// Extracts the signed step from the increment clause.
bool match_step(const Node& next, std::string_view var, long long& step) {
  if (next.kind == NodeKind::kUnaryOp) {
    if (next.child(0).kind != NodeKind::kID || next.child(0).text != var) return false;
    if (next.text == "++" || next.text == "p++") {
      step = 1;
      return true;
    }
    if (next.text == "--" || next.text == "p--") {
      step = -1;
      return true;
    }
    return false;
  }
  if (next.kind == NodeKind::kAssignment) {
    if (next.child(0).kind != NodeKind::kID || next.child(0).text != var) return false;
    if (next.text == "+=" || next.text == "-=") {
      const auto value = literal_value(next.child(1));
      if (!value || *value <= 0) return false;
      step = next.text == "+=" ? *value : -*value;
      return true;
    }
    if (next.text == "=") {
      // i = i + c / i = i - c
      const Node& rhs = next.child(1);
      if (rhs.kind != NodeKind::kBinaryOp || (rhs.text != "+" && rhs.text != "-"))
        return false;
      if (rhs.child(0).kind != NodeKind::kID || rhs.child(0).text != var) return false;
      const auto value = literal_value(rhs.child(1));
      if (!value || *value <= 0) return false;
      step = rhs.text == "+" ? *value : -*value;
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<CanonicalLoop> canonicalize(const Node& loop) {
  CLPP_CHECK_MSG(loop.kind == NodeKind::kFor, "canonicalize expects a For node");
  if (loop.children.size() != 4) return std::nullopt;

  CanonicalLoop out;
  if (!match_init(loop.child(0), out.induction, out.lower, out.declared_in_init))
    return std::nullopt;
  if (!match_cond(loop.child(1), out.induction, out.relation, out.upper))
    return std::nullopt;
  if (!match_step(loop.child(2), out.induction, out.step)) return std::nullopt;

  const bool upward = out.relation == "<" || out.relation == "<=";
  out.direction = upward ? LoopDirection::kUp : LoopDirection::kDown;
  // Step must move toward the bound.
  if (upward && out.step <= 0) return std::nullopt;
  if (!upward && out.step >= 0) return std::nullopt;
  return out;
}

}  // namespace clpp::analysis
