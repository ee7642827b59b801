#include "frontend/pragma.h"

#include <cctype>
#include <climits>
#include <optional>

#include "frontend/lexer.h"
#include "support/strings.h"

namespace clpp::frontend {

std::string schedule_name(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kNone: return "none";
    case ScheduleKind::kStatic: return "static";
    case ScheduleKind::kDynamic: return "dynamic";
    case ScheduleKind::kGuided: return "guided";
    case ScheduleKind::kAuto: return "auto";
    case ScheduleKind::kRuntime: return "runtime";
  }
  return "none";
}

std::string reduction_op_name(ReductionOp op) {
  switch (op) {
    case ReductionOp::kAdd: return "+";
    case ReductionOp::kSub: return "-";
    case ReductionOp::kMul: return "*";
    case ReductionOp::kMin: return "min";
    case ReductionOp::kMax: return "max";
    case ReductionOp::kAnd: return "&&";
    case ReductionOp::kOr: return "||";
    case ReductionOp::kBitAnd: return "&";
    case ReductionOp::kBitOr: return "|";
    case ReductionOp::kBitXor: return "^";
  }
  return "+";
}

ReductionOp reduction_op_from(std::string_view symbol) {
  if (symbol == "+") return ReductionOp::kAdd;
  if (symbol == "-") return ReductionOp::kSub;
  if (symbol == "*") return ReductionOp::kMul;
  if (symbol == "min") return ReductionOp::kMin;
  if (symbol == "max") return ReductionOp::kMax;
  if (symbol == "&&") return ReductionOp::kAnd;
  if (symbol == "||") return ReductionOp::kOr;
  if (symbol == "&") return ReductionOp::kBitAnd;
  if (symbol == "|") return ReductionOp::kBitOr;
  if (symbol == "^") return ReductionOp::kBitXor;
  throw ParseError("unknown reduction operator: " + std::string(symbol));
}

namespace {

/// Simple word/paren scanner over the pragma text.
class PragmaScanner {
 public:
  explicit PragmaScanner(std::string_view text) : text_(text) {}

  /// Next identifier-like word; empty at end.
  std::string next_word() {
    skip_ws();
    std::string word;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      word.push_back(text_[pos_++]);
    return word;
  }

  /// If the next non-space char is '(', returns the balanced-paren body.
  bool paren_body(std::string& out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '(') return false;
    int depth = 0;
    std::string body;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '(') {
        if (depth++ > 0) body.push_back(c);
      } else if (c == ')') {
        if (--depth == 0) break;
        body.push_back(c);
      } else {
        body.push_back(c);
      }
    }
    out = std::string(trim(body));
    return true;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  /// Consumes one non-word character (malformed input recovery).
  void skip_one() {
    if (pos_ < text_.size()) ++pos_;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::vector<std::string> split_list(const std::string& body) {
  std::vector<std::string> out;
  for (const std::string& item : split(body, ','))
    if (!trim(item).empty()) out.emplace_back(trim(item));
  return out;
}

/// A clause's integer argument: one C integer literal that fits an int.
std::optional<int> int_argument(std::string_view text) {
  const auto value = int_literal_value(trim(text));
  if (!value || *value > INT_MAX) return std::nullopt;
  return static_cast<int>(*value);
}

std::string_view strip_prefix(std::string_view text) {
  std::string_view rest = trim(text);
  if (starts_with(rest, "#")) rest = trim(rest.substr(1));
  if (starts_with(rest, "pragma")) rest = trim(rest.substr(6));
  return rest;
}

}  // namespace

bool is_omp_pragma(std::string_view text) {
  std::string_view rest = strip_prefix(text);
  return starts_with(rest, "omp") &&
         (rest.size() == 3 || !(std::isalnum(static_cast<unsigned char>(rest[3])) ||
                                rest[3] == '_'));
}

OmpDirective parse_omp_pragma(std::string_view text) {
  if (!is_omp_pragma(text))
    throw ParseError("not an OpenMP pragma: " + std::string(text));
  std::string_view rest = trim(strip_prefix(text).substr(3));

  OmpDirective directive;
  PragmaScanner scanner(rest);
  while (!scanner.at_end()) {
    const std::string word = scanner.next_word();
    if (word.empty()) {
      scanner.skip_one();
      continue;
    }
    if (word == "parallel") {
      directive.parallel = true;
    } else if (word == "for") {
      directive.for_loop = true;
    } else if (word == "simd") {
      directive.simd = true;
    } else if (word == "critical") {
      directive.critical = true;
    } else if (word == "atomic") {
      directive.atomic = true;
    } else if (word == "barrier") {
      directive.barrier = true;
    } else if (word == "single") {
      directive.single = true;
    } else if (word == "master") {
      directive.master = true;
    } else if (word == "nowait") {
      directive.nowait = true;
    } else if (word == "schedule") {
      std::string body;
      if (scanner.paren_body(body)) {
        const auto parts = split_list(body);
        if (!parts.empty()) {
          const std::string kind = to_lower(parts[0]);
          if (kind == "static") directive.schedule = ScheduleKind::kStatic;
          else if (kind == "dynamic") directive.schedule = ScheduleKind::kDynamic;
          else if (kind == "guided") directive.schedule = ScheduleKind::kGuided;
          else if (kind == "auto") directive.schedule = ScheduleKind::kAuto;
          else if (kind == "runtime") directive.schedule = ScheduleKind::kRuntime;
          else directive.unknown_clauses.push_back("schedule(" + body + ")");
          if (parts.size() > 1) directive.schedule_chunk = int_argument(parts[1]).value_or(0);
        }
      }
    } else if (word == "collapse") {
      std::string body;
      if (scanner.paren_body(body)) {
        if (const auto value = int_argument(body))
          directive.collapse = *value;
        else
          directive.unknown_clauses.push_back("collapse(" + body + ")");
      }
    } else if (word == "safelen" || word == "simdlen") {
      std::string body;
      if (scanner.paren_body(body)) {
        int& slot = word == "safelen" ? directive.safelen : directive.simdlen;
        if (const auto value = int_argument(body))
          slot = *value;
        else
          directive.unknown_clauses.push_back(word + "(" + body + ")");
      }
    } else if (word == "num_threads") {
      std::string body;
      if (scanner.paren_body(body)) directive.num_threads = body;
    } else if (word == "private") {
      std::string body;
      if (scanner.paren_body(body))
        for (auto& v : split_list(body)) directive.private_vars.push_back(std::move(v));
    } else if (word == "firstprivate") {
      std::string body;
      if (scanner.paren_body(body))
        for (auto& v : split_list(body))
          directive.firstprivate_vars.push_back(std::move(v));
    } else if (word == "lastprivate") {
      std::string body;
      if (scanner.paren_body(body))
        for (auto& v : split_list(body))
          directive.lastprivate_vars.push_back(std::move(v));
    } else if (word == "shared") {
      std::string body;
      if (scanner.paren_body(body))
        for (auto& v : split_list(body)) directive.shared_vars.push_back(std::move(v));
    } else if (word == "default") {
      std::string body;
      if (scanner.paren_body(body))
        directive.unknown_clauses.push_back("default(" + body + ")");
    } else if (word == "reduction") {
      std::string body;
      if (scanner.paren_body(body)) {
        const std::size_t colon = body.find(':');
        if (colon == std::string::npos) {
          directive.unknown_clauses.push_back("reduction(" + body + ")");
        } else {
          const std::string op{trim(body.substr(0, colon))};
          try {
            const ReductionOp parsed = reduction_op_from(op);
            for (auto& v : split_list(body.substr(colon + 1)))
              directive.reductions.push_back(Reduction{parsed, std::move(v)});
          } catch (const ParseError&) {
            directive.unknown_clauses.push_back("reduction(" + body + ")");
          }
        }
      }
    } else {
      std::string body;
      if (scanner.paren_body(body)) {
        directive.unknown_clauses.push_back(word + "(" + body + ")");
      } else {
        directive.unknown_clauses.push_back(word);
      }
    }
  }
  return directive;
}

std::string OmpDirective::to_string() const {
  std::string out = "#pragma omp";
  if (parallel) out += " parallel";
  if (for_loop) out += " for";
  if (simd) out += " simd";
  if (critical) out += " critical";
  if (atomic) out += " atomic";
  if (barrier) out += " barrier";
  if (single) out += " single";
  if (master) out += " master";
  if (schedule != ScheduleKind::kNone) {
    out += " schedule(" + schedule_name(schedule);
    if (schedule_chunk > 0) out += ", " + std::to_string(schedule_chunk);
    out += ')';
  }
  if (collapse > 0) out += " collapse(" + std::to_string(collapse) + ")";
  if (safelen > 0) out += " safelen(" + std::to_string(safelen) + ")";
  if (simdlen > 0) out += " simdlen(" + std::to_string(simdlen) + ")";
  if (!num_threads.empty()) out += " num_threads(" + num_threads + ")";
  auto list = [&out](const char* name, const std::vector<std::string>& vars) {
    if (vars.empty()) return;
    out += std::string(" ") + name + "(" + join(vars, ", ") + ")";
  };
  list("private", private_vars);
  list("firstprivate", firstprivate_vars);
  list("lastprivate", lastprivate_vars);
  list("shared", shared_vars);
  if (!reductions.empty()) {
    // Group by operator for canonical output.
    for (std::size_t i = 0; i < reductions.size(); ++i) {
      if (i > 0 && reductions[i].op == reductions[i - 1].op) continue;
      out += " reduction(" + reduction_op_name(reductions[i].op) + ": ";
      bool first = true;
      for (const Reduction& r : reductions) {
        if (r.op != reductions[i].op) continue;
        if (!first) out += ", ";
        first = false;
        out += r.variable;
      }
      out += ')';
    }
  }
  if (nowait) out += " nowait";
  for (const std::string& clause : unknown_clauses) out += " " + clause;
  return out;
}

}  // namespace clpp::frontend
