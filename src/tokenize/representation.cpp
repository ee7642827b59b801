#include "tokenize/representation.h"

#include <charconv>
#include <set>

#include "analysis/sideeffects.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "support/error.h"

namespace clpp::tokenize {

using frontend::Node;
using frontend::NodeKind;
using frontend::Token;
using frontend::TokenKind;

std::string representation_name(Representation rep) {
  switch (rep) {
    case Representation::kText: return "Text";
    case Representation::kRText: return "R-Text";
    case Representation::kAst: return "AST";
    case Representation::kRAst: return "R-AST";
  }
  return "?";
}

Representation representation_from(const std::string& name) {
  for (Representation rep : all_representations())
    if (representation_name(rep) == name) return rep;
  throw InvalidArgument("unknown representation: " + name);
}

const std::vector<Representation>& all_representations() {
  static const std::vector<Representation> kAll = {
      Representation::kText, Representation::kRText, Representation::kAst,
      Representation::kRAst};
  return kAll;
}

namespace {

/// Library names exempt from replacement: their identity is linguistic
/// signal (printf implies I/O; sqrt implies pure math), not naming style.
bool is_builtin_name(const std::string& name) {
  return analysis::SideEffectOracle::is_whitelisted_pure(name) ||
         analysis::SideEffectOracle::is_known_io(name) ||
         analysis::SideEffectOracle::is_known_alloc(name);
}

/// Normalizes a literal value so the vocabulary stays small and closed:
/// integers above 100 and floats longer than four characters become
/// "<num>", string and char bodies "<str>" and "<chr>".
std::string bucket_literal(TokenKind kind, std::string_view value) {
  switch (kind) {
    case TokenKind::kIntLiteral: {
      long long number = 0;
      const auto [end, error] = std::from_chars(value.data(), value.data() + value.size(), number);
      return error == std::errc() && number <= 100 ? std::string(value) : "<num>";
    }
    case TokenKind::kFloatLiteral:
      return value.size() <= 4 ? std::string(value) : "<num>";
    case TokenKind::kStringLiteral:
      return "<str>";
    case TokenKind::kCharLiteral:
      return "<chr>";
    default:
      return std::string(value);
  }
}

/// The literal kind a Constant node's type (its aux) spells.
TokenKind literal_kind(std::string_view type) {
  if (type == "int") return TokenKind::kIntLiteral;
  if (type == "float") return TokenKind::kFloatLiteral;
  if (type == "string") return TokenKind::kStringLiteral;
  return TokenKind::kCharLiteral;
}

/// Classification of snippet identifiers for replacement.
struct NameClasses {
  std::set<std::string> arrays;
  std::set<std::string> functions;
};

NameClasses classify_names(const Node& unit) {
  NameClasses out;
  frontend::walk(unit, [&](const Node& node, int) {
    if (node.kind == NodeKind::kArrayRef && node.child(0).kind == NodeKind::kID)
      out.arrays.insert(node.child(0).text);
    if (node.kind == NodeKind::kFuncCall && node.child(0).kind == NodeKind::kID)
      out.functions.insert(node.child(0).text);
    if (node.kind == NodeKind::kFuncDef) out.functions.insert(node.text);
    if (node.kind == NodeKind::kDecl && node.aux.find("[]") != std::string::npos)
      out.arrays.insert(node.text);
  });
  return out;
}

/// Classes of a snippet that may not parse: without a tree, every name
/// becomes varN.
NameClasses classify_names(const std::string& code) {
  try {
    return classify_names(*frontend::parse_snippet(code));
  } catch (const ParseError&) {
    return {};
  }
}

using NameMap = std::map<std::string, std::string>;

NameMap build_replacements(const frontend::TokenList& tokens, const NameClasses& classes) {
  NameMap map;
  std::size_t vars = 0, arrs = 0, fns = 0;
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kIdentifier) continue;
    if (is_builtin_name(token.text)) continue;
    if (map.count(token.text)) continue;
    if (classes.functions.count(token.text)) {
      map[token.text] = "fn" + std::to_string(fns++);
    } else if (classes.arrays.count(token.text)) {
      map[token.text] = "arr" + std::to_string(arrs++);
    } else {
      map[token.text] = "var" + std::to_string(vars++);
    }
  }
  return map;
}

std::string renamed(const NameMap& map, std::string_view name) {
  const auto it = map.find(std::string(name));
  return it == map.end() ? std::string(name) : it->second;
}

std::vector<std::string> text_tokens(const std::string& code, bool replaced) {
  const frontend::TokenList tokens = frontend::lex(code);
  NameMap map;
  if (replaced) map = build_replacements(tokens, classify_names(code));
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kEnd) break;
    if (token.kind == TokenKind::kPragma) continue;  // never leak labels
    if (token.kind == TokenKind::kIdentifier && replaced) {
      out.push_back(renamed(map, token.text));
      continue;
    }
    out.push_back(bucket_literal(token.kind, token.text));
  }
  return out;
}

/// The DFS token stream of one parse (paper §4.2): each node's label split
/// into its symbols. Pragma nodes are skipped so a label never leaks into
/// its own input, ID/Decl/FuncDef names are replaced under R-AST, and
/// constant values are bucketed like the Text path's literals.
std::vector<std::string> ast_tokens(const std::string& code, bool replaced) {
  const frontend::NodePtr unit = frontend::parse_snippet(code);
  NameMap map;
  if (replaced) map = build_replacements(frontend::lex(code), classify_names(*unit));
  std::vector<std::string> out;
  frontend::walk(*unit, [&](const Node& node, int) {
    if (node.kind == NodeKind::kTranslationUnit || node.kind == NodeKind::kPragma) return;
    out.push_back(frontend::node_kind_name(node.kind) + ":");
    switch (node.kind) {
      case NodeKind::kID:
      case NodeKind::kFuncDef:
        out.push_back(renamed(map, node.text));
        return;
      case NodeKind::kDecl:
        out.push_back(renamed(map, node.text));
        out.push_back(node.aux);
        return;
      case NodeKind::kConstant:
        out.push_back(node.aux);
        out.push_back(bucket_literal(literal_kind(node.aux), node.text));
        return;
      case NodeKind::kAssignment:
      case NodeKind::kBinaryOp:
      case NodeKind::kUnaryOp:
      case NodeKind::kStructRef:
      case NodeKind::kCast:
        out.push_back(node.text);
        return;
      default:
        return;
    }
  });
  return out;
}

}  // namespace

std::vector<std::string> tokenize(const std::string& code, Representation rep) {
  switch (rep) {
    case Representation::kText: return text_tokens(code, false);
    case Representation::kRText: return text_tokens(code, true);
    case Representation::kAst: return ast_tokens(code, false);
    case Representation::kRAst: return ast_tokens(code, true);
  }
  throw InvalidArgument("bad representation");
}

std::map<std::string, std::string> replacement_map(const std::string& code) {
  return build_replacements(frontend::lex(code), classify_names(code));
}

}  // namespace clpp::tokenize
