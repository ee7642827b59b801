#include "tokenize/representation.h"

#include <functional>
#include <set>

#include "analysis/sideeffects.h"
#include "frontend/dfs.h"
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

/// Normalizes a literal token so the vocabulary stays small and closed.
std::string bucket_literal(const Token& token) {
  switch (token.kind) {
    case TokenKind::kIntLiteral: {
      try {
        if (std::stoll(token.text) <= 100) return token.text;
      } catch (const std::exception&) {
      }
      return "<num>";
    }
    case TokenKind::kFloatLiteral:
      return token.text.size() <= 4 ? token.text : "<num>";
    case TokenKind::kStringLiteral:
      return "<str>";
    case TokenKind::kCharLiteral:
      return "<chr>";
    default:
      return token.text;
  }
}

/// Classification of snippet identifiers for replacement.
struct NameClasses {
  std::set<std::string> arrays;
  std::set<std::string> functions;
};

NameClasses classify_names(const std::string& code) {
  NameClasses out;
  // Parse if possible; fall back to no class info (everything becomes varN).
  try {
    const frontend::NodePtr unit = frontend::parse_snippet(code);
    frontend::walk(*unit, [&](const Node& node, int) {
      if (node.kind == NodeKind::kArrayRef && node.child(0).kind == NodeKind::kID)
        out.arrays.insert(node.child(0).text);
      if (node.kind == NodeKind::kFuncCall && node.child(0).kind == NodeKind::kID)
        out.functions.insert(node.child(0).text);
      if (node.kind == NodeKind::kFuncDef) out.functions.insert(node.text);
      if (node.kind == NodeKind::kDecl && node.aux.find("[]") != std::string::npos)
        out.arrays.insert(node.text);
    });
  } catch (const ParseError&) {
  }
  return out;
}

std::map<std::string, std::string> build_replacements(
    const std::vector<Token>& tokens, const NameClasses& classes) {
  std::map<std::string, std::string> map;
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

std::vector<std::string> text_tokens(const std::string& code, bool replaced) {
  const std::vector<Token> tokens = frontend::lex(code);
  std::map<std::string, std::string> map;
  if (replaced) map = build_replacements(tokens, classify_names(code));
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kEnd) break;
    if (token.kind == TokenKind::kPragma) continue;  // never leak labels
    if (token.kind == TokenKind::kIdentifier && replaced) {
      auto it = map.find(token.text);
      out.push_back(it == map.end() ? token.text : it->second);
      continue;
    }
    out.push_back(bucket_literal(token));
  }
  return out;
}

std::vector<std::string> ast_tokens(const std::string& code, bool replaced) {
  frontend::NodePtr unit = frontend::parse_snippet(code);
  std::map<std::string, std::string> map;
  if (replaced) map = build_replacements(frontend::lex(code), classify_names(code));
  // Strip pragmas: labels must not leak into inputs.
  std::function<void(Node&)> strip = [&](Node& node) {
    auto& kids = node.children;
    kids.erase(std::remove_if(kids.begin(), kids.end(),
                              [](const frontend::NodePtr& c) {
                                return c->kind == NodeKind::kPragma;
                              }),
               kids.end());
    for (auto& c : kids) strip(*c);
  };
  strip(*unit);
  if (replaced) {
    frontend::walk_mut(*unit, [&](Node& node, int) {
      auto rename = [&](std::string& name) {
        auto it = map.find(name);
        if (it != map.end()) name = it->second;
      };
      if (node.kind == NodeKind::kID || node.kind == NodeKind::kDecl ||
          node.kind == NodeKind::kFuncDef)
        rename(node.text);
    });
  }
  std::vector<std::string> out = frontend::dfs_tokens(*unit);
  // Bucket constant values the same way the text path does.
  for (std::size_t t = 0; t + 2 < out.size(); ++t) {
    if (out[t] != "Constant:") continue;
    const std::string& type = out[t + 1];
    std::string& value = out[t + 2];
    if (type == "string") value = "<str>";
    else if (type == "char") value = "<chr>";
    else if (type == "int") {
      try {
        if (std::stoll(value) > 100) value = "<num>";
      } catch (const std::exception&) {
        value = "<num>";
      }
    } else if (type == "float" && value.size() > 4) {
      value = "<num>";
    }
  }
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
