// Abstract syntax tree for the C subset.
//
// Nodes are a single generic type (kind + strings + children) in the spirit
// of pycparser's homogeneous node protocol: this makes the DFS
// serialization of §4.2 of the paper (Table 2/5) a direct tree walk, and
// lets analyses pattern-match on kinds without a visitor hierarchy.
//
// Child conventions (fixed positions):
//   For        [init, cond, next, body]
//   While      [cond, body]
//   DoWhile    [body, cond]
//   If         [cond, then] or [cond, then, else]
//   Assignment text=op          [lhs, rhs]
//   BinaryOp   text=op          [lhs, rhs]
//   UnaryOp    text=op          [operand]       ("p++"/"p--" are postfix)
//   TernaryOp  [cond, then, else]
//   ArrayRef   [base, index]
//   FuncCall   [callee, ExprList]
//   StructRef  text="." or "->" [base, field]
//   Cast       text=type        [expr]
//   Decl       text=name aux=type [dims..., init?]  (dims are expressions;
//                                  aux ends with "[]" once per dimension)
//   FuncDef    text=name aux=return type [ExprList(params), Compound]
//   ExprStmt   [expr]
//   Return     [] or [expr]
//   Pragma     text=directive text (without '#')
//   ID         text=name
//   Constant   text=value aux=type ("int"/"float"/"char"/"string")
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/error.h"

namespace clpp::frontend {

enum class NodeKind {
  kTranslationUnit,
  kFuncDef,
  kDecl,
  kCompound,
  kFor,
  kWhile,
  kDoWhile,
  kIf,
  kReturn,
  kBreak,
  kContinue,
  kGoto,
  kLabel,
  kExprStmt,
  kAssignment,
  kBinaryOp,
  kUnaryOp,
  kTernaryOp,
  kID,
  kConstant,
  kArrayRef,
  kFuncCall,
  kExprList,
  kStructRef,
  kCast,
  kSizeof,
  kEmpty,
  kPragma,
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

/// Generic AST node; see file comment for child conventions.
struct Node {
  NodeKind kind;
  std::string text;  // name / operator / value / directive, by kind
  std::string aux;   // type information, by kind
  std::vector<NodePtr> children;
  int line = 0;    // 1-based source line; 0 = synthesized node
  int column = 0;  // 1-based source column; 0 = synthesized node

  explicit Node(NodeKind k) : kind(k) {}
  Node(NodeKind k, std::string t) : kind(k), text(std::move(t)) {}
  Node(NodeKind k, std::string t, std::string a)
      : kind(k), text(std::move(t)), aux(std::move(a)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Deep copy.
  NodePtr clone() const;

  /// Checked child access.
  const Node& child(std::size_t i) const {
    CLPP_CHECK_MSG(i < children.size(), "AST child index out of range");
    return *children[i];
  }
  Node& child(std::size_t i) {
    CLPP_CHECK_MSG(i < children.size(), "AST child index out of range");
    return *children[i];
  }

  bool is(NodeKind k) const { return kind == k; }
};

/// Builders.
NodePtr make_node(NodeKind kind, std::string text = {}, std::string aux = {});
NodePtr make_id(std::string name);
NodePtr make_int(long long value);
NodePtr make_float(std::string value);

/// pycparser-style node label, e.g. "For:", "Assignment: =",
/// "Constant: int, 0" — the exact line format of Table 2 of the paper.
std::string node_label(const Node& node);

/// Pre-order (DFS) visit; `fn(node, depth)` for every node.
template <typename Fn>
void walk(const Node& node, Fn&& fn, int depth = 0) {
  fn(node, depth);
  for (const NodePtr& c : node.children) walk(*c, fn, depth + 1);
}

/// Mutable pre-order visit.
template <typename Fn>
void walk_mut(Node& node, Fn&& fn, int depth = 0) {
  fn(node, depth);
  for (NodePtr& c : node.children) walk_mut(*c, fn, depth + 1);
}

/// Counts nodes of a given kind in the subtree.
std::size_t count_kind(const Node& node, NodeKind kind);

/// Human-readable kind name (diagnostics and serialization).
std::string node_kind_name(NodeKind kind);

}  // namespace clpp::frontend
