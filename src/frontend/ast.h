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
//
// Memory: a tree is immutable once parsed. Its nodes, child arrays and
// text live in one Arena that the NodePtr handle owns (arena.h), so node
// text and children are views into that arena and die with the handle.
// `height` counts the levels of each subtree; the parser keeps every tree
// within kMaxNesting (parser.h), so recursive walks stay shallow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "frontend/arena.h"
#include "frontend/token.h"
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

/// Generic AST node; see file comment for child conventions.
struct Node {
  NodeKind kind;
  int line = 0;    // 1-based source line; 0 = synthesized node
  int column = 0;  // 1-based source column; 0 = synthesized node
  std::uint32_t height = 1;  // levels in the subtree rooted here
  Text text;  // name / operator / value / directive, by kind
  Text aux;   // type information, by kind
  std::span<const Node* const> children;

  Node(NodeKind k, int l, int c, Text t, Text a)
      : kind(k), line(l), column(c), text(t), aux(a) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Checked child access.
  const Node& child(std::size_t i) const {
    CLPP_CHECK_MSG(i < children.size(), "AST child index out of range");
    return *children[i];
  }

  bool is(NodeKind k) const { return kind == k; }
};

/// Owning handle of a parsed tree: its root and the arena that holds every
/// node of it. Movable, not copyable; empty when default-constructed.
class NodePtr {
 public:
  NodePtr() = default;
  NodePtr(std::nullptr_t) {}
  NodePtr(Arena arena, const Node* root) : arena_(std::move(arena)), root_(root) {}
  NodePtr(NodePtr&& other) noexcept
      : arena_(std::move(other.arena_)), root_(std::exchange(other.root_, nullptr)) {}
  NodePtr& operator=(NodePtr&& other) noexcept {
    arena_ = std::move(other.arena_);
    root_ = std::exchange(other.root_, nullptr);
    return *this;
  }

  const Node& operator*() const { return *root_; }
  const Node* operator->() const { return root_; }
  const Node* get() const { return root_; }
  explicit operator bool() const { return root_ != nullptr; }
  friend bool operator==(const NodePtr& p, std::nullptr_t) { return p.root_ == nullptr; }

 private:
  Arena arena_;
  const Node* root_ = nullptr;
};

/// pycparser-style node label, e.g. "For:", "Assignment: =",
/// "Constant: int, 0" — the exact line format of Table 2 of the paper.
std::string node_label(const Node& node);

/// Pre-order (DFS) visit; `fn(node, depth)` for every node.
template <typename Fn>
void walk(const Node& node, Fn&& fn, int depth = 0) {
  fn(node, depth);
  for (const Node* c : node.children) walk(*c, fn, depth + 1);
}

/// Counts nodes of a given kind in the subtree.
std::size_t count_kind(const Node& node, NodeKind kind);

/// Human-readable kind name (diagnostics and serialization).
std::string node_kind_name(NodeKind kind);

}  // namespace clpp::frontend
