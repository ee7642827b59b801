#include "analysis/accesses.h"

#include <algorithm>

namespace clpp::analysis {

using frontend::Node;
using frontend::NodeKind;

namespace {

/// Subscript count of an ArrayRef chain: `A[i][j]` has two.
std::size_t rank_of(const Node& node) {
  std::size_t rank = 0;
  for (const Node* n = &node; n->kind == NodeKind::kArrayRef; n = &n->child(0)) ++rank;
  return rank;
}

/// Base of an ArrayRef chain.
const Node& base_of(const Node& node) {
  const Node* n = &node;
  while (n->kind == NodeKind::kArrayRef) n = &n->child(0);
  return *n;
}

/// Recursive collector distinguishing read and write contexts. Scanning a
/// loop body (`nest`), it also tracks the innermost canonical `for`, the
/// branches and the nested loops around each node.
class Collector {
 public:
  Collector(AccessSet& out, bool nest) : out_(out), nest_(nest) {
    if (nest_) loop_ = 0;
  }

  void scan(const Node& node) {
    expr(node, /*write=*/false);
    // Each access pushed its subscripts in order; point every span at its
    // run now that the table no longer grows.
    std::size_t at = 0;
    for (Access& a : out_.accesses) {
      if (!a.is_array) continue;
      const std::size_t rank = rank_of(*a.site);
      a.subscripts = {out_.subscript_table.data() + at, rank};
      at += rank;
    }
  }

 private:
  void record(std::string_view name, bool write, const Node* site, bool array = false) {
    if (array) {
      const std::size_t rank = rank_of(*site);
      const std::size_t first = out_.subscript_table.size();
      out_.subscript_table.resize(first + rank);
      const Node* n = site;
      for (std::size_t d = rank; d-- > 0; n = &n->child(0))
        out_.subscript_table[first + d] = &n->child(1);
    }
    out_.accesses.push_back(Access{name, write, array, conditional_ > 0, loop_, {}, site});
  }

  /// Visits the subscripts of an ArrayRef chain, first dimension first:
  /// subscript expressions are reads.
  void subscripts(const Node& node) {
    if (node.kind != NodeKind::kArrayRef) return;
    subscripts(node.child(0));
    expr(node.child(1), false);
  }

  /// Handles an lvalue occurrence (assignment target, ++/--). For
  /// read-modify-write forms the read is recorded *before* the write, so
  /// def-before-use privatization tests see the true program order.
  void lvalue(const Node& node, bool also_read) {
    switch (node.kind) {
      case NodeKind::kID:
        if (also_read) record(node.text, false, &node);
        record(node.text, /*write=*/true, &node);
        return;
      case NodeKind::kArrayRef: {
        subscripts(node);
        const Node& base = base_of(node);
        if (base.kind == NodeKind::kID) {
          if (also_read) record(base.text, false, &node, /*array=*/true);
          record(base.text, true, &node, /*array=*/true);
        } else {
          // Writing through a computed base (struct member array, deref).
          out_.hazards.pointer_deref_write = true;
          expr(base, false);
        }
        return;
      }
      case NodeKind::kUnaryOp:
        if (node.text == "*") {
          out_.hazards.pointer_deref_write = true;
          expr(node.child(0), false);
          return;
        }
        expr(node, false);
        return;
      case NodeKind::kStructRef:
        out_.hazards.struct_access = true;
        out_.hazards.pointer_deref_write = true;
        expr(node.child(0), false);
        return;
      default:
        expr(node, false);
        return;
    }
  }

  /// Visits a `for`: a canonical one becomes the innermost loop of every
  /// site in its header and body.
  void for_loop(const Node& node) {
    out_.has_for = true;
    const std::uint32_t enclosing = loop_;
    if (nest_) {
      if (auto canon = canonicalize(node)) {
        const std::uint32_t depth = out_.loops[enclosing].depth + 1;
        out_.loops.push_back({*canon, canon->static_trip_count(), enclosing, depth});
        loop_ = static_cast<std::uint32_t>(out_.loops.size() - 1);
      }
    }
    nested_loop(node);
    loop_ = enclosing;
  }

  /// Visits a loop's children: a `break` inside leaves that loop only.
  void nested_loop(const Node& node) {
    ++nested_;
    for (const Node* c : node.children) expr(*c, false);
    --nested_;
  }

  /// Visits an `if` or a ternary: everything after the condition is a
  /// branch that may not run.
  void branches(const Node& node) {
    expr(node.child(0), false);
    ++conditional_;
    for (std::size_t b = 1; b < node.children.size(); ++b) expr(node.child(b), false);
    --conditional_;
  }

  void expr(const Node& node, bool write) {
    switch (node.kind) {
      case NodeKind::kID:
        record(node.text, write, &node);
        return;
      case NodeKind::kAssignment: {
        // The rhs is evaluated before the store, so record its reads first:
        // def-before-use analyses rely on this program order. Compound
        // assignments also read the target before writing it.
        expr(node.child(1), false);
        lvalue(node.child(0), /*also_read=*/node.text != "=");
        return;
      }
      case NodeKind::kUnaryOp: {
        if (node.text == "++" || node.text == "--" || node.text == "p++" ||
            node.text == "p--") {
          lvalue(node.child(0), /*also_read=*/true);
          return;
        }
        if (node.text == "&") {
          out_.hazards.address_taken = true;
          expr(node.child(0), false);
          return;
        }
        expr(node.child(0), false);
        return;
      }
      case NodeKind::kArrayRef: {
        subscripts(node);
        const Node& base = base_of(node);
        if (base.kind == NodeKind::kID) {
          record(base.text, write, &node, /*array=*/true);
        } else {
          if (write) out_.hazards.pointer_deref_write = true;
          expr(base, false);
        }
        return;
      }
      case NodeKind::kFuncCall: {
        const Node& callee = node.child(0);
        if (callee.kind == NodeKind::kID) {
          out_.hazards.called_functions.push_back(callee.text);
        } else {
          out_.hazards.function_pointer_call = true;
          expr(callee, false);
        }
        // Arguments are reads; arrays/pointers passed by value may still be
        // written through — the side-effect analysis decides what that means.
        for (const auto& arg : node.child(1).children) expr(*arg, false);
        return;
      }
      case NodeKind::kStructRef:
        out_.hazards.struct_access = true;
        expr(node.child(0), write);
        return;
      case NodeKind::kDecl: {
        // Declarations write their name; dims and init are reads.
        record(node.text, true, &node);
        out_.decls.push_back(node.text);
        for (const auto& c : node.children) expr(*c, false);
        return;
      }
      case NodeKind::kFor:
        for_loop(node);
        return;
      case NodeKind::kWhile:
      case NodeKind::kDoWhile:
        nested_loop(node);
        return;
      case NodeKind::kIf:
      case NodeKind::kTernaryOp:
        branches(node);
        return;
      case NodeKind::kBreak:
        if (nested_ == 0) out_.hazards.early_exit = true;
        return;
      case NodeKind::kGoto:
        out_.hazards.early_exit = true;
        return;
      case NodeKind::kReturn:
        out_.hazards.early_exit = true;
        for (const auto& c : node.children) expr(*c, false);
        return;
      case NodeKind::kConstant:
      case NodeKind::kEmpty:
      case NodeKind::kPragma:
      case NodeKind::kContinue:
        return;
      default:
        for (const auto& c : node.children) expr(*c, false);
        return;
    }
  }

  AccessSet& out_;
  const bool nest_;
  std::uint32_t loop_ = kNoLoop;  // innermost canonical loop (nest scans)
  int nested_ = 0;                // loops entered below the scanned root
  int conditional_ = 0;           // branches entered below the scanned root
};

}  // namespace

AccessSet::AccessSet(std::pmr::memory_resource* memory)
    : accesses(memory),
      hazards{.called_functions = std::pmr::vector<std::string_view>(memory)},
      loops(memory),
      decls(memory),
      subscript_table(memory) {}

std::vector<const Access*> AccessSet::writes_of(std::string_view variable) const {
  std::vector<const Access*> out;
  for (const Access& a : accesses)
    if (a.is_write && a.variable == variable) out.push_back(&a);
  return out;
}

std::vector<const Access*> AccessSet::reads_of(std::string_view variable) const {
  std::vector<const Access*> out;
  for (const Access& a : accesses)
    if (!a.is_write && a.variable == variable) out.push_back(&a);
  return out;
}

bool AccessSet::is_written(std::string_view variable) const {
  return std::any_of(accesses.begin(), accesses.end(), [&](const Access& a) {
    return a.is_write && a.variable == variable;
  });
}

bool AccessSet::is_read(std::string_view variable) const {
  return std::any_of(accesses.begin(), accesses.end(), [&](const Access& a) {
    return !a.is_write && a.variable == variable;
  });
}

const Access* AccessSet::first_scalar_access(std::string_view variable) const {
  for (const Access& a : accesses)
    if (a.variable == variable && !a.is_array) return &a;
  return nullptr;
}

AccessSet collect_accesses(const frontend::Node& node) {
  AccessSet out;
  Collector{out, /*nest=*/false}.scan(node);
  return out;
}

LoopScan::LoopScan(const Node& loop) : loop_(&loop) {
  auto canon = canonicalize(loop);
  if (!canon) return;
  body_.loops.push_back({*canon, canon->static_trip_count(), kNoLoop, 1});
  Collector{body_, /*nest=*/true}.scan(loop.child(3));
}

}  // namespace clpp::analysis
