// Memory-access collection over AST subtrees.
//
// First stage of the classic S2S pipeline (§1.1 step 2): gather every read
// and write of every variable in a loop body, with array subscripts kept
// for the dependence tests. The collector is conservative: constructs it
// cannot reason about (pointer dereferences, address-taken variables,
// calls with out-parameters) are flagged rather than ignored.
//
// A loop is read once: LoopScan canonicalizes it and, in the same walk of
// its body, records each access's innermost canonical `for` and whether it
// runs under a branch, the body's declarations, the nest's canonical loops
// and any escaping control flow. The tables are flat and live in an arena
// inside the scan, so a typical loop is scanned without a heap call. Names
// and subscripts view the scanned tree, which must outlive the tables.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/loopinfo.h"
#include "frontend/ast.h"

namespace clpp::analysis {

/// Index of a NestLoop in AccessSet::loops; kNoLoop outside any.
constexpr std::uint32_t kNoLoop = UINT32_MAX;

/// One variable access.
struct Access {
  std::string_view variable;  // base variable name
  bool is_write = false;
  bool is_array = false;
  /// Runs under an `if` branch or a ternary arm, so not on every iteration.
  bool conditional = false;
  /// Innermost canonical `for` around the site (AccessSet::loops), or
  /// kNoLoop when the subtree was not scanned as a loop.
  std::uint32_t loop = kNoLoop;
  std::span<const frontend::Node* const> subscripts;  // first dimension first
  const frontend::Node* site = nullptr;                // the expression node
};

/// Aggregated facts that make the enclosing analysis conservative.
struct AccessHazards {
  bool pointer_deref_write = false;   // *p = ..., p->f = ...
  bool address_taken = false;         // &x passed around
  bool struct_access = false;         // a.b or a->b anywhere
  bool function_pointer_call = false; // call through a non-ID callee
  /// break (outside a nested loop), goto or return: control flow that
  /// leaves the scanned subtree and forbids worksharing.
  bool early_exit = false;
  std::pmr::vector<std::string_view> called_functions;  // direct callees, in order
};

/// A canonical `for` of a scanned nest.
struct NestLoop {
  CanonicalLoop canon;
  std::optional<long long> trip;   // canon.static_trip_count()
  std::uint32_t outer = kNoLoop;   // enclosing canonical loop; kNoLoop at the root
  std::uint32_t depth = 1;         // canonical loops from the root to here
};

/// Result of scanning a subtree. Its tables view one another, so it moves
/// but does not copy.
struct AccessSet {
  explicit AccessSet(std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  AccessSet(AccessSet&&) = default;
  AccessSet(const AccessSet&) = delete;
  AccessSet& operator=(const AccessSet&) = delete;

  std::pmr::vector<Access> accesses;  // in program order
  AccessHazards hazards;
  /// Canonical loops of a LoopScan's nest in pre-order, the scanned loop
  /// first; non-canonical loops bind nothing and are left out.
  std::pmr::vector<NestLoop> loops;
  /// Names declared anywhere in the subtree (block-scoped when it is a body).
  std::pmr::vector<std::string_view> decls;
  /// A `for`, canonical or not, anywhere in the subtree.
  bool has_for = false;
  /// Every access's subscripts, back to back; Access::subscripts views it.
  std::pmr::vector<const frontend::Node*> subscript_table;

  std::vector<const Access*> writes_of(std::string_view variable) const;
  std::vector<const Access*> reads_of(std::string_view variable) const;
  bool is_written(std::string_view variable) const;
  bool is_read(std::string_view variable) const;
  /// First non-array access of `variable` in program order, or null.
  const Access* first_scalar_access(std::string_view variable) const;
};

/// Collects all accesses in the subtree rooted at `node`.
AccessSet collect_accesses(const frontend::Node& node);

/// One `for` loop read once: its canonical form and, when it has one, the
/// scan of its body with the nest's canonical loops (loops[0] is this one).
/// Not copyable or movable: the tables live in the scan's own arena.
class LoopScan {
 public:
  /// `loop` must be a For node.
  explicit LoopScan(const frontend::Node& loop);
  LoopScan(const LoopScan&) = delete;
  LoopScan& operator=(const LoopScan&) = delete;

  const frontend::Node& loop() const { return *loop_; }
  /// The loop's canonical form; null leaves the body unscanned.
  const CanonicalLoop* canonical() const {
    return body_.loops.empty() ? nullptr : &body_.loops.front().canon;
  }
  /// The body's accesses and tables; empty when the loop is not canonical.
  const AccessSet& body() const { return body_; }

 private:
  // Enough for the tables of a loop body of a few dozen accesses; a larger
  // body spills into heap blocks that the scan frees.
  alignas(std::max_align_t) std::array<std::byte, 4096> inline_;
  std::pmr::monotonic_buffer_resource memory_{inline_.data(), inline_.size()};
  const frontend::Node* loop_;
  AccessSet body_{&memory_};
};

}  // namespace clpp::analysis
