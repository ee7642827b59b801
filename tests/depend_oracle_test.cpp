// Brute-force oracle for the v2 dependence engine (analysis/ddtest.h).
//
// Property: the engine is allowed to be conservative but never unsound.
// For ≥1000 randomly generated affine loop nests with literal bounds and
// trip counts ≤ 8, every iteration pair is enumerated concretely and each
// observed collision must be admitted by the engine's answer:
//
//   * a collision exists            -> PairResult.possible
//   * a distinct-outer-iteration
//     collision exists              -> PairResult.carried()
//   * every collision's per-level
//     direction class               -> contained in DepLevel.dirs
//   * a pinned carried distance     -> matches every carried collision
//
// The reverse direction (claiming a dependence that does not exist) is
// deliberately unchecked: one-sided conservatism is the contract.
//
// Literals are spelled in decimal, hexadecimal and octal, and collisions
// are computed from the generated specification, so a misread literal in
// the engine shows up as a missed collision.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/accesses.h"
#include "analysis/ddtest.h"
#include "frontend/parser.h"
#include "support/rng.h"

namespace clpp::analysis {
namespace {

using frontend::NodeKind;
using frontend::NodePtr;

struct LoopSpec {
  std::string var;
  long long lower = 0;
  long long step = 1;
  long long trip = 1;  // iteration count; upper bound = lower + step * trip
};

/// One subscript dimension: offset + sum of coeff * induction value.
struct DimSpec {
  long long offset = 0;
  std::vector<long long> coeffs;  // parallel to the nest's loops
};

struct AccessSpec {
  std::vector<DimSpec> dims;
  bool is_write = false;
};

struct NestSpec {
  std::vector<LoopSpec> loops;   // outermost first
  std::vector<AccessSpec> refs;  // accesses to the single array "A"
};

/// `value` as a C literal: decimal, hexadecimal or octal by `style`.
std::string spell(long long value, int style) {
  std::ostringstream out;
  if (style % 3 == 1)
    out << "0x" << std::hex << value;
  else if (style % 3 == 2 && value != 0)
    out << '0' << std::oct << value;
  else
    out << value;
  return out.str();
}

std::string render_subscript(const NestSpec& nest, const DimSpec& dim) {
  std::ostringstream out;
  out << spell(dim.offset, static_cast<int>(dim.offset + dim.coeffs.size()));
  for (std::size_t l = 0; l < dim.coeffs.size(); ++l) {
    const long long c = dim.coeffs[l];
    if (c == 0) continue;
    out << (c > 0 ? " + " : " - ") << (c > 0 ? c : -c) << " * " << nest.loops[l].var;
  }
  return out.str();
}

std::string render_ref(const NestSpec& nest, const AccessSpec& ref) {
  std::string text = "A";
  for (const DimSpec& dim : ref.dims) text += "[" + render_subscript(nest, dim) + "]";
  return text;
}

std::string render(const NestSpec& nest) {
  std::ostringstream out;
  std::string indent;
  for (const LoopSpec& loop : nest.loops) {
    const long long upper = loop.lower + loop.step * loop.trip;
    out << indent << "for (" << loop.var << " = " << loop.lower << "; " << loop.var
        << " < " << spell(upper, static_cast<int>(upper + 2)) << "; ";
    if (loop.step == 1)
      out << loop.var << "++";
    else
      out << loop.var << " += " << loop.step;
    out << ")\n";
    indent += "  ";
  }
  // One statement carrying every reference: writes on the left (chained),
  // reads summed on the right. "A[..] = A[..] = .." is not valid C; emit a
  // compound body instead, one statement per write.
  std::vector<const AccessSpec*> writes, reads;
  for (const AccessSpec& ref : nest.refs)
    (ref.is_write ? writes : reads).push_back(&ref);
  out << indent << "{\n";
  for (std::size_t w = 0; w < writes.size(); ++w) {
    out << indent << "  " << render_ref(nest, *writes[w]) << " = ";
    if (w == 0 && !reads.empty()) {
      for (std::size_t r = 0; r < reads.size(); ++r) {
        if (r > 0) out << " + ";
        out << render_ref(nest, *reads[r]);
      }
      out << " + 1.0;\n";
    } else {
      out << w << ".0;\n";
    }
  }
  out << indent << "}\n";
  return out.str();
}

NestSpec random_nest(Rng& rng) {
  NestSpec nest;
  const int depth = rng.chance(0.5) ? 1 : 2;
  const char* names[] = {"i", "j"};
  for (int l = 0; l < depth; ++l) {
    LoopSpec loop;
    loop.var = names[l];
    loop.lower = rng.range(0, 2);
    loop.step = rng.chance(0.25) ? rng.range(2, 3) : 1;
    loop.trip = rng.range(1, 8);
    nest.loops.push_back(loop);
  }
  const int rank = rng.chance(0.3) ? 2 : 1;
  const int refs = rng.range(2, 3);
  bool have_write = false;
  for (int r = 0; r < refs; ++r) {
    AccessSpec ref;
    ref.is_write = !have_write || rng.chance(0.4);
    have_write = have_write || ref.is_write;
    for (int d = 0; d < rank; ++d) {
      DimSpec dim;
      dim.offset = rng.range(0, 6);
      for (int l = 0; l < depth; ++l) dim.coeffs.push_back(rng.range(-3, 3));
      ref.dims.push_back(dim);
    }
    nest.refs.push_back(ref);
  }
  return nest;
}

/// All iteration vectors of the nest, outermost index first.
std::vector<std::vector<long long>> iteration_space(const NestSpec& nest) {
  std::vector<std::vector<long long>> space{{}};
  for (const LoopSpec& loop : nest.loops) {
    std::vector<std::vector<long long>> next;
    for (const auto& prefix : space)
      for (long long t = 0; t < loop.trip; ++t) {
        auto iter = prefix;
        iter.push_back(loop.lower + loop.step * t);
        next.push_back(iter);
      }
    space = next;
  }
  return space;
}

/// The references in the order the collector records them: each
/// statement's reads, then its write.
std::vector<const AccessSpec*> collected_order(const NestSpec& nest) {
  std::vector<const AccessSpec*> writes, reads;
  for (const AccessSpec& ref : nest.refs) (ref.is_write ? writes : reads).push_back(&ref);
  std::vector<const AccessSpec*> order = reads;
  order.insert(order.end(), writes.begin(), writes.end());
  return order;
}

/// Concrete subscript vector of one reference at one iteration, from its
/// specification.
std::vector<long long> element_of(const AccessSpec& ref, const std::vector<long long>& iter) {
  std::vector<long long> element;
  for (const DimSpec& dim : ref.dims) {
    long long value = dim.offset;
    for (std::size_t l = 0; l < dim.coeffs.size(); ++l) value += dim.coeffs[l] * iter[l];
    element.push_back(value);
  }
  return element;
}

unsigned direction_bit(long long src_iter, long long snk_iter) {
  if (src_iter < snk_iter) return kDirLt;
  if (src_iter == snk_iter) return kDirEq;
  return kDirGt;
}

TEST(DependOracle, NeverClaimsFalseIndependence) {
  Rng rng(20230227);  // the paper's conference date; any fixed seed works
  int nests_checked = 0, pairs_checked = 0, collisions_seen = 0;
  while (nests_checked < 1200) {
    const NestSpec nest = random_nest(rng);
    const std::string code = render(nest);
    const NodePtr unit = frontend::parse_snippet(code);
    const frontend::Node* loop = nullptr;
    frontend::walk(*unit, [&](const frontend::Node& node, int) {
      if (loop == nullptr && node.kind == NodeKind::kFor) loop = &node;
    });
    ASSERT_NE(loop, nullptr) << code;
    ++nests_checked;

    const LoopScan scan(*loop);
    NestContext context(scan);
    std::vector<const Access*> refs;
    for (const Access& access : scan.body().accesses)
      if (access.is_array && access.variable == "A") refs.push_back(&access);
    ASSERT_EQ(refs.size(), nest.refs.size()) << code;

    const std::vector<const AccessSpec*> specs = collected_order(nest);
    for (std::size_t a = 0; a < refs.size(); ++a) {
      ASSERT_EQ(refs[a]->is_write, specs[a]->is_write) << code;
      ASSERT_EQ(refs[a]->subscripts.size(), specs[a]->dims.size()) << code;
    }

    const auto space = iteration_space(nest);
    for (std::size_t src = 0; src < refs.size(); ++src) {
      for (std::size_t snk = 0; snk < refs.size(); ++snk) {
        if (!refs[src]->is_write && !refs[snk]->is_write) continue;
        const PairResult result = context.test_pair(*refs[src], *refs[snk]);
        ++pairs_checked;

        bool collided = false, carried = false;
        std::optional<long long> seen_distance;
        bool distance_consistent = true;
        for (const auto& src_iter : space) {
          for (const auto& snk_iter : space) {
            if (element_of(*specs[src], src_iter) != element_of(*specs[snk], snk_iter))
              continue;
            collided = true;
            if (src_iter[0] != snk_iter[0]) {
              carried = true;
              // Distance in iteration counts of the analyzed (outer) loop.
              const long long distance =
                  (snk_iter[0] - src_iter[0]) / nest.loops[0].step;
              if (seen_distance.has_value() && *seen_distance != distance &&
                  *seen_distance != -distance)
                distance_consistent = false;
              if (!seen_distance.has_value()) seen_distance = distance;
            }
            // Every concrete collision must be admitted by the direction
            // vector, level by level (levels are analyzed-loop-first).
            for (std::size_t level = 0;
                 level < result.levels.size() && level < src_iter.size(); ++level) {
              const unsigned bit = direction_bit(src_iter[level], snk_iter[level]);
              EXPECT_TRUE(result.levels[level].dirs & bit)
                  << code << "collision at level " << level << " direction "
                  << direction_text(bit) << " not admitted by "
                  << direction_text(result.levels[level].dirs);
            }
          }
        }

        if (collided) {
          ++collisions_seen;
          EXPECT_TRUE(result.possible) << code << "src=" << src << " snk=" << snk
                                       << ": collision exists but engine said no";
        }
        if (carried) {
          EXPECT_TRUE(result.carried())
              << code << "src=" << src << " snk=" << snk
              << ": distinct-iteration collision exists but carried() is false";
          if (result.carried_distance().has_value() && distance_consistent &&
              seen_distance.has_value()) {
            EXPECT_EQ(std::abs(*result.carried_distance()), std::abs(*seen_distance))
                << code << "pinned distance disagrees with brute force";
          }
        }
      }
    }
  }
  // The generator must actually exercise the engine, not vacuous no-dep nests.
  EXPECT_GE(nests_checked, 1200);
  EXPECT_GT(collisions_seen, pairs_checked / 10);
}

}  // namespace
}  // namespace clpp::analysis
