// Heap calls per linted loop. An audit lints each generated record as its
// own unit: parse, directive, dependence analysis, lint rules and report.
// The analysis reads each loop once into per-loop tables that live on the
// stack, so a clean loop costs a handful of heap calls, most of them for
// the report the audit keeps. Calls are counted by replacing the global
// operator new; counting is on only around a warmed audit pass.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "codegen/generator.h"
#include "lint/audit.h"

namespace {

bool g_counting = false;
std::size_t g_heap_calls = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_heap_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace clpp::lint {
namespace {

TEST(LintAlloc, HeapCallsPerLintedLoopStayWithinBudget) {
  // The audit corpus shape: seeded defects and the simd families included.
  codegen::GeneratorConfig config;
  config.size = 1000;
  config.seed = 2023;
  config.buggy_directive_rate = 0.15;
  config.simd_families = true;
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  const Linter linter;
  // The first pass warms the parser's per-thread scratch and arena blocks.
  const AuditReport warm = audit_labels(corpus, linter);

  g_heap_calls = 0;
  g_counting = true;
  const AuditReport report = audit_labels(corpus, linter);
  g_counting = false;

  ASSERT_EQ(report.linted, warm.linted);
  ASSERT_GT(report.linted, 400u);
  const double per_loop =
      static_cast<double>(g_heap_calls) / static_cast<double>(report.linted);
  // About 12.5 a loop: the verdict, the report and the directive. A heap
  // call per access or per access pair would add dozens.
  EXPECT_LE(per_loop, 16.0) << g_heap_calls << " heap calls for " << report.linted
                            << " linted loops";
}

}  // namespace
}  // namespace clpp::lint
