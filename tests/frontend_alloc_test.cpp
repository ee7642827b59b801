// Heap calls per parse. A parse builds its tree in one arena and reuses its
// thread's scratch, so a 40-record file costs the same few heap calls as a
// 1-record one, and a parse on a warm thread costs none. Calls are counted
// by replacing the global operator new; counting is on only around a parse
// and its teardown.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "codegen/generator.h"
#include "frontend/parser.h"

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

namespace clpp::frontend {
namespace {

/// The first `records` records of `corpus`, each under its directive line,
/// one blank line apart: the shape of a file in the lint benchmark.
std::string annotated_file(const corpus::Corpus& corpus, std::size_t records) {
  std::string text;
  for (std::size_t i = 0; i < records; ++i) {
    const corpus::Record& record = corpus.records().at(i);
    if (record.has_directive) text += record.directive_text + "\n";
    text += record.code + "\n\n";
  }
  return text;
}

std::size_t heap_calls_to_parse(const std::string& source) {
  g_heap_calls = 0;
  g_counting = true;
  { const NodePtr unit = parse_snippet(source); }
  g_counting = false;
  return g_heap_calls;
}

TEST(FrontendAlloc, HeapCallsPerParseStayConstant) {
  codegen::GeneratorConfig config;
  config.size = 40;
  config.seed = 2023;
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  const std::string one = annotated_file(corpus, 1);
  const std::string forty = annotated_file(corpus, 40);

  const std::size_t one_calls = heap_calls_to_parse(one);
  const std::size_t forty_calls = heap_calls_to_parse(forty);
  // A node-per-allocation front end makes about two calls a node: over a
  // thousand more for the 40 records. Here the difference is at most a
  // larger block and a longer token array.
  EXPECT_LE(forty_calls, one_calls + 2) << "1 record: " << one_calls
                                        << " heap calls, 40 records: " << forty_calls;
  // Once the thread has parsed a file this size, its blocks and scratch
  // are reused: the same parse again touches the heap not at all.
  EXPECT_EQ(heap_calls_to_parse(forty), 0u);
  EXPECT_EQ(heap_calls_to_parse(one), 0u);
}

}  // namespace
}  // namespace clpp::frontend
