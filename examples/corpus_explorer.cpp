// corpus_explorer: generate an Open-OMP-style corpus, inspect it, and save
// it as JSONL for external tooling.
//
//   $ ./build/examples/corpus_explorer [count] [output.jsonl]
//
// Prints Table-3-style statistics, one sample record per family, and the
// four representations of the first positive record.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "codegen/generator.h"
#include "obs/metrics.h"
#include "support/strings.h"
#include "tokenize/representation.h"

int main(int argc, char** argv) {
  using namespace clpp;
  codegen::GeneratorConfig config;
  config.size = argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 500;
  const std::string out_path = argc > 2 ? argv[2] : "";

  std::printf("generating %zu snippets (seed %llu)...\n", config.size,
              static_cast<unsigned long long>(config.seed));
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  const corpus::CorpusStats stats = corpus.stats();
  std::printf("with directive: %zu   without: %zu   private: %zu   "
              "reduction: %zu   dynamic: %zu\n\n",
              stats.with_directive, stats.without_directive, stats.private_clause,
              stats.reduction, stats.schedule_dynamic);

  // Snippet length distribution (drives the max_len choice of §4.3: the
  // paper picked 110 because it was the longest snippet in its corpus).
  // Ten-token bins; the last one holds every snippet of 110 tokens or more.
  std::vector<double> bounds;
  for (int edge = 10; edge <= 110; edge += 10) bounds.push_back(edge);
  obs::Histogram lengths(bounds);
  for (const auto& record : corpus.records())
    lengths.record_always(static_cast<double>(
        tokenize::tokenize(record.code, tokenize::Representation::kText).size()));
  std::printf("Text token count distribution (mean %.1f, p95 %.0f, max %.0f):\n",
              lengths.mean(), lengths.quantile(0.95), lengths.max());
  const std::vector<std::uint64_t> bins = lengths.bucket_counts();
  const std::uint64_t peak =
      std::max<std::uint64_t>(1, *std::max_element(bins.begin(), bins.end()));
  for (std::size_t b = 0; b < bins.size(); ++b)
    std::printf("%9.1f | %s %llu\n", b == 0 ? 0.0 : bounds[b - 1],
                repeated("#", bins[b] * 40 / peak).c_str(),
                static_cast<unsigned long long>(bins[b]));
  std::printf("\n");

  // One sample per family.
  std::map<std::string, const corpus::Record*> samples;
  for (const auto& record : corpus.records()) samples.emplace(record.family, &record);
  for (const auto& [family, record] : samples) {
    std::printf("--- family: %s ---\n", family.c_str());
    if (record->has_directive) std::printf("%s\n", record->directive_text.c_str());
    std::printf("%s\n", record->code.c_str());
  }

  // The four representations of the first directive-labeled record.
  for (const auto& record : corpus.records()) {
    if (!record.has_directive) continue;
    std::printf("=== representations of %s ===\n", record.id.c_str());
    for (tokenize::Representation rep : tokenize::all_representations()) {
      const auto tokens = tokenize::tokenize(record.code, rep);
      std::printf("%-7s | %s\n", tokenize::representation_name(rep).c_str(),
                  join(tokens, " ").c_str());
    }
    break;
  }

  if (!out_path.empty()) {
    corpus.save_jsonl(out_path);
    std::printf("\nsaved corpus to %s\n", out_path.c_str());
  }
  return 0;
}
