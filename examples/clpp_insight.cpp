// clpp-insight: model-quality report CLI (clpp::insight), rendering the
// calibration / disagreement / drift triple the serving stack tracks online
// (DESIGN.md "Model-quality observability") for an offline evaluation:
//
//   clpp-insight --realworld corpus/realworld [--random-model | --model P |
//                                             --train]
//
// runs the advisor over every .c kernel of the directory, labels each
// verdict with the dependence engine's exact proof, and reports per-file
// verdicts plus the aggregate quality snapshot. The drift reference is the
// advisor's checkpointed training fingerprint when it has one (--train,
// v2 --model files), else the fingerprint of the default generated corpus
// — so the drift score reads "how far are these kernels from the synthetic
// training distribution". The post-hoc view of a loadgen run's quality
// block is `clpp-report quality`.
//
// `--json` emits a `clpp.insight_report.v1` document instead of text.
// Exit: 0 on success, 2 on usage/IO failure.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codegen/generator.h"
#include "core/advisor.h"
#include "insight/insight.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/json.h"

namespace {

using namespace clpp;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw IoError("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// (display name, source) for every .c file of `dir`, sorted by name.
std::vector<std::pair<std::string, std::string>> load_kernels(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".c") continue;
    files.emplace_back(entry.path().filename().string(),
                       slurp(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw InvalidArgument("no .c files under " + dir);
  return files;
}

/// Untrained advisor whose vocabulary covers the evaluation files, so the
/// report runs without a training pass (probabilities are meaningless but
/// the calibration/drift plumbing is exercised end to end).
core::ParallelAdvisor random_advisor(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<std::string> snippets;
  for (const auto& [name, code] : files) snippets.push_back(code);
  core::PipelineConfig defaults;
  core::PragFormerConfig config;
  config.encoder = defaults.encoder;
  return core::ParallelAdvisor::untrained(snippets, config, defaults.max_len,
                                          2023);
}

/// Training-corpus fingerprint for advisors that lack one (random weights,
/// v1 model files): the default generated corpus at the given size/seed.
insight::Fingerprint corpus_fingerprint(std::size_t size, std::uint64_t seed) {
  codegen::GeneratorConfig config;
  config.size = size;
  config.seed = seed;
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  insight::FingerprintBuilder builder;
  for (const corpus::Record& record : corpus.records())
    builder.observe(record.code);
  return builder.build();
}

int report_realworld(const std::string& dir, core::ParallelAdvisor advisor,
                     std::size_t size, std::uint64_t seed, bool as_json) {
  const auto files = load_kernels(dir);

  insight::InsightTracker tracker;
  tracker.set_reference(advisor.fingerprint().empty()
                            ? corpus_fingerprint(size, seed)
                            : advisor.fingerprint());

  core::AdviseOptions options;
  options.with_analysis = true;
  options.with_compar = false;

  Json rows = Json::array();
  for (const auto& [name, code] : files) {
    const core::Advice advice = advisor.advise(code, options);
    insight::VerdictSample sample;
    sample.p_directive = advice.p_directive;
    sample.p_private = advice.p_private;
    sample.p_reduction = advice.p_reduction;
    sample.p_dynamic = advice.p_dynamic;
    sample.positive = advice.needs_directive;
    sample.clauses_scored = advice.needs_directive;
    sample.proof = advice.proof;
    const insight::DisagreementKind kind = tracker.observe(code, sample);

    Json row = Json::object();
    row["file"] = name;
    row["p_directive"] = static_cast<double>(advice.p_directive);
    row["model"] = advice.needs_directive ? "parallel" : "serial";
    row["proof"] = insight::proof_verdict_name(advice.proof);
    row["disagreement"] = kind != insight::DisagreementKind::kNone;
    if (!as_json)
      std::printf("%-18s p(directive) %.3f  model %-8s proof %-12s%s\n",
                  name.c_str(), static_cast<double>(advice.p_directive),
                  advice.needs_directive ? "parallel" : "serial",
                  insight::proof_verdict_name(advice.proof),
                  kind != insight::DisagreementKind::kNone
                      ? "  << disagreement"
                      : "");
    rows.push_back(std::move(row));
  }

  const Json quality = tracker.quality_json();
  if (as_json) {
    Json doc = Json::object();
    doc["schema"] = "clpp.insight_report.v1";
    doc["source"] = dir;
    doc["mode"] = "realworld";
    doc["files"] = std::move(rows);
    doc["quality"] = quality;
    std::printf("%s\n", doc.dump().c_str());
  } else {
    std::printf(
        "%zu file(s): directive ECE %.3f, drift score %.3f, "
        "disagreements %llu/%llu\n",
        files.size(), tracker.directive_ece(), tracker.drift_score(),
        static_cast<unsigned long long>(tracker.disagreements()),
        static_cast<unsigned long long>(
            quality.at("disagreement").at("checked").as_int()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("clpp-insight",
                   "model-quality report: calibration, drift, and "
                   "analyzer-vs-model disagreement");
  parser.add_string("realworld", "",
                    "evaluate the advisor over every .c kernel of DIR");
  parser.add_flag("random-model", "use untrained demo weights");
  parser.add_string("model", "", "path of a saved advisor");
  parser.add_flag("train", "train a small advisor first");
  parser.add_int("size", 200, "generated-corpus size (--train, drift reference)");
  parser.add_int("seed", 2023, "corpus seed (--train, drift reference)");
  parser.add_flag("json", "emit a clpp.insight_report.v1 document");

  try {
    if (!parser.parse(argc, argv)) return 0;
    const bool as_json = parser.get_flag("json");

    const std::string dir = parser.get_string("realworld");
    if (dir.empty())
      throw InvalidArgument("pass --realworld <dir>");
    const auto size = static_cast<std::size_t>(parser.get_int("size"));
    const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

    const std::string model = parser.get_string("model");
    if (!model.empty())
      return report_realworld(dir, core::ParallelAdvisor::load(model), size,
                              seed, as_json);
    if (parser.get_flag("train")) {
      core::PipelineConfig config;
      config.generator.size = size;
      config.generator.seed = seed;
      config.train.epochs = 3;
      config.mlm_pretrain = false;
      std::fprintf(stderr, "clpp-insight: training advisor on %zu snippets...\n",
                   size);
      return report_realworld(dir, core::ParallelAdvisor::train(config), size,
                              seed, as_json);
    }
    if (!parser.get_flag("random-model"))
      throw InvalidArgument("pass --random-model, --model <path>, or --train");
    return report_realworld(dir, random_advisor(load_kernels(dir)), size, seed,
                            as_json);
  } catch (const std::exception& e) {
    return report_cli_error("clpp-insight", e);
  }
}
