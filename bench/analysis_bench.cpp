// Dependence-engine and lint throughput (google-benchmark).
//
// The dependence engine (analysis/ddtest.h) computes direction/distance
// vectors per nest level and GCD + Banerjee interval bounds per direction
// class for every access pair, so this harness tracks what that costs on
// the two inputs that matter: the generated
// corpus the audit gate lints on every CI run, and the hand-verified
// corpus/realworld/ kernels (gemm's imperfect nest with linearized
// subscripts is the stress case). BM_AnalyzeGeneratedLoops is the analysis
// layer alone, per loop, on the loops an audit lints. Exported by run_benches.sh into
// bench_artifacts/ and compared against bench_baseline/ by check_perf.sh.
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/depend.h"
#include "analysis/sideeffects.h"
#include "codegen/generator.h"
#include "frontend/parser.h"
#include "lint/audit.h"
#include "lint/linter.h"

namespace {

using namespace clpp;

const std::vector<std::string>& realworld_files() {
  static const std::vector<std::string> files = {
      "gemm.c", "atax.c", "mvt.c", "gemver.c", "jacobi-1d.c", "non_parallel.c"};
  return files;
}

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(CLPP_REALWORLD_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing fixture: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every for loop of every realworld fixture, parsed once.
struct RealworldLoops {
  std::vector<frontend::NodePtr> units;
  std::vector<std::pair<const frontend::Node*, const frontend::Node*>> loops;

  RealworldLoops() {
    for (const std::string& name : realworld_files()) {
      units.push_back(frontend::parse_snippet(read_fixture(name)));
      const frontend::Node* unit = units.back().get();
      frontend::walk(*unit, [&](const frontend::Node& node, int) {
        if (node.kind == frontend::NodeKind::kFor) loops.push_back({unit, &node});
      });
    }
  }
};

/// One analyzer pass over every realworld loop.
void BM_AnalyzeRealworld(benchmark::State& state) {
  static const RealworldLoops fixtures;
  const analysis::AnalyzerOptions options;
  std::size_t verdicts = 0;
  for (auto _ : state) {
    const frontend::Node* last_unit = nullptr;
    std::unique_ptr<analysis::SideEffectOracle> oracle;
    for (const auto& [unit, loop] : fixtures.loops) {
      if (unit != last_unit) {
        oracle = std::make_unique<analysis::SideEffectOracle>(*unit);
        last_unit = unit;
      }
      analysis::DependenceAnalyzer analyzer(*oracle, options);
      const analysis::LoopVerdict verdict = analyzer.analyze(*loop);
      benchmark::DoNotOptimize(verdict.parallelizable);
      ++verdicts;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(verdicts));
}
BENCHMARK(BM_AnalyzeRealworld);

/// The first loop of every record an audit lints (records with a
/// directive) of an audit-shaped generated corpus, parsed once.
struct GeneratedLoops {
  std::vector<frontend::NodePtr> units;
  std::vector<const frontend::Node*> loops;  // parallel to units

  explicit GeneratedLoops(std::size_t size) {
    codegen::GeneratorConfig config;
    config.size = size;
    config.seed = 2023;
    config.buggy_directive_rate = 0.15;
    config.simd_families = true;
    const corpus::Corpus corpus = codegen::generate_corpus(config);
    for (const corpus::Record& record : corpus.records()) {
      if (!record.has_directive) continue;
      frontend::NodePtr unit = frontend::parse_snippet(record.code);
      const frontend::Node* loop = nullptr;
      frontend::walk(*unit, [&](const frontend::Node& node, int) {
        if (loop == nullptr && node.kind == frontend::NodeKind::kFor) loop = &node;
      });
      if (loop == nullptr) continue;
      units.push_back(std::move(unit));
      loops.push_back(loop);
    }
  }
};

/// The analysis layer of an audit pass, loop by loop: the unit's
/// side-effect oracle, the loop scan and the dependence analysis, with the
/// linter's analyzer options. Parsing is outside the timed region.
void BM_AnalyzeGeneratedLoops(benchmark::State& state) {
  static const GeneratedLoops fixtures(2000);
  const analysis::AnalyzerOptions options = lint::lint_analyzer_options();
  for (auto _ : state) {
    for (std::size_t i = 0; i < fixtures.loops.size(); ++i) {
      const analysis::SideEffectOracle oracle(*fixtures.units[i]);
      const analysis::LoopScan scan(*fixtures.loops[i]);
      const analysis::LoopVerdict verdict =
          analysis::DependenceAnalyzer(oracle, options).analyze(scan);
      benchmark::DoNotOptimize(verdict.parallelizable);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixtures.loops.size()));
}
BENCHMARK(BM_AnalyzeGeneratedLoops);

/// Raw NestContext construction + pair testing on the linearized-gemm form
/// that exercises the identical-subscript rule and Banerjee bounds.
void BM_NestContextLinearizedGemm(benchmark::State& state) {
  static const frontend::NodePtr unit = frontend::parse_snippet(
      "for (i = 0; i < ni; i++) {\n"
      "  for (j = 0; j < nj; j++)\n"
      "    c[i * nj + j] = c[i * nj + j] * beta;\n"
      "  for (k = 0; k < nk; k++)\n"
      "    for (j = 0; j < nj; j++)\n"
      "      c[i * nj + j] = c[i * nj + j] + alpha * a[i * nk + k] * b[k * nj + j];\n"
      "}\n");
  const frontend::Node* loop = nullptr;
  frontend::walk(*unit, [&](const frontend::Node& node, int) {
    if (loop == nullptr && node.kind == frontend::NodeKind::kFor) loop = &node;
  });
  const analysis::LoopScan scan(*loop);
  std::vector<const analysis::Access*> refs;
  for (const analysis::Access& access : scan.body().accesses)
    if (access.is_array && access.variable == "c") refs.push_back(&access);
  std::size_t pairs = 0;
  for (auto _ : state) {
    analysis::NestContext context(scan);
    for (const analysis::Access* src : refs)
      for (const analysis::Access* snk : refs) {
        if (!src->is_write && !snk->is_write) continue;
        const analysis::PairResult result = context.test_pair(*src, *snk);
        benchmark::DoNotOptimize(result.possible);
        ++pairs;
      }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_NestContextLinearizedGemm);

/// Full-lint throughput over a generated corpus slice, simd families
/// included — the inner loop of scripts/check_lint_audit.sh.
void BM_LintGeneratedCorpus(benchmark::State& state) {
  codegen::GeneratorConfig config;
  config.size = static_cast<std::size_t>(state.range(0));
  config.seed = 17;
  config.buggy_directive_rate = 0.15;
  config.simd_families = true;
  const corpus::Corpus corpus = codegen::generate_corpus(config);
  for (auto _ : state) {
    const lint::AuditReport report = lint::audit_labels(corpus);
    benchmark::DoNotOptimize(report.bugs_caught);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_LintGeneratedCorpus)->Arg(64)->Arg(256);

/// lint_source end-to-end (parse + analyze + rules) on the realworld files.
void BM_LintRealworldSources(benchmark::State& state) {
  static const std::vector<std::string> sources = [] {
    std::vector<std::string> texts;
    for (const std::string& name : realworld_files())
      texts.push_back(read_fixture(name));
    return texts;
  }();
  const lint::Linter linter;
  std::size_t linted = 0;
  for (auto _ : state) {
    for (const std::string& source : sources) {
      const lint::LintReport report = linter.lint_source(source);
      benchmark::DoNotOptimize(report.diagnostics.size());
      ++linted;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(linted));
}
BENCHMARK(BM_LintRealworldSources);

}  // namespace

BENCHMARK_MAIN();
