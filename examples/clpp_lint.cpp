// clpp-lint: static OpenMP race detector and directive linter.
//
// Lints C files end-to-end: every `#pragma omp parallel for`/`omp for` is
// paired with its loop, the dependence analysis re-runs, and disagreements
// between what the directive claims and what the analysis proves become
// compiler-style diagnostics with fix-its (text or SARIF-lite JSON).
//
//   clpp-lint file.c            lint files, text diagnostics
//   clpp-lint --json file.c     same, one JSON document per file
//   clpp-lint --explain file.c  dependence-proof traces instead of lint:
//                               every for loop, every tested access pair,
//                               and the test (ziv/strong-siv/gcd/banerjee/
//                               text-pinned) that decided it
//   clpp-lint --audit           lint a generated corpus' own labels
//                               (--buggy seeds ground-truth defects and
//                               reports the catch/miss confusion)
//   clpp-lint --audit-model     train a small transformer advisor, lint its
//                               predicted directives (model-vs-linter)
//
// Input files are linted on one OpenMP team, one unit per file, that leaves
// one processor free; OMP_NUM_THREADS=1 runs serially, and --audit lints its
// records serially. Output is printed in input order and is byte-identical
// at any thread count.
//
// Exit status: 0 = no errors, 1 = at least one error finding, 2 = failure.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "codegen/generator.h"
#include "core/advisor.h"
#include "frontend/parser.h"
#include "lint/audit.h"
#include "lint/explain.h"
#include "lint/linter.h"
#include "support/cli.h"
#include "support/parallel.h"

namespace {

/// Reads `files` in argument order ("-" = stdin) up to the first one that
/// cannot be opened, renders each on one OpenMP team into its own slot
/// (`render(display, source)`), then hands the slots to `emit` in input
/// order, so the output does not depend on the thread count. If a render
/// throws, the earlier slots are emitted before the exception propagates.
/// Returns false, after the earlier files' output and a "cannot open"
/// message, if a file could not be opened.
template <typename Render, typename Emit>
bool for_each_file(const std::vector<std::string>& files, const Render& render,
                   const Emit& emit) {
  struct Input {
    std::string display;
    std::string source;
  };
  std::vector<Input> inputs;
  std::string unreadable;
  for (const std::string& path : files) {
    std::ostringstream buffer;
    if (path == "-") {
      buffer << std::cin.rdbuf();
    } else {
      std::ifstream in(path);
      if (!in) {
        unreadable = path;
        break;
      }
      buffer << in.rdbuf();
    }
    inputs.push_back({path == "-" ? "<stdin>" : path, buffer.str()});
  }

  using Slot = std::invoke_result_t<const Render&, const std::string&, const std::string&>;
  std::vector<std::optional<Slot>> slots(inputs.size());
  try {
    clpp::parallel_for_dynamic(inputs.size(), [&](std::size_t i) {
      slots[i] = render(inputs[i].display, inputs[i].source);
    });
  } catch (...) {
    for (std::optional<Slot>& slot : slots) {
      if (!slot) break;
      emit(*slot);
    }
    throw;
  }
  for (std::optional<Slot>& slot : slots) emit(*slot);

  if (unreadable.empty()) return true;
  std::cerr << "clpp-lint: cannot open '" << unreadable << "'\n";
  return false;
}

/// --explain: proof traces for every loop of every input file. Exit 0 when
/// everything parsed, 2 on a parse/IO failure.
int explain_files(const std::vector<std::string>& files,
                  const clpp::lint::Linter& linter, bool as_json) {
  struct Explained {
    std::string out;  // the traces, or nothing if the file did not parse
    std::string err;  // the parse error
  };
  int status = 0;
  const bool readable = for_each_file(
      files,
      [&](const std::string& display, const std::string& source) {
        Explained explained;
        try {
          const clpp::frontend::NodePtr unit = clpp::frontend::parse_snippet(source);
          const std::vector<clpp::lint::LoopExplanation> loops =
              clpp::lint::explain_unit(*unit, linter.options().analyzer);
          explained.out = as_json
                              ? clpp::lint::explanations_json(display, loops).dump() + "\n"
                              : clpp::lint::render_explanations(display, loops);
        } catch (const clpp::ParseError& e) {
          explained.err = "clpp-lint: " + display + ": " + e.what() + "\n";
        }
        return explained;
      },
      [&](const Explained& explained) {
        std::cout << explained.out;
        if (explained.err.empty()) return;
        std::cerr << explained.err;
        status = 2;
      });
  return readable ? status : 2;
}

int lint_files(const std::vector<std::string>& files, const clpp::lint::Linter& linter,
               bool as_json, bool as_sarif) {
  struct Linted {
    clpp::lint::LintReport report;
    std::string rendered;  // text or JSON; empty under --sarif
  };
  bool any_errors = false;
  std::vector<clpp::lint::LintReport> reports;
  const bool readable = for_each_file(
      files,
      [&](const std::string& display, const std::string& source) {
        Linted linted{linter.lint_source(source, display), {}};
        if (!as_sarif)
          linted.rendered = as_json ? linted.report.to_json().dump() + "\n"
                                    : linted.report.to_text();
        return linted;
      },
      [&](Linted& linted) {
        any_errors = any_errors || linted.report.errors() > 0;
        if (as_sarif)
          reports.push_back(std::move(linted.report));
        else
          std::cout << linted.rendered;
      });
  if (!readable) return 2;
  if (as_sarif)
    std::cout << clpp::lint::sarif_document(reports).dump() << "\n";
  return any_errors ? 1 : 0;
}

int print_audit(const clpp::lint::AuditReport& report, bool as_json) {
  if (as_json)
    std::cout << report.to_json().dump() << "\n";
  else
    std::cout << report.to_text();
  return report.with_errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  clpp::ArgParser args("clpp-lint",
                       "Static OpenMP race detector and directive linter.");
  args.add_flag("json", "emit schema-versioned JSON instead of text diagnostics");
  args.add_flag("sarif", "emit one SARIF 2.1.0 document covering all input files");
  args.add_flag("no-fixits", "suppress corrected-pragma fix-its");
  args.add_flag("explain",
                "render per-loop dependence proof traces (which test decided "
                "each access pair) instead of lint diagnostics");
  args.add_int("trip-threshold", 8, "small-trip-count warning threshold");
  args.add_flag("audit", "lint a generated corpus' own directive labels");
  args.add_flag("no-simd", "audit: leave the omp simd snippet families out");
  args.add_flag("audit-model",
                "train a small advisor and lint its predicted directives");
  args.add_int("size", 400, "audit corpus size");
  args.add_int("seed", 2023, "audit corpus seed");
  args.add_double("buggy", 0.15, "audit: seeded directive-defect rate");
  args.add_double("noise", 0.0, "audit: label-flip noise rate");

  try {
    if (!args.parse(argc, argv)) return 0;

    clpp::lint::LintOptions options;
    options.small_trip_threshold = args.get_int("trip-threshold");
    options.emit_fixits = !args.get_flag("no-fixits");
    const clpp::lint::Linter linter(options);
    const bool as_json = args.get_flag("json");

    if (args.get_flag("audit") || args.get_flag("audit-model")) {
      clpp::codegen::GeneratorConfig generator;
      generator.size = static_cast<std::size_t>(args.get_int("size"));
      generator.seed = static_cast<std::uint64_t>(args.get_int("seed"));
      generator.label_noise = args.get_double("noise");
      generator.buggy_directive_rate = args.get_double("buggy");
      generator.simd_families = !args.get_flag("no-simd");
      const clpp::corpus::Corpus corpus = clpp::codegen::generate_corpus(generator);

      if (args.get_flag("audit-model")) {
        // Small-budget advisor: enough to produce non-trivial predictions
        // without turning the CLI into a training run.
        clpp::core::PipelineConfig config;
        config.generator = generator;
        config.generator.buggy_directive_rate = 0.0;  // train on faithful labels
        config.train.epochs = 3;
        config.mlm_pretrain = false;
        std::cerr << "clpp-lint: training advisor on " << config.generator.size
                  << " snippets...\n";
        const clpp::core::ParallelAdvisor advisor =
            clpp::core::ParallelAdvisor::train(config);
        std::vector<std::string> predictions;
        predictions.reserve(corpus.size());
        for (const clpp::corpus::Record& record : corpus.records())
          predictions.push_back(advisor.advise(record.code).suggestion);
        return print_audit(clpp::lint::audit_predictions(corpus, predictions, linter),
                           as_json);
      }
      return print_audit(clpp::lint::audit_labels(corpus, linter), as_json);
    }

    if (args.positional().empty()) {
      std::cout << args.help();
      return 2;
    }
    if (args.get_flag("explain"))
      return explain_files(args.positional(), linter, as_json);
    return lint_files(args.positional(), linter, as_json, args.get_flag("sarif"));
  } catch (const std::exception& e) {
    return clpp::report_cli_error("clpp-lint", e);
  }
}
