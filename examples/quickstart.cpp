// Quickstart: train a small ParallelAdvisor and ask it about a few loops.
//
//   $ ./build/examples/quickstart
//
// Demonstrates the three public layers of the library:
//   1. clpp::codegen / clpp::corpus — the Open-OMP-style corpus;
//   2. clpp::core::Pipeline — training PragFormer models;
//   3. clpp::core::ParallelAdvisor — asking for advice on new code.
// plus the clpp::obs observability layer: the run is traced end to end and
// leaves quickstart_trace.json (open in chrome://tracing or Perfetto) and
// quickstart_metrics.json next to the binary, then prints the metric and
// span summary tables.
#include <cstdio>

#include "core/advisor.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "prof/flops.h"

int main() {
  using namespace clpp;

  // Observability on: spans + metrics record for the whole run. CLPP_TRACE_OUT
  // / CLPP_METRICS_OUT (see obs/obs.h) override the default artifact paths.
  obs::set_enabled(true);
  obs::set_trace_out("quickstart_trace.json");
  obs::set_metrics_out("quickstart_metrics.json");

  // 1+2. Train a compact advisor (four PragFormer classifiers: directive,
  // private, reduction, schedule) on a freshly generated corpus. Small config: this
  // takes about 90 seconds on one core.
  core::PipelineConfig config;
  config.generator.size = 1600;
  config.encoder.dim = 48;
  config.encoder.ffn_dim = 96;
  config.max_len = 80;
  config.train.epochs = 8;
  config.train.select_best_epoch = true;
  config.train.on_epoch = [](const core::EpochCurve& curve) {
    std::printf("  epoch %zu  train_loss=%.3f  val_loss=%.3f  val_acc=%.3f  "
                "wall=%.2fs\n",
                curve.epoch, curve.train_loss, curve.val_loss, curve.val_accuracy,
                curve.wall_seconds);
  };
  config.mlm_pretrain = false;
  std::printf("training the advisor on a %zu-snippet corpus...\n",
              config.generator.size);
  const core::ParallelAdvisor advisor = core::ParallelAdvisor::train(config);
  std::printf("done.\n\n");

  // 3. Ask about code the models have never seen.
  const char* snippets[] = {
      "for (i = 0; i < n; i++) c[i] = a[i] + b[i];",
      "for (i = 0; i < n; i++) sum += a[i] * b[i];",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] * 0.5;",
      "for (i = 0; i < n; i++) fprintf(fp, \"%d\\n\", a[i]);",
  };
  for (const char* code : snippets) {
    const core::Advice advice = advisor.advise(code);
    std::printf("code: %s\n", code);
    std::printf("  needs directive: %s (p=%.2f)\n",
                advice.needs_directive ? "yes" : "no", advice.p_directive);
    if (advice.needs_directive) {
      std::printf("  suggested pragma: %s\n", advice.suggestion.c_str());
      if (!advice.compar_suggestion.empty())
        std::printf("  (S2S ComPar says:  %s)\n", advice.compar_suggestion.c_str());
    }
    std::printf("\n");
  }

  // 4. What did the run cost? Metrics registry + span aggregates, and the
  // Chrome trace / metrics JSON for offline digging.
  std::printf("== metrics ==\n%s\n", obs::metrics().summary().c_str());
  std::printf("== spans ==\n%s\n", obs::Tracer::instance().summary().c_str());

  // The kernels also accounted their FLOPs and bytes: achieved roofline
  // numbers per kernel. CLPP_FLAME_OUT=PATH adds a sampled flamegraph of the
  // run (flamegraph.pl or speedscope.app).
  std::printf("== profiling ==\n");
  for (const char* kernel : {"gemm", "attention", "attention.backward"}) {
    const prof::KernelCounters& kc = prof::kernel_counters(kernel);
    const std::uint64_t wall_ns = kc.wall_ns.value();
    if (wall_ns == 0) continue;
    std::printf("  %-20s %8.2f GFLOP/s aggregate  (%.2f flops/byte)\n", kernel,
                static_cast<double>(kc.flops.value()) /
                    static_cast<double>(wall_ns),
                static_cast<double>(kc.flops.value()) /
                    static_cast<double>(kc.bytes.value()));
  }
  std::printf("\n");

  obs::export_configured_outputs();
  std::printf("trace:   quickstart_trace.json (chrome://tracing)\n");
  std::printf("metrics: quickstart_metrics.json\n");
  return 0;
}
