// Throughput of batched serving vs. single-request inference (clpp::serve).
//
// Three rungs, all over the same request mix and the default model config
// (PipelineConfig encoder: dim 64, 2 layers, 4 heads):
//   BM_SequentialInference   one advise() per request — the clpp_cli path
//   BM_BatchedInference      one advise_batch() over the whole mix
//   BM_ServerClosedLoop/B    32 closed-loop clients against InferenceServer
//                            with max_batch = B (B=1 ≈ single-request
//                            serving, B=32 = full micro-batching)
//
// The interesting ratio is BM_BatchedInference (or ServerClosedLoop/32)
// items_per_second over BM_SequentialInference: the dynamic micro-batching
// win. The mix models concurrent advisor traffic — 32 in-flight requests
// drawn from 8 distinct loop forms, because idiomatic loops recur across a
// codebase — so the win decomposes into (a) coalescing: advise_batch runs
// each distinct snippet once and fans the verdict out (the dominant term on
// a single core, where per-row transformer FLOPs cannot be amortized),
// (b) exact-length bucketing: no padding FLOPs even for mixed-length
// batches, and (c) on multi-core hosts, one batched forward parallelizes
// across rows where 32 single-row forwards cannot. B=1 cannot
// coalesce or bucket (every batch is one request), which is exactly the
// single-request serving baseline.
//
// Advice options are model-only on every rung so the comparison isolates
// transformer inference (the deterministic analyzer/ComPar extras cost the
// same per snippet on either path). All rates are wall-time items/s.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "obs/obs.h"
#include "serve/server.h"

namespace {

using namespace clpp;

constexpr std::size_t kConcurrency = 32;

const std::vector<std::string>& snippet_mix() {
  static const std::vector<std::string> base = {
      "for (i = 0; i < n; i++) a[i] = b[i];",
      "for (i = 0; i < n; i++) c[i] = a[i] + b[i];",
      "for (i = 0; i < n; i++) sum += a[i] * b[i];",
      "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;",
      "for (i = 0; i < n; i++) { t = a[i] * 0.5; b[i] = t + a[i]; }",
      "for (i = 0; i < n; i++) { if (a[i] > 0.5) a[i] = evolve(a[i]); }",
      "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i] += a[i] * b[j]; }",
      "for (i = 0; i < n; i++) best = a[i] > best ? a[i] : best;",
  };
  static const std::vector<std::string> mix = [] {
    std::vector<std::string> all;
    for (std::size_t i = 0; i < kConcurrency; ++i)
      all.push_back(base[i % base.size()]);
    return all;
  }();
  return mix;
}

/// Untrained advisor on the default model config — weights are irrelevant
/// for throughput, and skipping training keeps the bench startup instant.
const core::ParallelAdvisor& advisor() {
  static const core::ParallelAdvisor instance = [] {
    core::PipelineConfig defaults;  // the default encoder shape
    core::PragFormerConfig config;
    config.encoder = defaults.encoder;
    return core::ParallelAdvisor::untrained(snippet_mix(), config,
                                            defaults.max_len, 2023);
  }();
  return instance;
}

core::AdviseOptions model_only() {
  core::AdviseOptions options;
  options.with_analysis = false;
  options.with_compar = false;
  return options;
}

void BM_SequentialInference(benchmark::State& state) {
  const auto& codes = snippet_mix();
  for (auto _ : state) {
    for (const std::string& code : codes)
      benchmark::DoNotOptimize(advisor().advise(code, model_only()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * codes.size()));
}
BENCHMARK(BM_SequentialInference)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchedInference(benchmark::State& state) {
  const auto& codes = snippet_mix();
  for (auto _ : state)
    benchmark::DoNotOptimize(advisor().advise_batch(codes, model_only()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * codes.size()));
}
BENCHMARK(BM_BatchedInference)->Unit(benchmark::kMillisecond)->UseRealTime();

/// kConcurrency closed-loop clients against one InferenceServer with
/// `max_batch`, four requests each per iteration.
void closed_loop(benchmark::State& state, std::size_t max_batch) {
  const auto& codes = snippet_mix();
  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.max_delay_us = 2000;
  config.options = model_only();
  // The server stays resident across iterations: starting it is serving
  // *setup*, not per-request work.
  serve::InferenceServer server(advisor(), config);
  constexpr std::size_t kPerClient = 4;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kConcurrency);
    for (std::size_t c = 0; c < kConcurrency; ++c) {
      clients.emplace_back([&, c] {
        // Closed loop: each client keeps exactly one request in flight.
        for (std::size_t r = 0; r < kPerClient; ++r)
          server.submit(codes[c % codes.size()]).get();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.shutdown();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kConcurrency * kPerClient));
}

void BM_ServerClosedLoop(benchmark::State& state) {
  closed_loop(state, static_cast<std::size_t>(state.range(0)));
}
// UseRealTime matters: the forwards run on worker threads, so the main
// thread's CPU time would wildly overstate throughput.
BENCHMARK(BM_ServerClosedLoop)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Observability overhead on the serve hot path: the same full-batching
// closed loop with CLPP_OBS forced off (Arg 0) vs on (Arg 1). With obs on,
// every request additionally mints flow-linked trace spans, records
// registry histograms, and updates the queue-depth gauge. The items/s ratio
// on/off is the evidence behind the <5% tracing-overhead SLO that
// scripts/check_slo.sh enforces end-to-end via the loadgen.
void BM_ServerClosedLoopObs(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  closed_loop(state, kConcurrency);
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ServerClosedLoopObs)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
