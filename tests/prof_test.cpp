// clpp::prof — counter groups (software fallback and auto mode), scoped
// counter metrics, collapsed-stack aggregation, the sampling profiler and
// its CLPP_FLAME_OUT switch, FLOP/byte kernel accounting, and profdiff
// regression gating.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "prof/counters.h"
#include "prof/flops.h"
#include "prof/profdiff.h"
#include "prof/sampler.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "tensor/ops.h"

namespace {

using namespace clpp;

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::metrics().reset();
  }
  void TearDown() override { obs::set_enabled(false); }

  /// Burns thread CPU time until both wall and cpu clocks visibly advance.
  static void burn_cpu(int ms = 2) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile double sink = 0.0;
    while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(ms))
      sink = sink + std::sqrt(2.0);
  }
};

TEST_F(ProfTest, SoftwareFallbackCounterRead) {
  const prof::CounterGroup group(/*try_hardware=*/false);
  EXPECT_FALSE(group.hardware());
  const prof::CounterSample begin = group.read();
  burn_cpu();
  const prof::CounterSample d = group.read().delta_since(begin);
  EXPECT_FALSE(d.hardware);
  EXPECT_GT(d.wall_ns, 0u);
  EXPECT_GT(d.cpu_ns, 0u);
  EXPECT_GT(d.cpu_utilization(), 0.0);
  EXPECT_LE(d.cpu_utilization(), 1.0);
  EXPECT_EQ(d.ipc(), 0.0);  // hardware family unavailable
}

TEST_F(ProfTest, AutoModeNeverThrows) {
  // In containers perf_event_open may be blocked; auto must degrade, not die.
  prof::CounterGroup& group = prof::CounterGroup::this_thread();
  const prof::CounterSample begin = group.read();
  burn_cpu();
  const prof::CounterSample d = group.read().delta_since(begin);
  EXPECT_GT(d.wall_ns, 0u);
  if (group.hardware()) {
    EXPECT_TRUE(d.hardware);
    EXPECT_GT(d.cycles, 0u);
  }
}

TEST_F(ProfTest, ScopedCountersRecordMetrics) {
  prof::CounterSet& set = prof::counter_set("prof_test.scope");
  {
    prof::ScopedCounters scope(set);
    EXPECT_TRUE(scope.active());
    burn_cpu();
  }
  EXPECT_EQ(set.samples.value(), 1u);
  EXPECT_GT(set.wall_ns.value(), 0u);
  EXPECT_GT(set.cpu_ns.value(), 0u);
  EXPECT_EQ(set.hw_samples.value(),
            prof::CounterGroup::this_thread().hardware() ? 1u : 0u);
}

TEST_F(ProfTest, ObsAloneActivatesScopedCounters) {
  // CLPP_OBS=1 is the one switch: counter scopes have no flag of their own.
  prof::CounterSet& set = prof::counter_set("prof_test.obs_only");
  obs::set_enabled(false);
  {
    prof::ScopedCounters scope(set);
    EXPECT_FALSE(scope.active());
  }
  obs::set_enabled(true);
  {
    prof::ScopedCounters scope(set);
    EXPECT_TRUE(scope.active());
    burn_cpu();
  }
  EXPECT_EQ(set.samples.value(), 1u);
}

TEST_F(ProfTest, StackCollapserRoundTrip) {
  prof::StackCollapser collapser;
  collapser.add({"main", "train", "gemm"}, 3);
  collapser.add({"main", "train", "gemm"}, 2);
  collapser.add({"main", "infer"});
  collapser.add({"weird;name"});  // ';' is the separator; must be sanitized
  EXPECT_EQ(collapser.total(), 7u);

  const std::string text = collapser.str();
  const auto parsed = prof::StackCollapser::parse(text);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at("main;train;gemm"), 5u);
  EXPECT_EQ(parsed.at("main;infer"), 1u);
  EXPECT_EQ(parsed.at("weird:name"), 1u);

  EXPECT_THROW(prof::StackCollapser::parse("no trailing count\n"),
               InvalidArgument);
}

TEST_F(ProfTest, SamplerCapturesBusyLoop) {
  prof::Sampler& sampler = prof::Sampler::instance();
  ASSERT_FALSE(sampler.running());
  sampler.reset();
  if (!sampler.start(997)) GTEST_SKIP() << "no backtrace support";
  // ~40ms of CPU at 997 Hz ≈ 40 expected samples.
  const auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(40))
    sink = sink + std::sqrt(2.0);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  if (sampler.samples() == 0)
    GTEST_SKIP() << "ITIMER_PROF delivered no signals here";
  const std::string collapsed = sampler.collapsed();
  EXPECT_FALSE(collapsed.empty());
  // Every line must survive a round-trip through the parser. Stacks too
  // shallow to be attributable are skipped, so total ≤ captured samples.
  const auto parsed = prof::StackCollapser::parse(collapsed);
  std::uint64_t total = 0;
  for (const auto& [stack, count] : parsed) total += count;
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, sampler.samples());
  sampler.reset();
}

TEST_F(ProfTest, FlameOutEnvStartsSamplerAndExportsStacks) {
  prof::Sampler& sampler = prof::Sampler::instance();
  ASSERT_FALSE(sampler.running());
  if (!sampler.start()) GTEST_SKIP() << "no backtrace support";
  sampler.stop();
  sampler.reset();

  const std::string path = ::testing::TempDir() + "prof_test_env.folded";
  std::remove(path.c_str());
  ::setenv("CLPP_FLAME_OUT", path.c_str(), 1);
  obs::init_from_env();
  ::unsetenv("CLPP_FLAME_OUT");
  EXPECT_TRUE(sampler.running());

  burn_cpu(100);
  obs::export_configured_outputs();  // stops the sampler, writes the stacks
  EXPECT_FALSE(sampler.running());
  if (sampler.samples() > 0) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_FALSE(prof::StackCollapser::parse(text.str()).empty());
  }
  obs::set_flame_out("");
  sampler.reset();
  std::remove(path.c_str());
}

TEST_F(ProfTest, GemmFlopAccounting) {
  constexpr std::size_t m = 64, k = 32, n = 16;
  prof::KernelCounters& kc = prof::kernel_counters("gemm");
  const std::uint64_t flops0 = kc.flops.value();
  const std::uint64_t calls0 = kc.calls.value();

  Rng rng(7);
  Tensor a({m, k}), b({k, n});
  for (float& v : a.values()) v = rng.normal();
  for (float& v : b.values()) v = rng.normal();
  const Tensor c = matmul(a, b);
  ASSERT_EQ(c.rows(), m);

  EXPECT_EQ(kc.calls.value(), calls0 + 1);
  EXPECT_EQ(kc.flops.value() - flops0, 2ull * m * n * k);
  EXPECT_GT(kc.wall_ns.value(), 0u);
  EXPECT_GT(kc.gflops.value(), 0.0);
  const double expected_intensity =
      static_cast<double>(2ull * m * n * k) /
      static_cast<double>(sizeof(float) * (m * k + k * n + 2 * m * n));
  EXPECT_DOUBLE_EQ(kc.arith_intensity.value(), expected_intensity);
}

TEST_F(ProfTest, AttentionKernelAccounting) {
  constexpr std::size_t batch = 2, seq = 8, dim = 16, heads = 4;
  Rng rng(11);
  nn::MultiHeadSelfAttention attn("t.attn", dim, heads, rng);
  Tensor x({batch * seq, dim});
  for (float& v : x.values()) v = rng.normal(0.0f, 0.1f);
  const std::vector<int> lengths = {8, 5};

  prof::KernelCounters& kc = prof::kernel_counters("attention");
  const std::uint64_t calls0 = kc.calls.value();
  const Tensor out = attn.forward(x, batch, seq, lengths, /*train=*/false);
  ASSERT_EQ(out.rows(), batch * seq);
  EXPECT_EQ(kc.calls.value(), calls0 + 1);
  // flops = H · S · Σlen · (4·dh + 5) with dh = dim/heads = 4.
  EXPECT_GT(kc.flops.value(), 0u);
  EXPECT_EQ(kc.flops.value(),
            static_cast<std::uint64_t>(heads) * seq * (8 + 5) *
                (4ull * (dim / heads) + 5ull));
}

class ProfdiffTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::create_directories(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a google-benchmark style report with one timing row.
  void write_bench(const std::string& name, double real_ns, double cpu_ns) {
    Json row = Json::object();
    row["name"] = "BM_Gemm/64";
    row["run_type"] = "iteration";
    row["real_time"] = real_ns;
    row["cpu_time"] = cpu_ns;
    row["time_unit"] = "ns";
    Json rows = Json::array();
    rows.push_back(std::move(row));
    Json doc = Json::object();
    doc["benchmarks"] = std::move(rows);
    std::ofstream out(dir_ + "/" + name);
    out << doc.dump();
  }

  const std::string dir_ = "prof_test_artifacts";
};

TEST_F(ProfdiffTest, IdenticalRunsHaveNoRegressions) {
  write_bench("BENCH_micro.json", 1000.0, 900.0);
  const auto series = prof::flatten_series(prof::scan_artifacts(dir_));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at("micro:bench:BM_Gemm/64:real_time_ns"), 1000.0);

  const prof::DiffReport report = prof::diff_series(series, series, 0.2);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.only_base, 0u);
  EXPECT_EQ(report.only_current, 0u);
}

TEST_F(ProfdiffTest, InjectedRegressionIsFlagged) {
  write_bench("BENCH_micro.json", 1000.0, 900.0);
  const auto base = prof::flatten_series(prof::scan_artifacts(dir_));
  write_bench("BENCH_micro.json", 2000.0, 1800.0);  // 2x slower
  const auto current = prof::flatten_series(prof::scan_artifacts(dir_));

  const prof::DiffReport report = prof::diff_series(base, current, 0.2);
  EXPECT_EQ(report.regressions(), 2u);  // real and cpu time both doubled
  const std::string rendered = prof::render_diff(report);
  EXPECT_NE(rendered.find("micro:bench:BM_Gemm/64:real_time_ns"),
            std::string::npos);
  EXPECT_NE(rendered.find("REGRESSED"), std::string::npos);

  const Json doc = prof::diff_to_json(report);
  EXPECT_EQ(doc.at("regressions").as_int(), 2);
}

TEST_F(ProfdiffTest, UntrackedSeriesNeverRegress) {
  std::map<std::string, double> base{{"micro:counter:clpp.train.epochs", 8.0}};
  std::map<std::string, double> current{{"micro:counter:clpp.train.epochs", 80.0}};
  const prof::DiffReport report = prof::diff_series(base, current, 0.2);
  EXPECT_EQ(report.regressions(), 0u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.rows[0].tracked);
}

TEST_F(ProfdiffTest, LatencyHistogramTailsAreTracked) {
  // A regression that only fattens the tail must gate: p95/p99 are tracked
  // series alongside the mean, while count/p50/max stay informational.
  const std::string hist = "serve:hist:clpp.serve.latency_us";
  EXPECT_TRUE(prof::series_is_tracked(hist + ":mean"));
  EXPECT_TRUE(prof::series_is_tracked(hist + ":p95"));
  EXPECT_TRUE(prof::series_is_tracked(hist + ":p99"));
  EXPECT_FALSE(prof::series_is_tracked(hist + ":count"));
  EXPECT_FALSE(prof::series_is_tracked(hist + ":p50"));
  EXPECT_FALSE(prof::series_is_tracked(hist + ":max"));
  // Non-latency histograms never gate, whatever the stat.
  EXPECT_FALSE(prof::series_is_tracked("serve:hist:clpp.serve.batch_rows:p99"));

  std::map<std::string, double> base{{hist + ":p99", 100.0},
                                     {hist + ":mean", 50.0}};
  std::map<std::string, double> current{{hist + ":p99", 300.0},  // 3x tail
                                        {hist + ":mean", 51.0}};
  const prof::DiffReport report = prof::diff_series(base, current, 0.2);
  EXPECT_EQ(report.regressions(), 1u);  // the tail alone trips the gate
}

TEST_F(ProfdiffTest, SummaryWriteAndRescan) {
  write_bench("BENCH_micro.json", 1000.0, 900.0);
  const std::string path = prof::write_summary(dir_);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.bench_summary.v1");
  EXPECT_TRUE(doc.at("benches").contains("micro"));

  // The summary is derived: a rescan must ignore it, not double count.
  const auto series = prof::flatten_series(prof::scan_artifacts(dir_));
  EXPECT_EQ(series.size(), 2u);
}

TEST_F(ProfdiffTest, ScanRejectsMissingDirectory) {
  EXPECT_THROW(prof::scan_artifacts("prof_test_no_such_dir"), IoError);
}

}  // namespace
