// clpp::resil tests: fault-plan parsing and firing, retry/backoff, atomic
// file replacement, checksummed containers, and the trainer's crash-safe
// checkpoint/resume — including the two acceptance scenarios from the
// issue: a torn write that must leave the previous checkpoint intact, and
// a killed-and-resumed training run that must reproduce the uninterrupted
// run's final weights and curves bit-for-bit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/pipeline.h"
#include "core/pragformer.h"
#include "core/resume.h"
#include "core/trainer.h"
#include "corpus/corpus.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "resil/resil.h"
#include "support/rng.h"

namespace clpp {
namespace {

namespace fs = std::filesystem;

class ResilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path("resil_test_tmp") / info->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    resil::clear_fault_plan();
    obs::set_enabled(false);
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << p;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void spew(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << p;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------- faults

TEST_F(ResilTest, FaultPlanParsesSpecs) {
  const resil::FaultPlan plan =
      resil::FaultPlan::parse(" atomic.rename:1, atomic.rename:3 ,train.batch:8 ");
  ASSERT_EQ(plan.triggers.size(), 2u);
  EXPECT_EQ(plan.triggers.at("atomic.rename"), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(plan.triggers.at("train.batch"), (std::vector<std::uint64_t>{8}));
  EXPECT_TRUE(resil::FaultPlan::parse("").empty());
  EXPECT_TRUE(resil::FaultPlan::parse(" , ,").empty());
}

TEST_F(ResilTest, FaultPlanRejectsMalformedSpecs) {
  EXPECT_THROW(resil::FaultPlan::parse("open"), InvalidArgument);
  EXPECT_THROW(resil::FaultPlan::parse("open:"), InvalidArgument);
  EXPECT_THROW(resil::FaultPlan::parse(":3"), InvalidArgument);
  EXPECT_THROW(resil::FaultPlan::parse("open:zero"), InvalidArgument);
  EXPECT_THROW(resil::FaultPlan::parse("open:0"), InvalidArgument);
}

TEST_F(ResilTest, FaultPointFiresOnExactArrivals) {
  resil::set_fault_plan(resil::FaultPlan::parse("seam.x:2,seam.x:4"));
  EXPECT_TRUE(resil::fault_injection_active());
  EXPECT_NO_THROW(resil::fault_point("seam.x"));
  EXPECT_THROW(resil::fault_point("seam.x"), resil::InjectedFault);
  EXPECT_NO_THROW(resil::fault_point("seam.x"));
  EXPECT_THROW(resil::fault_point("seam.x"), resil::InjectedFault);
  EXPECT_NO_THROW(resil::fault_point("seam.x"));
  EXPECT_EQ(resil::fault_hits("seam.x"), 5u);
  EXPECT_NO_THROW(resil::fault_point("seam.other"));
  resil::clear_fault_plan();
  EXPECT_FALSE(resil::fault_injection_active());
  EXPECT_NO_THROW(resil::fault_point("seam.x"));
}

TEST_F(ResilTest, AllocFaultPointThrowsBadAlloc) {
  resil::set_fault_plan(resil::FaultPlan::parse("seam.alloc:1"));
  EXPECT_THROW(resil::alloc_fault_point("seam.alloc"), std::bad_alloc);
  EXPECT_NO_THROW(resil::alloc_fault_point("seam.alloc"));
}

TEST_F(ResilTest, EnvironmentInstallsFaultPlan) {
  ASSERT_EQ(setenv("CLPP_FAULTS", "seam.env:1", 1), 0);
  resil::init_faults_from_env();
  ASSERT_EQ(unsetenv("CLPP_FAULTS"), 0);
  EXPECT_THROW(resil::fault_point("seam.env"), resil::InjectedFault);
  EXPECT_NO_THROW(resil::fault_point("seam.env"));
}

// ----------------------------------------------------------------- retry

resil::RetryPolicy fast_retry() {
  resil::RetryPolicy policy;
  policy.base_delay_ms = 0.01;
  policy.max_delay_ms = 0.05;
  return policy;
}

TEST_F(ResilTest, RetryRecoversFromTransientFailures) {
  obs::set_enabled(true);
  const std::uint64_t retries_before = obs::metrics().counter("clpp.resil.retries").value();
  int calls = 0;
  const int result = resil::with_retry(
      "test.flaky",
      [&] {
        if (++calls < 3) throw IoError("transient");
        return 42;
      },
      fast_retry());
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs::metrics().counter("clpp.resil.retries").value() - retries_before, 2u);
}

TEST_F(ResilTest, RetryExhaustsAttemptsThenRethrows) {
  int calls = 0;
  EXPECT_THROW(resil::with_retry(
                   "test.dead",
                   [&]() -> int {
                     ++calls;
                     throw IoError("permanent");
                   },
                   fast_retry()),
               IoError);
  EXPECT_EQ(calls, 3);
}

TEST_F(ResilTest, RetryElapsedBudgetCapsTotalBackoff) {
  obs::set_enabled(true);
  const std::uint64_t exhausted_before =
      obs::metrics().counter("clpp.resil.retry_exhausted").value();
  // Ten attempts are allowed but the elapsed budget only funds a couple of
  // 10ms-ish backoffs: the retry loop must give up on the budget, not the
  // attempt count.
  resil::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_delay_ms = 10.0;
  policy.multiplier = 1.0;
  policy.max_delay_ms = 10.0;
  policy.max_elapsed_ms = 25.0;
  int calls = 0;
  EXPECT_THROW(resil::with_retry(
                   "test.budget",
                   [&]() -> int {
                     ++calls;
                     throw IoError("permanent");
                   },
                   policy),
               IoError);
  // Jitter scales each delay into [5, 15) ms, so a 25ms budget funds at
  // least one and at most four sleeps; the attempt cap (10) is never hit.
  EXPECT_GE(calls, 2);
  EXPECT_LE(calls, 5);
  EXPECT_EQ(
      obs::metrics().counter("clpp.resil.retry_exhausted").value() -
          exhausted_before,
      1u);
}

TEST_F(ResilTest, RetryBudgetGiveUpPointIsDeterministic) {
  // The budget is accounted from the *scheduled* jittered delays, not
  // wall-clock reads, so two runs with one seed agree exactly on when to
  // give up.
  resil::RetryPolicy policy;
  policy.max_attempts = 32;
  policy.base_delay_ms = 0.01;
  policy.multiplier = 2.0;
  policy.max_delay_ms = 0.05;
  policy.max_elapsed_ms = 0.12;
  policy.jitter_seed = 0xfeedULL;
  auto run = [&policy] {
    int calls = 0;
    try {
      resil::with_retry(
          "test.replay",
          [&]() -> int {
            ++calls;
            throw IoError("permanent");
          },
          policy);
    } catch (const IoError&) {
    }
    return calls;
  };
  const int first = run();
  EXPECT_EQ(run(), first);
  EXPECT_LT(first, policy.max_attempts);
}

TEST_F(ResilTest, RetryExhaustedCountsMaxAttemptsToo) {
  obs::set_enabled(true);
  const std::uint64_t exhausted_before =
      obs::metrics().counter("clpp.resil.retry_exhausted").value();
  int calls = 0;
  EXPECT_THROW(resil::with_retry(
                   "test.dead2",
                   [&]() -> int {
                     ++calls;
                     throw IoError("permanent");
                   },
                   fast_retry()),
               IoError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(
      obs::metrics().counter("clpp.resil.retry_exhausted").value() -
          exhausted_before,
      1u);
}

TEST_F(ResilTest, RetryNeverRetriesParseErrors) {
  // Corruption is deterministic: retrying a checksum mismatch cannot heal it.
  int calls = 0;
  EXPECT_THROW(resil::with_retry(
                   "test.corrupt",
                   [&]() -> int {
                     ++calls;
                     throw ParseError("checksum mismatch");
                   },
                   fast_retry()),
               ParseError);
  EXPECT_EQ(calls, 1);
}

TEST_F(ResilTest, BackoffDelaysGrowAndStayJitterBounded) {
  resil::RetryPolicy policy;  // base 1ms, x4, cap 50ms
  std::uint64_t jitter = policy.jitter_seed;
  const double d1 = resil::detail::backoff_delay_ms(policy, 1, jitter);
  const double d2 = resil::detail::backoff_delay_ms(policy, 2, jitter);
  const double d9 = resil::detail::backoff_delay_ms(policy, 9, jitter);
  EXPECT_GE(d1, 0.5);
  EXPECT_LT(d1, 1.5);
  EXPECT_GE(d2, 2.0);
  EXPECT_LT(d2, 6.0);
  EXPECT_LE(d9, 75.0);  // capped at 50ms before jitter
}

// ----------------------------------------------------- atomic file writes

TEST_F(ResilTest, AtomicWriteCreatesReplacesAndCleansTmp) {
  const std::string target = path("data.txt");
  resil::atomic_write_file(target, std::string_view{"v1"});
  EXPECT_EQ(slurp(target), "v1");
  resil::atomic_write_file(target, [](std::ostream& out) { out << "v2-longer"; });
  EXPECT_EQ(slurp(target), "v2-longer");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  EXPECT_TRUE(resil::file_exists(target));
  EXPECT_FALSE(resil::file_exists(path("absent")));
}

TEST_F(ResilTest, FaultAtEverySeamLeavesPreviousFileIntact) {
  const std::string target = path("data.txt");
  resil::atomic_write_file(target, std::string_view{"old"});
  for (const char* seam :
       {"atomic.open", "atomic.write", "atomic.fsync", "atomic.rename"}) {
    resil::FaultPlan plan;
    plan.triggers[seam] = {1};
    resil::set_fault_plan(std::move(plan));
    EXPECT_THROW(resil::atomic_write_file(target, std::string_view{"new"}), IoError)
        << seam;
    resil::clear_fault_plan();
    EXPECT_EQ(slurp(target), "old") << seam;
    EXPECT_FALSE(fs::exists(target + ".tmp")) << seam;
  }
}

// ------------------------------------------------------------- container

TEST_F(ResilTest, Crc32MatchesKnownVector) {
  // The standard CRC-32 check value (e.g. zlib's crc32("123456789")).
  EXPECT_EQ(resil::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(resil::crc32(""), 0u);
}

TEST_F(ResilTest, ContainerRoundTripsAndSniffs) {
  const std::string target = path("payload.ckpt");
  const std::string payload = std::string("binary") + '\0' + "payload\x7f";
  resil::write_container(target, payload);
  EXPECT_EQ(resil::read_container(target), payload);

  spew(path("raw.bin"), "not a container but longer than a header");
  EXPECT_THROW(resil::read_container(path("raw.bin")), ParseError);
}

TEST_F(ResilTest, EveryFlippedByteIsRejected) {
  const std::string target = path("flip.ckpt");
  resil::write_container(target, "checksum-protected payload");
  const std::string good = slurp(target);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    spew(target, bad);
    EXPECT_THROW(resil::read_container(target), ParseError) << "byte " << i;
  }
}

TEST_F(ResilTest, TruncationIsRejected) {
  const std::string target = path("trunc.ckpt");
  resil::write_container(target, "a payload long enough to truncate");
  const std::string good = slurp(target);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{19},
                                 good.size() - 1}) {
    spew(target, good.substr(0, keep));
    EXPECT_THROW(resil::read_container(target), ParseError) << "kept " << keep;
  }
  // Trailing garbage is corruption too, not silently ignored.
  spew(target, good + "x");
  EXPECT_THROW(resil::read_container(target), ParseError);
}

TEST_F(ResilTest, TornContainerWriteLeavesPreviousCheckpointIntact) {
  const std::string target = path("ckpt.bin");
  resil::write_container(target, "generation-1");
  // Exhaust all three write attempts at the rename seam: the "torn write"
  // acceptance scenario — the fault strikes between temp write and rename.
  resil::set_fault_plan(
      resil::FaultPlan::parse("atomic.rename:1,atomic.rename:2,atomic.rename:3"));
  EXPECT_THROW(resil::write_container(target, "generation-2"), IoError);
  resil::clear_fault_plan();
  EXPECT_EQ(resil::read_container(target), "generation-1");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  // A transient fault (one failure, retries left) succeeds transparently.
  resil::set_fault_plan(resil::FaultPlan::parse("atomic.rename:1"));
  resil::write_container(target, "generation-3");
  resil::clear_fault_plan();
  EXPECT_EQ(resil::read_container(target), "generation-3");
}

TEST_F(ResilTest, ContainerRecordsLatencyAndCounters) {
  obs::set_enabled(true);
  auto& reg = obs::metrics();
  const std::uint64_t saves = reg.counter("clpp.resil.ckpt_saves").value();
  const std::uint64_t loads = reg.counter("clpp.resil.ckpt_loads").value();
  const std::uint64_t save_lat = reg.histogram("clpp.resil.ckpt_save_us").count();
  const std::uint64_t load_lat = reg.histogram("clpp.resil.ckpt_load_us").count();
  const std::string target = path("metrics.ckpt");
  resil::write_container(target, "observable");
  (void)resil::read_container(target);
  EXPECT_EQ(reg.counter("clpp.resil.ckpt_saves").value() - saves, 1u);
  EXPECT_EQ(reg.counter("clpp.resil.ckpt_loads").value() - loads, 1u);
  EXPECT_EQ(reg.histogram("clpp.resil.ckpt_save_us").count() - save_lat, 1u);
  EXPECT_EQ(reg.histogram("clpp.resil.ckpt_load_us").count() - load_lat, 1u);
}

// ------------------------------------------------------------ env config

TEST_F(ResilTest, CheckpointEnvHelpers) {
  ASSERT_EQ(setenv("CLPP_CKPT_DIR", "/tmp/ckpts", 1), 0);
  ASSERT_EQ(setenv("CLPP_CKPT_EVERY", "25", 1), 0);
  EXPECT_EQ(resil::checkpoint_dir_from_env(), "/tmp/ckpts");
  EXPECT_EQ(resil::checkpoint_every_from_env(), 25u);
  ASSERT_EQ(setenv("CLPP_CKPT_EVERY", "not-a-number", 1), 0);
  EXPECT_EQ(resil::checkpoint_every_from_env(), 0u);
  ASSERT_EQ(unsetenv("CLPP_CKPT_DIR"), 0);
  ASSERT_EQ(unsetenv("CLPP_CKPT_EVERY"), 0);
  EXPECT_EQ(resil::checkpoint_dir_from_env(), "");
  EXPECT_EQ(resil::checkpoint_every_from_env(), 0u);
}

// --------------------------------------------------------- corpus seams

TEST_F(ResilTest, CorpusSaveIsAtomicAndLoadHasSeams) {
  corpus::Corpus corpus;
  corpus::Record r;
  r.id = "r0";
  r.family = "test";
  r.code = "for (i = 0; i < n; i++) a[i] = b[i];";
  r.has_directive = true;
  r.directive_text = "#pragma omp parallel for";
  r.refresh_labels();
  corpus.add(std::move(r));

  const std::string target = path("corpus.jsonl");
  corpus.save_jsonl(target);
  EXPECT_EQ(corpus::Corpus::load_jsonl(target).size(), 1u);

  resil::set_fault_plan(resil::FaultPlan::parse("corpus.open:1"));
  EXPECT_THROW(corpus::Corpus::load_jsonl(target), IoError);
  resil::set_fault_plan(resil::FaultPlan::parse("corpus.parse:1"));
  EXPECT_THROW(corpus::Corpus::load_jsonl(target), IoError);

  // A torn save (fault before rename, no retry at this layer) must leave
  // the previous corpus readable.
  const std::string before = slurp(target);
  resil::set_fault_plan(resil::FaultPlan::parse("atomic.rename:1"));
  EXPECT_THROW(corpus.save_jsonl(target), IoError);
  resil::clear_fault_plan();
  EXPECT_EQ(slurp(target), before);
}

// ------------------------------------------------- trainer checkpointing

core::PragFormerConfig tiny_model_config() {
  core::PragFormerConfig config;
  config.encoder.vocab_size = 16;
  config.encoder.max_seq = 16;
  config.encoder.dim = 16;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 24;
  // Non-zero dropout so the resumed RNG stream is load-bearing: a wrong
  // restore would desynchronize the dropout masks and change the weights.
  config.encoder.dropout = 0.1f;
  config.head_dropout = 0.1f;
  return config;
}

core::EncodedDataset tiny_dataset(int rows = 32) {
  // Positive sequences contain token 5, negatives token 6.
  core::EncodedDataset data;
  Rng data_rng(4);
  for (int i = 0; i < rows; ++i) {
    const bool pos = i % 2 == 0;
    std::vector<std::int32_t> seq = {1};
    for (int t = 0; t < 6; ++t)
      seq.push_back(static_cast<std::int32_t>(7 + data_rng.index(8)));
    seq[1 + data_rng.index(6)] = pos ? 5 : 6;
    data.sequences.push_back(std::move(seq));
    data.labels.push_back(pos);
  }
  return data;
}

void expect_bitwise_equal_params(core::PragFormer& a, core::PragFormer& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    ASSERT_EQ(pa[i]->value.shape(), pb[i]->value.shape());
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          pa[i]->value.numel() * sizeof(float)),
              0)
        << pa[i]->name;
  }
}

void expect_equal_curves(const std::vector<core::EpochCurve>& a,
                         const std::vector<core::EpochCurve>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    // Exact equality: resume must be bitwise, not approximately, identical.
    // wall_seconds is explicitly outside the guarantee.
    EXPECT_EQ(a[i].train_loss, b[i].train_loss) << "epoch " << i;
    EXPECT_EQ(a[i].val_loss, b[i].val_loss) << "epoch " << i;
    EXPECT_EQ(a[i].val_accuracy, b[i].val_accuracy) << "epoch " << i;
  }
}

TEST_F(ResilTest, TrainerCheckpointRoundTrips) {
  core::TrainerCheckpoint ck;
  ck.epoch = 3;
  ck.next_start = 16;
  ck.step = 44;
  ck.batches = 2;
  ck.loss_sum = 1.25;
  ck.rng_state = {1, 2, 3, 4};
  ck.order = {3, 1, 2, 0};
  ck.curves.push_back({.epoch = 0, .train_loss = 0.5f, .val_loss = 0.4f,
                       .val_accuracy = 0.9f, .wall_seconds = 1.0});
  ck.best_val_loss = 0.4f;
  Tensor w({2, 3});
  for (std::size_t i = 0; i < w.numel(); ++i) w.data()[i] = static_cast<float>(i);
  ck.best_snapshot.emplace("w", w);
  ck.params.emplace("w", w);
  ck.opt_steps = 44;
  ck.opt_m.push_back(w);
  ck.opt_v.push_back(w);

  const std::string target = core::trainer_checkpoint_path(dir_.string());
  core::save_trainer_checkpoint(target, ck);
  const core::TrainerCheckpoint back = core::load_trainer_checkpoint(target);
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.next_start, 16u);
  EXPECT_EQ(back.step, 44u);
  EXPECT_EQ(back.batches, 2u);
  EXPECT_EQ(back.loss_sum, 1.25);
  EXPECT_EQ(back.rng_state, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(back.order, (std::vector<std::uint64_t>{3, 1, 2, 0}));
  ASSERT_EQ(back.curves.size(), 1u);
  EXPECT_EQ(back.curves[0].val_accuracy, 0.9f);
  EXPECT_EQ(back.best_val_loss, 0.4f);
  ASSERT_EQ(back.params.count("w"), 1u);
  EXPECT_EQ(std::memcmp(back.params.at("w").data(), w.data(),
                        w.numel() * sizeof(float)),
            0);
  ASSERT_EQ(back.opt_m.size(), 1u);
  EXPECT_EQ(back.opt_steps, 44u);
}

TEST_F(ResilTest, KilledRunResumesBitwiseIdentical) {
  const core::EncodedDataset data = tiny_dataset();
  core::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.lr = 2e-3f;
  config.select_best_epoch = true;  // exercises best-snapshot persistence

  // Reference: the uninterrupted run.
  Rng rng_a(5);
  core::PragFormer model_a(tiny_model_config(), rng_a);
  const auto curves_a = train_classifier(model_a, data, data, config, rng_a);

  // Crashed run: same seed, checkpoint every 2 batches, killed by an
  // injected fault mid-epoch (arrival 11 of 16 = epoch 2, batch 3).
  obs::set_enabled(true);
  const std::uint64_t resumes_before =
      obs::metrics().counter("clpp.resil.ckpt_resumes").value();
  core::TrainConfig ckpt_config = config;
  ckpt_config.checkpoint_dir = dir_.string();
  ckpt_config.checkpoint_every = 2;
  Rng rng_b(5);
  core::PragFormer model_b(tiny_model_config(), rng_b);
  resil::set_fault_plan(resil::FaultPlan::parse("train.batch:11"));
  EXPECT_THROW(train_classifier(model_b, data, data, ckpt_config, rng_b),
               resil::InjectedFault);
  resil::clear_fault_plan();
  ASSERT_TRUE(resil::file_exists(core::trainer_checkpoint_path(dir_.string())));

  // Resume: fresh process state (new model + RNG from the same seed), the
  // checkpoint supplies everything else.
  Rng rng_c(5);
  core::PragFormer model_c(tiny_model_config(), rng_c);
  const auto curves_c = train_classifier(model_c, data, data, ckpt_config, rng_c);
  EXPECT_GE(obs::metrics().counter("clpp.resil.ckpt_resumes").value(),
            resumes_before + 1);
  expect_equal_curves(curves_a, curves_c);
  expect_bitwise_equal_params(model_a, model_c);

  // Resuming a *finished* run re-trains nothing and reproduces the same
  // final state from the checkpoint alone.
  Rng rng_d(5);
  core::PragFormer model_d(tiny_model_config(), rng_d);
  const auto curves_d = train_classifier(model_d, data, data, ckpt_config, rng_d);
  expect_equal_curves(curves_a, curves_d);
  expect_bitwise_equal_params(model_a, model_d);
}

TEST_F(ResilTest, EpochBoundaryKillAlsoResumesBitwise) {
  const core::EncodedDataset data = tiny_dataset();
  core::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 8;
  config.lr = 2e-3f;

  Rng rng_a(7);
  core::PragFormer model_a(tiny_model_config(), rng_a);
  const auto curves_a = train_classifier(model_a, data, data, config, rng_a);

  // Kill at the first batch of epoch 1: the only checkpoint is the epoch-0
  // boundary save (checkpoint_every = 0 -> epoch ends only).
  core::TrainConfig ckpt_config = config;
  ckpt_config.checkpoint_dir = dir_.string();
  Rng rng_b(7);
  core::PragFormer model_b(tiny_model_config(), rng_b);
  resil::set_fault_plan(resil::FaultPlan::parse("train.batch:5"));
  EXPECT_THROW(train_classifier(model_b, data, data, ckpt_config, rng_b),
               resil::InjectedFault);
  resil::clear_fault_plan();

  Rng rng_c(7);
  core::PragFormer model_c(tiny_model_config(), rng_c);
  const auto curves_c = train_classifier(model_c, data, data, ckpt_config, rng_c);
  expect_equal_curves(curves_a, curves_c);
  expect_bitwise_equal_params(model_a, model_c);
}

TEST_F(ResilTest, CorruptCheckpointDegradesToFreshRun) {
  const core::EncodedDataset data = tiny_dataset(16);
  core::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.checkpoint_dir = dir_.string();
  spew(core::trainer_checkpoint_path(dir_.string()), "garbage, not a container");

  obs::set_enabled(true);
  const std::uint64_t degraded_before =
      obs::metrics().counter("clpp.resil.degraded_loads").value();
  Rng rng(11);
  core::PragFormer model(tiny_model_config(), rng);
  const auto curves = train_classifier(model, data, data, config, rng);
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(obs::metrics().counter("clpp.resil.degraded_loads").value(),
            degraded_before + 1);
  // The fresh run overwrote the garbage with a valid checkpoint.
  EXPECT_NO_THROW(core::load_trainer_checkpoint(
      core::trainer_checkpoint_path(dir_.string())));
}

TEST_F(ResilTest, IncompatibleCheckpointDegradesToFreshRun) {
  // A well-formed checkpoint for a *different* dataset (wrong row count)
  // must not be half-applied: the run starts fresh.
  core::TrainerCheckpoint ck;
  ck.order = {0, 1, 2};  // dataset below has 16 rows
  core::save_trainer_checkpoint(core::trainer_checkpoint_path(dir_.string()), ck);

  obs::set_enabled(true);
  const std::uint64_t degraded_before =
      obs::metrics().counter("clpp.resil.degraded_loads").value();
  const core::EncodedDataset data = tiny_dataset(16);
  core::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.checkpoint_dir = dir_.string();
  Rng rng(12);
  core::PragFormer model(tiny_model_config(), rng);
  const auto curves = train_classifier(model, data, data, config, rng);
  ASSERT_EQ(curves.size(), 1u);
  EXPECT_EQ(obs::metrics().counter("clpp.resil.degraded_loads").value(),
            degraded_before + 1);
}

TEST_F(ResilTest, CheckpointSaveFailureWarnsAndTrainingContinues) {
  const core::EncodedDataset data = tiny_dataset(16);
  core::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  // A directory that does not exist: every save fails after retries.
  config.checkpoint_dir = path("missing") + "/nested";

  obs::set_enabled(true);
  const std::uint64_t failures_before =
      obs::metrics().counter("clpp.resil.ckpt_save_failures").value();
  Rng rng(13);
  core::PragFormer model(tiny_model_config(), rng);
  const auto curves = train_classifier(model, data, data, config, rng);
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_GE(obs::metrics().counter("clpp.resil.ckpt_save_failures").value(),
            failures_before + 2);
}

TEST_F(ResilTest, PipelineScopesCheckpointDirPerTask) {
  core::PipelineConfig config;
  config.generator.size = 120;
  config.generator.seed = 2023;
  config.max_len = 32;
  config.encoder.dim = 16;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 24;
  config.mlm_pretrain = false;
  config.train.epochs = 1;
  config.train.batch_size = 16;
  config.train.checkpoint_dir = path("ckpts");

  obs::set_enabled(true);
  const std::uint64_t resumes_before =
      obs::metrics().counter("clpp.resil.ckpt_resumes").value();
  const std::uint64_t degraded_before =
      obs::metrics().counter("clpp.resil.degraded_loads").value();
  core::Pipeline pipeline(config);
  (void)pipeline.train_task(corpus::Task::kDirective);
  (void)pipeline.train_task(corpus::Task::kPrivate);
  // Each task checkpoints into its own subdirectory; the second task must
  // start fresh, not resume from (or degrade on) the first task's file.
  EXPECT_TRUE(
      resil::file_exists(core::trainer_checkpoint_path(path("ckpts/directive"))));
  EXPECT_TRUE(
      resil::file_exists(core::trainer_checkpoint_path(path("ckpts/private"))));
  EXPECT_EQ(obs::metrics().counter("clpp.resil.ckpt_resumes").value(),
            resumes_before);
  EXPECT_EQ(obs::metrics().counter("clpp.resil.degraded_loads").value(),
            degraded_before);
}

// --------------------------------------------------------- MLM cache

TEST_F(ResilTest, MlmCacheDegradesOnCorruptionThenRewrites) {
  core::PipelineConfig config;
  config.generator.size = 120;
  config.generator.seed = 2023;
  config.max_len = 32;
  config.encoder.dim = 16;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 24;
  config.mlm.epochs = 1;
  config.mlm_cache_path = path("mlm.ckpt");
  spew(config.mlm_cache_path, "corrupt cache bytes");

  obs::set_enabled(true);
  auto& degraded = obs::metrics().counter("clpp.resil.degraded_loads");
  const std::uint64_t degraded_before = degraded.value();
  core::Pipeline first(config);
  const auto& computed = first.mlm_checkpoint();
  EXPECT_FALSE(computed.empty());
  EXPECT_EQ(degraded.value(), degraded_before + 1);

  // The recomputed checkpoint was rewritten; a second pipeline loads it
  // from cache without degrading again, bit-for-bit.
  core::Pipeline second(config);
  const auto& cached = second.mlm_checkpoint();
  EXPECT_EQ(degraded.value(), degraded_before + 1);
  ASSERT_EQ(cached.size(), computed.size());
  for (const auto& [name, tensor] : computed) {
    ASSERT_EQ(cached.count(name), 1u) << name;
    const Tensor& other = cached.at(name);
    ASSERT_EQ(other.shape(), tensor.shape()) << name;
    EXPECT_EQ(std::memcmp(other.data(), tensor.data(),
                          tensor.numel() * sizeof(float)),
              0)
        << name;
  }
}

}  // namespace
}  // namespace clpp
