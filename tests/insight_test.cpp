// clpp::insight — reliability bins / ECE accounting, the snippet-feature
// fingerprint and its JSON round-trip, PSI drift scoring, the sliding
// drift window, the InsightTracker disagreement bookkeeping, and the
// advisor checkpoint carrying the training fingerprint (container v2).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "insight/calibration.h"
#include "insight/drift.h"
#include "insight/insight.h"
#include "support/json.h"

namespace clpp::insight {
namespace {

TEST(ReliabilityBins, PerfectCalibrationHasZeroEce) {
  ReliabilityBins bins(10);
  // 100 observations at confidence 0.75, exactly 75 of them correct: the
  // bin's accuracy equals its mean confidence, so the gap is zero.
  for (int i = 0; i < 100; ++i) bins.observe(0.75, i < 75);
  EXPECT_EQ(bins.count(), 100u);
  EXPECT_EQ(bins.labeled(), 100u);
  EXPECT_NEAR(bins.ece(), 0.0, 1e-12);
  EXPECT_NEAR(bins.mean_confidence(), 0.75, 1e-12);
}

TEST(ReliabilityBins, OverconfidenceShowsUpAsEce) {
  ReliabilityBins bins(10);
  // Confident and always wrong: the calibration gap is the confidence.
  for (int i = 0; i < 50; ++i) bins.observe(0.95, false);
  EXPECT_NEAR(bins.ece(), 0.95, 1e-12);
}

TEST(ReliabilityBins, UnlabeledObservationsFillHistogramOnly) {
  ReliabilityBins bins(10);
  bins.observe(0.05);
  bins.observe(0.95);
  bins.observe(0.95, true);
  EXPECT_EQ(bins.count(), 3u);
  EXPECT_EQ(bins.labeled(), 1u);
  const std::vector<std::uint64_t> hist = bins.histogram();
  ASSERT_EQ(hist.size(), 10u);
  EXPECT_EQ(hist.front(), 1u);
  EXPECT_EQ(hist.back(), 2u);
  // ECE is over labeled observations only; the lone correct one is exact.
  EXPECT_NEAR(bins.ece(), 0.05, 1e-12);
}

TEST(ReliabilityBins, JsonSnapshotCarriesBins) {
  ReliabilityBins bins(4);
  bins.observe(0.9, true);
  bins.observe(0.1, false);
  const Json doc = bins.to_json();
  EXPECT_EQ(doc.at("count").as_int(), 2);
  EXPECT_EQ(doc.at("labeled").as_int(), 2);
  ASSERT_EQ(doc.at("bins").size(), 4u);
  EXPECT_DOUBLE_EQ(doc.at("bins").at(0).at("lo").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("bins").at(3).at("hi").as_double(), 1.0);
}

const char* kStencil =
    "for (i = 1; i < n; i++) { for (j = 0; j < m; j++) a[i][j] = b[i][j]; }";
const char* kPointerChase =
    "while (node != NULL) { node->next->weight += hash(node->key); node = "
    "node->next; }";

TEST(Fingerprint, JsonRoundTripPreservesDistribution) {
  FingerprintBuilder builder;
  builder.observe(kStencil);
  builder.observe(kPointerChase);
  const Fingerprint original = builder.build();
  ASSERT_EQ(original.samples, 2u);

  const Fingerprint restored = Fingerprint::from_json(original.to_json());
  EXPECT_EQ(restored.samples, original.samples);
  EXPECT_DOUBLE_EQ(restored.mean_tokens, original.mean_tokens);
  EXPECT_DOUBLE_EQ(restored.var_tokens, original.var_tokens);
  EXPECT_DOUBLE_EQ(restored.mean_loop_depth, original.mean_loop_depth);
  for (std::size_t b = 0; b < kSketchBins; ++b)
    EXPECT_NEAR(restored.token_freq[b], original.token_freq[b], 1e-12) << b;
}

TEST(Fingerprint, PsiIsZeroAgainstItselfAndLargeAcrossDistributions) {
  FingerprintBuilder loops;
  for (int i = 0; i < 16; ++i) loops.observe(kStencil);
  FingerprintBuilder chases;
  for (int i = 0; i < 16; ++i) chases.observe(kPointerChase);

  const Fingerprint a = loops.build();
  const Fingerprint b = chases.build();
  EXPECT_NEAR(population_stability(a, a), 0.0, 1e-9);
  // Disjoint token universes: far beyond the PSI > 0.25 "drifted" line.
  EXPECT_GT(population_stability(a, b), 0.25);
  // Empty sides never blow up.
  EXPECT_DOUBLE_EQ(population_stability(Fingerprint{}, a), 0.0);
  EXPECT_DOUBLE_EQ(population_stability(a, Fingerprint{}), 0.0);
}

TEST(DriftMonitor, UnarmedAlwaysScoresZero) {
  DriftMonitor monitor(8);
  for (int i = 0; i < 20; ++i) monitor.observe(kPointerChase);
  EXPECT_FALSE(monitor.armed());
  EXPECT_EQ(monitor.observed(), 20u);
  EXPECT_DOUBLE_EQ(monitor.score(), 0.0);
}

TEST(DriftMonitor, SlidingWindowForgetsOldTraffic) {
  FingerprintBuilder reference;
  for (int i = 0; i < 16; ++i) reference.observe(kStencil);

  DriftMonitor monitor(4);
  monitor.set_reference(reference.build());
  ASSERT_TRUE(monitor.armed());

  // In-distribution traffic first: the window matches the reference.
  for (int i = 0; i < 8; ++i) monitor.observe(kStencil);
  EXPECT_EQ(monitor.filled(), 4u);
  const double stable = monitor.score();
  EXPECT_LT(stable, 0.1);

  // Enough drifted requests to evict every in-distribution sample: the
  // score must now reflect only the recent (drifted) window.
  for (int i = 0; i < 4; ++i) monitor.observe(kPointerChase);
  EXPECT_EQ(monitor.filled(), 4u);
  EXPECT_EQ(monitor.observed(), 12u);
  EXPECT_GT(monitor.score(), 0.25);
  EXPECT_GT(monitor.score(), stable);
}

VerdictSample make_sample(double p, bool positive, ProofVerdict proof) {
  VerdictSample sample;
  sample.p_directive = p;
  sample.positive = positive;
  sample.proof = proof;
  return sample;
}

TEST(InsightTracker, CountsDisagreementsPerDirection) {
  InsightTracker tracker;
  // Model says "parallelize", exact proof says loop-carried: dangerous.
  EXPECT_EQ(tracker.observe(kStencil,
                            make_sample(0.9, true, ProofVerdict::kDependent)),
            DisagreementKind::kModelParallelProofDependent);
  // Model withholds the directive from a proven-parallel loop: conservative.
  EXPECT_EQ(tracker.observe(kStencil,
                            make_sample(0.2, false, ProofVerdict::kParallel)),
            DisagreementKind::kModelSerialProofParallel);
  // Agreement.
  EXPECT_EQ(tracker.observe(kStencil,
                            make_sample(0.8, true, ProofVerdict::kParallel)),
            DisagreementKind::kNone);
  // No conclusive proof: histogram-only, never a disagreement.
  EXPECT_EQ(tracker.observe(kStencil,
                            make_sample(0.6, true, ProofVerdict::kInconclusive)),
            DisagreementKind::kNone);
  EXPECT_EQ(tracker.observe(kStencil,
                            make_sample(0.6, true, ProofVerdict::kNone)),
            DisagreementKind::kNone);

  EXPECT_EQ(tracker.samples(), 5u);
  EXPECT_EQ(tracker.disagreements(), 2u);
  EXPECT_NEAR(tracker.disagreement_rate(), 2.0 / 3.0, 1e-12);
}

TEST(InsightTracker, QualityJsonRoundTripsTheSnapshot) {
  InsightTracker tracker;
  FingerprintBuilder reference;
  for (int i = 0; i < 8; ++i) reference.observe(kStencil);
  tracker.set_reference(reference.build());
  for (int i = 0; i < 6; ++i)
    tracker.observe(kStencil, make_sample(0.9, true, ProofVerdict::kDependent));

  const Json doc = Json::parse(tracker.quality_json().dump());
  EXPECT_EQ(doc.at("schema").as_string(), "clpp.insight.v1");
  EXPECT_EQ(doc.at("samples").as_int(), 6);
  EXPECT_EQ(doc.at("disagreement").at("checked").as_int(), 6);
  EXPECT_EQ(doc.at("disagreement")
                .at("model_parallel_proof_dependent").as_int(), 6);
  EXPECT_DOUBLE_EQ(doc.at("disagreement").at("rate").as_double(), 1.0);
  EXPECT_TRUE(doc.at("drift").at("armed").as_bool());
  EXPECT_EQ(doc.at("drift").at("observed").as_int(), 6);
  EXPECT_LT(doc.at("drift").at("score").as_double(), 0.1);
  // The directive head is confidently wrong on every labeled sample.
  const Json& directive = doc.at("tasks").at("directive");
  EXPECT_EQ(directive.at("labeled").as_int(), 6);
  EXPECT_NEAR(directive.at("ece").as_double(), 0.9, 1e-12);
}

/// Minimal untrained advisor (mirrors serve_test): checkpoint mechanics are
/// independent of model quality.
std::unique_ptr<core::ParallelAdvisor> tiny_advisor() {
  constexpr std::size_t kMaxLen = 32;
  core::PragFormerConfig config;
  config.encoder.max_seq = kMaxLen;
  config.encoder.dim = 8;
  config.encoder.heads = 2;
  config.encoder.layers = 1;
  config.encoder.ffn_dim = 16;
  return std::make_unique<core::ParallelAdvisor>(
      core::ParallelAdvisor::untrained({kStencil}, config, kMaxLen, 7));
}

TEST(AdvisorFingerprint, CheckpointRoundTripCarriesTheFingerprint) {
  auto advisor = tiny_advisor();
  FingerprintBuilder builder;
  builder.observe(kStencil);
  builder.observe(kPointerChase);
  advisor->set_fingerprint(builder.build());
  ASSERT_FALSE(advisor->fingerprint().empty());

  const auto restored = advisor->clone();
  const Fingerprint& a = advisor->fingerprint();
  const Fingerprint& b = restored->fingerprint();
  EXPECT_EQ(b.samples, a.samples);
  EXPECT_DOUBLE_EQ(b.mean_tokens, a.mean_tokens);
  EXPECT_DOUBLE_EQ(b.mean_loop_depth, a.mean_loop_depth);
  for (std::size_t bin = 0; bin < kSketchBins; ++bin)
    EXPECT_NEAR(b.token_freq[bin], a.token_freq[bin], 1e-12) << bin;
}

TEST(AdvisorFingerprint, FingerprintlessAdvisorRoundTripsEmpty) {
  auto advisor = tiny_advisor();
  ASSERT_TRUE(advisor->fingerprint().empty());
  EXPECT_TRUE(advisor->clone()->fingerprint().empty());
}

}  // namespace
}  // namespace clpp::insight
