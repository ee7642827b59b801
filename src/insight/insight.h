// clpp::insight — model-quality telemetry for the serving advisor.
//
// The obs stack measures how fast the system answers; this module measures
// whether the answers are still trustworthy, along three axes:
//
//   * calibration — per-task confidence histograms and an online expected
//     calibration error for the directive head, using the dependence
//     engine's *exact* verdicts as a label proxy (ReliabilityBins);
//   * disagreement — the model says "parallelize" while the static proof
//     says "loop-carried dependence" (or vice versa): counted per
//     direction, and the dangerous direction is flight-recorded by the
//     caller (DisagreementKind);
//   * drift — serve traffic compared against the training-corpus
//     fingerprint checkpointed with the advisor (DriftMonitor).
//
// Everything is exported twice: as a `clpp.insight.v1` JSON snapshot (the
// serve `{"cmd":"quality"}` admin verb, loadgen artifacts, clpp-insight,
// `clpp-report quality`) and as clpp.insight.* registry metrics so
// streams/bench artifacts and `clpp-report diff` pick the series up with
// zero extra plumbing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>

#include "insight/calibration.h"
#include "insight/drift.h"
#include "support/json.h"

namespace clpp::insight {

/// What the dependence engine proved about a snippet's target loop.
enum class ProofVerdict {
  kNone,          // analysis skipped or code did not parse
  kParallel,      // exact proof: no blocking dependence
  kDependent,     // exact proof: loop-carried dependence
  kInconclusive,  // bailed, non-canonical, or conservative answer
};

const char* proof_verdict_name(ProofVerdict verdict);

/// Model-vs-proof disagreement classification of one observation.
enum class DisagreementKind {
  kNone,                        // agreement, or no conclusive proof
  kModelParallelProofDependent, // model advises a directive over a proven dep
  kModelSerialProofParallel,    // model withholds a directive from a proven-
                                // parallel loop (conservative, still logged)
};

/// One serving verdict, as the tracker consumes it.
struct VerdictSample {
  double p_directive = 0.0;
  double p_private = 0.0;
  double p_reduction = 0.0;
  double p_dynamic = 0.0;
  bool positive = false;        // model predicted "needs directive"
  bool clauses_scored = false;  // clause/schedule heads ran (positives only)
  ProofVerdict proof = ProofVerdict::kNone;
};

struct InsightConfig {
  std::size_t bins = 10;          // reliability bins per task
  std::size_t drift_window = 256; // sliding window of serve requests
};

/// Thread-safe aggregator tying the three signals together. One instance
/// lives in the inference server; CLIs build their own.
class InsightTracker {
 public:
  explicit InsightTracker(InsightConfig config = {});

  /// Arms drift detection with the training-time fingerprint.
  void set_reference(Fingerprint reference);
  bool drift_armed() const;

  /// Records one served verdict; returns its disagreement classification
  /// so the caller can attach request context (flight record, trace id).
  DisagreementKind observe(std::string_view code, const VerdictSample& sample);

  std::uint64_t samples() const;
  std::uint64_t disagreements() const;
  double directive_ece() const;
  double drift_score() const;
  double disagreement_rate() const;  // disagreements / conclusive proofs

  /// Full `clpp.insight.v1` snapshot: per-task reliability bins, ECE,
  /// disagreement counters, drift block.
  Json quality_json() const;

 private:
  /// Mirrors the headline numbers into clpp.insight.* registry metrics
  /// (gauges for levels, counters for events). Caller holds mu_.
  void export_metrics_locked(bool conclusive, DisagreementKind kind);

  mutable std::mutex mu_;
  InsightConfig config_;
  ReliabilityBins directive_;
  ReliabilityBins private_;
  ReliabilityBins reduction_;
  ReliabilityBins schedule_;
  DriftMonitor drift_;
  std::uint64_t samples_ = 0;
  std::uint64_t proofs_checked_ = 0;  // observations with a conclusive proof
  std::uint64_t agreements_ = 0;
  std::uint64_t model_parallel_proof_dependent_ = 0;
  std::uint64_t model_serial_proof_parallel_ = 0;
};

}  // namespace clpp::insight
