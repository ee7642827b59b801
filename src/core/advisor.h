// ParallelAdvisor: the user-facing API of the library.
//
// Combines the three trained PragFormer classifiers (directive / private /
// reduction) with the dependence analyzer to produce an actionable
// suggestion: the classifiers decide *whether* a directive and clauses are
// needed (the paper's contribution); the analyzer names the variables for
// the clauses when it can (the deterministic machinery the paper keeps for
// directive construction in its future-work pipeline).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/explain.h"
#include "core/pipeline.h"
#include "insight/drift.h"
#include "insight/insight.h"

namespace clpp::core {

/// Advice for one code snippet.
struct Advice {
  float p_directive = 0.0f;
  float p_private = 0.0f;    // meaningful when needs_directive
  float p_reduction = 0.0f;  // meaningful when needs_directive
  float p_dynamic = 0.0f;    // meaningful when a schedule model is attached
  bool needs_directive = false;
  bool needs_private = false;
  bool needs_reduction = false;
  bool wants_dynamic_schedule = false;
  /// Static cross-check: what the dependence engine proved about the target
  /// loop (kNone when analysis was skipped or the code does not parse).
  /// Compared against the model verdict by clpp::insight.
  insight::ProofVerdict proof = insight::ProofVerdict::kNone;
  /// Suggested pragma line, empty when no directive is advised.
  std::string suggestion;
  /// What the ComPar S2S ensemble would do on the same snippet, for
  /// comparison (empty when it fails or declines).
  std::string compar_suggestion;
};

/// Which parts of an Advice to compute. The model verdicts (the paper's
/// contribution) always run; the deterministic extras are optional so a
/// serving path can trade them against latency.
struct AdviseOptions {
  /// Run the dependence analyzer to name private/reduction variables in the
  /// suggested pragma. Off, the suggestion is the bare directive.
  bool with_analysis = true;
  /// Run the ComPar S2S ensemble for the comparison suggestion.
  bool with_compar = true;
};

/// Where one `advise_batch` call spent its time, broken down by stage, plus
/// which input rows were answered by coalescing onto an earlier duplicate.
/// Filled only when a caller passes a non-null pointer; the measurement
/// itself is a handful of steady-clock reads, cheap enough for the serve
/// path to request on every batch.
struct BatchTiming {
  std::uint64_t encode_ns = 0;     // tokenize + vocab encode of distinct rows
  std::uint64_t directive_ns = 0;  // directive-model forward passes
  std::uint64_t private_ns = 0;    // private-clause model forward passes
  std::uint64_t reduction_ns = 0;  // reduction-clause model forward passes
  std::uint64_t schedule_ns = 0;   // schedule model forward passes (if attached)
  std::uint64_t extras_ns = 0;     // analyzer + ComPar deterministic extras
  /// Distinct snippets actually run through the models.
  std::size_t unique_rows = 0;
  /// Inputs answered from another row's verdict (batch size − unique_rows).
  std::size_t coalesced = 0;
  /// Per-input flag: 1 when input i re-used an earlier duplicate's verdict.
  std::vector<std::uint8_t> coalesced_of;

  /// Total model-forward time — the "inference" share a serving layer
  /// reports per request.
  std::uint64_t infer_ns() const {
    return directive_ns + private_ns + reduction_ns + schedule_ns;
  }
};

/// Bundles three trained models and a vocabulary into an advisor.
class ParallelAdvisor {
 public:
  /// Takes ownership of the trained models. All three must share the
  /// representation/vocab/max_len of `pipeline_config`.
  ParallelAdvisor(std::unique_ptr<PragFormer> directive_model,
                  std::unique_ptr<PragFormer> private_model,
                  std::unique_ptr<PragFormer> reduction_model,
                  tokenize::Vocabulary vocabulary, tokenize::Representation rep,
                  std::size_t max_len);

  /// Attaches an optional fourth classifier predicting schedule(dynamic)
  /// (the paper's §6 "scheduling construct" future work).
  void set_schedule_model(std::unique_ptr<PragFormer> schedule_model);

  /// Analyzes one snippet. Throws ParseError only for AST representations
  /// on unparseable input; the default Text representation accepts any
  /// lexable code. Advising writes nothing: any number of threads may
  /// advise on one advisor at once.
  Advice advise(const std::string& code) const;
  Advice advise(const std::string& code, const AdviseOptions& options) const;

  /// Batched multi-task inference: one Advice per input snippet, in input
  /// order. Snippets are bucketed by *exact* encoded length and each bucket
  /// runs as one padding-free `predict_proba` per task model, so the
  /// transformer forward is amortized across concurrent requests while every
  /// verdict stays bitwise identical to the single-snippet `advise` path
  /// (all NN kernels are batch-row independent). This is the entry point the
  /// clpp::serve micro-batching scheduler drives.
  std::vector<Advice> advise_batch(const std::vector<std::string>& codes,
                                   const AdviseOptions& options = {}) const;

  /// As above, additionally reporting the per-stage time split and
  /// coalescing map in `*timing` (ignored when null). The verdicts are
  /// identical to the two-argument overload.
  std::vector<Advice> advise_batch(const std::vector<std::string>& codes,
                                   const AdviseOptions& options,
                                   BatchTiming* timing) const;

  /// Convenience: trains a full advisor (directive + private + reduction +
  /// schedule models) from a fresh pipeline.
  static ParallelAdvisor train(PipelineConfig config);

  /// Untrained advisor: Text representation, vocabulary built from
  /// `snippets`, and all four models drawn from one `Rng(seed)` in the order
  /// directive, private, reduction, schedule. `config.encoder.vocab_size` is
  /// set from the vocabulary. Serving, sharding and telemetry do not depend
  /// on the weights, so demos, benches and tests use this to skip training.
  static ParallelAdvisor untrained(const std::vector<std::string>& snippets,
                                   PragFormerConfig config, std::size_t max_len,
                                   std::uint64_t seed);

  /// Persists the advisor (all models, vocabulary, representation) to one
  /// binary file; `load` restores an identical advisor.
  void save(const std::string& path) const;
  static ParallelAdvisor load(const std::string& path);

  /// In-memory serialization — the byte payload `save` wraps in a
  /// checksummed resil container.
  std::string serialize() const;

  /// Deep copy through `serialize()`: bitwise-identical verdicts from
  /// weights of its own, so training one copy leaves the other untouched.
  /// Serving never needs one; threads share the advisor.
  std::unique_ptr<ParallelAdvisor> clone() const;

  /// Attention-map explanation of the directive prediction for `code`.
  Explanation explain(const std::string& code) const;

  /// Training-corpus feature fingerprint, the drift-detection reference
  /// checkpointed with the model (advisor container v2). Empty for advisors
  /// assembled without `train`.
  const insight::Fingerprint& fingerprint() const { return fingerprint_; }
  void set_fingerprint(insight::Fingerprint fingerprint) {
    fingerprint_ = std::move(fingerprint);
  }

  /// The token stream the models read; `tokenize::tokenize(code,
  /// representation())` throws the `ParseError` that `advise` would.
  tokenize::Representation representation() const { return rep_; }

 private:
  std::unique_ptr<PragFormer> directive_model_;
  std::unique_ptr<PragFormer> private_model_;
  std::unique_ptr<PragFormer> reduction_model_;
  std::unique_ptr<PragFormer> schedule_model_;  // optional
  tokenize::Vocabulary vocab_;
  tokenize::Representation rep_;
  std::size_t max_len_;
  insight::Fingerprint fingerprint_;
};

}  // namespace clpp::core
