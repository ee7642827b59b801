// PragFormer training loop with per-epoch curves (Figures 3-5).
#pragma once

#include <functional>
#include <vector>

#include "core/dataset.h"
#include "core/metrics.h"
#include "core/pragformer.h"

namespace clpp::core {

/// Default number of rows per forward pass for batched *inference* — shared
/// by the eval/predict helpers below and by the serving scheduler's
/// `ServeConfig::max_batch` (src/serve), so the batch-size knob is tuned in
/// exactly one place. Training batch sizes are a separate hyperparameter
/// (`TrainConfig::batch_size`): they affect the optimization trajectory,
/// whereas this constant only trades latency against GEMM efficiency.
inline constexpr std::size_t kDefaultInferBatch = 64;

/// Fine-tuning hyperparameters (§4.3: AdamW + dropout).
struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  float lr = 5e-4f;
  float clip_norm = 1.0f;
  float warmup_fraction = 0.1f;  // of total steps
  /// §5.1: "since validation loss begins to rise after 7-9 epochs, we
  /// choose to use the models trained up to those points." When true, the
  /// parameters from the epoch with the lowest validation loss are
  /// restored after training (requires a non-empty validation set).
  bool select_best_epoch = false;
  /// Optional progress observer, invoked after every epoch in addition to
  /// the `on_epoch` argument of train_classifier. Lives on the config so it
  /// survives the trip through PipelineConfig / ParallelAdvisor::train.
  std::function<void(const struct EpochCurve&)> on_epoch = nullptr;
  /// Crash-safe checkpointing (clpp::resil). When `checkpoint_dir` is empty
  /// it falls back to CLPP_CKPT_DIR; still empty disables checkpointing.
  /// `checkpoint_every` saves every N batches (falls back to
  /// CLPP_CKPT_EVERY; 0 saves at epoch boundaries only). With `resume`, a
  /// valid checkpoint in the directory is restored and training continues
  /// bit-for-bit; a corrupt or incompatible one degrades to a fresh run
  /// with a structured warning (never an abort). A checkpoint that fails to
  /// *save* after retries logs a warning and training continues.
  std::string checkpoint_dir = {};
  std::size_t checkpoint_every = 0;
  bool resume = true;
};

/// Per-epoch statistics — exactly the series of Figures 3, 4, and 5.
struct EpochCurve {
  std::size_t epoch = 0;
  float train_loss = 0.0f;
  float val_loss = 0.0f;
  float val_accuracy = 0.0f;
  /// Wall-clock seconds this epoch took (batches + validation pass).
  double wall_seconds = 0.0;
};

/// Trains `model` on `train`, evaluating on `validation` each epoch.
/// `on_epoch` (optional) observes progress. Deterministic given `rng`.
///
/// With checkpointing configured (TrainConfig::checkpoint_dir or
/// CLPP_CKPT_DIR), a killed run resumed with the same model seed, data,
/// and config reproduces the uninterrupted run's final parameters and
/// EpochCurve metrics bit-for-bit (wall_seconds excepted — it measures the
/// actual wall time of each run). `rng` must be the same instance used to
/// construct `model` (dropout draws flow through it), as Pipeline does.
std::vector<EpochCurve> train_classifier(
    PragFormer& model, const EncodedDataset& train, const EncodedDataset& validation,
    const TrainConfig& config, Rng& rng,
    const std::function<void(const EpochCurve&)>& on_epoch = nullptr);

/// Loss + accuracy of `model` on a dataset (eval mode, batched).
std::pair<float, float> evaluate_loss_accuracy(const PragFormer& model,
                                               const EncodedDataset& dataset,
                                               std::size_t batch_size = kDefaultInferBatch);

/// P(positive) for every row of `dataset` (eval mode, batched).
std::vector<float> predict_dataset(const PragFormer& model, const EncodedDataset& dataset,
                                   std::size_t batch_size = kDefaultInferBatch);

/// Metrics of `model` on `dataset` at the 0.5 threshold.
BinaryMetrics evaluate_metrics(const PragFormer& model, const EncodedDataset& dataset,
                               std::size_t batch_size = kDefaultInferBatch);

}  // namespace clpp::core
