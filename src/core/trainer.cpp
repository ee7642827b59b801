#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "core/resume.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/counters.h"
#include "resil/resil.h"
#include "support/stopwatch.h"
#include "tensor/ops.h"

namespace clpp::core {

std::vector<EpochCurve> train_classifier(
    PragFormer& model, const EncodedDataset& train, const EncodedDataset& validation,
    const TrainConfig& config, Rng& rng,
    const std::function<void(const EpochCurve&)>& on_epoch) {
  CLPP_CHECK_MSG(train.size() > 0, "empty training set");
  CLPP_CHECK_MSG(config.epochs > 0 && config.batch_size > 0, "bad train config");

  const std::size_t max_seq = model.config().encoder.max_seq;
  std::vector<nn::Parameter*> params = model.parameters();
  nn::AdamW optimizer(nn::AdamWConfig{.lr = config.lr});

  const std::size_t steps_per_epoch =
      (train.size() + config.batch_size - 1) / config.batch_size;
  const std::size_t total_steps = steps_per_epoch * config.epochs;
  const std::size_t warmup =
      static_cast<std::size_t>(config.warmup_fraction * total_steps);
  const nn::WarmupLinearSchedule schedule(config.lr, warmup,
                                          std::max<std::size_t>(total_steps, warmup + 1));

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochCurve> curves;
  std::map<std::string, Tensor> best_snapshot;
  float best_val_loss = std::numeric_limits<float>::infinity();
  std::size_t step = 0;

  // Crash-safe checkpointing (clpp::resil): resolve config with CLPP_CKPT_*
  // fallbacks, then restore a prior run's state when one is available.
  const std::string ckpt_dir = !config.checkpoint_dir.empty()
                                   ? config.checkpoint_dir
                                   : resil::checkpoint_dir_from_env();
  const std::size_t ckpt_every = config.checkpoint_every != 0
                                     ? config.checkpoint_every
                                     : resil::checkpoint_every_from_env();
  const bool ckpt_on = !ckpt_dir.empty();
  const std::string ckpt_path = ckpt_on ? trainer_checkpoint_path(ckpt_dir) : "";

  std::size_t start_epoch = 0;
  std::size_t resume_start = 0;
  std::size_t resume_batches = 0;
  double resume_loss_sum = 0.0;
  bool resume_mid_epoch = false;
  if (ckpt_on && config.resume && resil::file_exists(ckpt_path)) {
    try {
      TrainerCheckpoint ck = load_trainer_checkpoint(ckpt_path);
      // Validate everything before mutating any training state, so a bad
      // checkpoint degrades to a clean fresh start.
      if (ck.order.size() != train.size())
        throw ParseError("trainer checkpoint row count " +
                         std::to_string(ck.order.size()) + " != dataset size " +
                         std::to_string(train.size()));
      if (ck.epoch > config.epochs)
        throw ParseError("trainer checkpoint epoch " + std::to_string(ck.epoch) +
                         " beyond configured " + std::to_string(config.epochs));
      for (const nn::Parameter* p : params) {
        const auto it = ck.params.find(p->name);
        if (it == ck.params.end())
          throw ParseError("trainer checkpoint missing parameter: " + p->name);
        if (it->second.shape() != p->value.shape())
          throw ParseError("trainer checkpoint shape mismatch for " + p->name);
      }
      optimizer.restore_state(ck.opt_steps, std::move(ck.opt_m), std::move(ck.opt_v),
                              params);
      nn::restore_parameters(ck.params, params, /*strict=*/true);
      rng.set_state(ck.rng_state);
      for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<std::size_t>(ck.order[i]);
      curves = std::move(ck.curves);
      best_val_loss = ck.best_val_loss;
      best_snapshot = std::move(ck.best_snapshot);
      step = static_cast<std::size_t>(ck.step);
      start_epoch = static_cast<std::size_t>(ck.epoch);
      resume_start = static_cast<std::size_t>(ck.next_start);
      resume_batches = static_cast<std::size_t>(ck.batches);
      resume_loss_sum = ck.loss_sum;
      resume_mid_epoch = resume_start > 0 || resume_batches > 0;
      obs::metrics().counter("clpp.resil.ckpt_resumes").add(1);
      if (obs::log_enabled(obs::LogLevel::kInfo)) {
        Json fields = Json::object();
        fields["path"] = ckpt_path;
        fields["epoch"] = static_cast<std::int64_t>(start_epoch);
        fields["next_start"] = static_cast<std::int64_t>(resume_start);
        fields["step"] = static_cast<std::int64_t>(step);
        obs::log_info("trainer", "resumed from checkpoint", std::move(fields));
      }
    } catch (const Error& e) {
      obs::metrics().counter("clpp.resil.degraded_loads").add(1);
      Json fields = Json::object();
      fields["path"] = ckpt_path;
      fields["error"] = e.what();
      obs::log_warn("trainer", "checkpoint unusable; starting fresh",
                    std::move(fields));
    }
  }

  // Snapshots the complete run state and writes it atomically; a failed
  // save is a warning, not a training abort (graceful degradation).
  const auto save_state = [&](std::uint64_t at_epoch, std::uint64_t next_start,
                              std::uint64_t done_batches, double loss_sum) {
    TrainerCheckpoint ck;
    ck.epoch = at_epoch;
    ck.next_start = next_start;
    ck.step = step;
    ck.batches = done_batches;
    ck.loss_sum = loss_sum;
    ck.rng_state = rng.state();
    ck.order.assign(order.begin(), order.end());
    ck.curves = curves;
    ck.best_val_loss = best_val_loss;
    ck.best_snapshot = best_snapshot;
    for (const nn::Parameter* p : params) ck.params.emplace(p->name, p->value);
    ck.opt_steps = optimizer.steps_taken();
    ck.opt_m = optimizer.first_moments();
    ck.opt_v = optimizer.second_moments();
    try {
      save_trainer_checkpoint(ckpt_path, ck);
    } catch (const Error& e) {
      obs::metrics().counter("clpp.resil.ckpt_save_failures").add(1);
      Json fields = Json::object();
      fields["path"] = ckpt_path;
      fields["error"] = e.what();
      obs::log_warn("trainer", "checkpoint save failed; continuing",
                    std::move(fields));
    }
  };

  obs::Gauge& loss_gauge = obs::metrics().gauge("clpp.train.loss");
  obs::Gauge& lr_gauge = obs::metrics().gauge("clpp.train.lr");
  obs::Gauge& grad_norm_gauge = obs::metrics().gauge("clpp.train.grad_norm");
  obs::Counter& batch_counter = obs::metrics().counter("clpp.train.batches");
  obs::Counter& epoch_counter = obs::metrics().counter("clpp.train.epochs");
  for (std::size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    CLPP_TRACE_SPAN_ARG("train.epoch", epoch);
    // Hardware (or software-fallback) counters over the whole epoch; the
    // delta lands in clpp.prof.train.epoch.* and the per-epoch log line.
    prof::ScopedCounters epoch_prof(prof::counter_set("train.epoch"));
    const Stopwatch epoch_clock;
    // A mid-epoch resume keeps the checkpointed shuffle (the RNG stream was
    // captured *after* it); every other epoch shuffles as usual.
    const bool resumed_epoch = resume_mid_epoch && epoch == start_epoch;
    if (!resumed_epoch) rng.shuffle(order);
    double loss_sum = resumed_epoch ? resume_loss_sum : 0.0;
    std::size_t batches = resumed_epoch ? resume_batches : 0;
    for (std::size_t start = resumed_epoch ? resume_start : 0; start < order.size();
         start += config.batch_size) {
      CLPP_TRACE_SPAN_ARG("train.batch", batches);
      resil::fault_point("train.batch");
      const std::size_t count = std::min(config.batch_size, order.size() - start);
      const std::span<const std::size_t> idx{order.data() + start, count};
      const nn::TokenBatch batch = pack_batch(train, idx, max_seq);
      const std::vector<std::int32_t> labels = batch_labels(train, idx);

      nn::zero_gradients(params);
      Tensor out = model.logits(batch, /*train=*/true);
      nn::SoftmaxCrossEntropy loss;
      const float batch_loss = loss.forward(out, labels);
      loss_sum += batch_loss;
      ++batches;
      model.backward(loss.backward());
      const double grad_norm = nn::clip_gradient_norm(params, config.clip_norm);
      const float lr = schedule.lr_at(step++);
      optimizer.set_learning_rate(lr);
      optimizer.step(params);

      loss_gauge.set(batch_loss);
      lr_gauge.set(lr);
      grad_norm_gauge.set(grad_norm);
      batch_counter.add(1);
      if (ckpt_on && ckpt_every != 0 && batches % ckpt_every == 0)
        save_state(epoch, start + config.batch_size, batches, loss_sum);
    }
    epoch_counter.add(1);

    EpochCurve curve;
    curve.epoch = epoch;
    curve.train_loss = batches ? static_cast<float>(loss_sum / batches) : 0.0f;
    if (validation.size() > 0) {
      const auto [vloss, vacc] = evaluate_loss_accuracy(model, validation);
      curve.val_loss = vloss;
      curve.val_accuracy = vacc;
    }
    curve.wall_seconds = epoch_clock.seconds();
    curves.push_back(curve);
    if (obs::log_enabled(obs::LogLevel::kInfo)) {
      Json fields = Json::object();
      fields["epoch"] = curve.epoch;
      fields["train_loss"] = curve.train_loss;
      fields["val_loss"] = curve.val_loss;
      fields["val_accuracy"] = curve.val_accuracy;
      fields["wall_seconds"] = curve.wall_seconds;
      if (epoch_prof.active()) {
        const prof::CounterSample d = epoch_prof.delta();
        fields["hw_counters"] = d.hardware;
        if (d.hardware) {
          fields["cycles"] = static_cast<std::int64_t>(d.cycles);
          fields["instructions"] = static_cast<std::int64_t>(d.instructions);
          fields["ipc"] = d.ipc();
          fields["cache_miss_rate"] = d.cache_miss_rate();
        }
        fields["cpu_utilization"] = d.cpu_utilization();
      }
      obs::log_info("trainer", "epoch done", std::move(fields));
    }
    if (config.on_epoch) config.on_epoch(curve);
    if (on_epoch) on_epoch(curve);

    if (config.select_best_epoch && validation.size() > 0 &&
        curve.val_loss < best_val_loss) {
      best_val_loss = curve.val_loss;
      best_snapshot.clear();
      for (const nn::Parameter* p : params) best_snapshot.emplace(p->name, p->value);
    }
    if (ckpt_on) save_state(epoch + 1, 0, 0, 0.0);
  }
  if (config.select_best_epoch && !best_snapshot.empty())
    nn::restore_parameters(best_snapshot, params, /*strict=*/true);
  return curves;
}

std::pair<float, float> evaluate_loss_accuracy(const PragFormer& model,
                                               const EncodedDataset& dataset,
                                               std::size_t batch_size) {
  CLPP_CHECK(dataset.size() > 0);
  CLPP_TRACE_SPAN("train.evaluate");
  const std::size_t max_seq = model.config().encoder.max_seq;
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  double loss_sum = 0.0;
  std::size_t batches = 0;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < order.size(); start += batch_size) {
    const std::size_t count = std::min(batch_size, order.size() - start);
    const std::span<const std::size_t> idx{order.data() + start, count};
    const nn::TokenBatch batch = pack_batch(dataset, idx, max_seq);
    const std::vector<std::int32_t> labels = batch_labels(dataset, idx);
    Tensor out = model.logits(batch, /*train=*/false);
    nn::SoftmaxCrossEntropy loss;
    loss_sum += loss.forward(out, labels);
    ++batches;
    const auto probs = nn::positive_probabilities(out);
    for (std::size_t i = 0; i < probs.size(); ++i)
      correct += (probs[i] > 0.5f) == (labels[i] != 0);
  }
  return {static_cast<float>(loss_sum / batches),
          static_cast<float>(correct) / static_cast<float>(dataset.size())};
}

std::vector<float> predict_dataset(const PragFormer& model, const EncodedDataset& dataset,
                                   std::size_t batch_size) {
  CLPP_CHECK_MSG(dataset.size() > 0,
                 "predict_dataset: empty dataset (no rows to score)");
  const std::size_t max_seq = model.config().encoder.max_seq;
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<float> out;
  out.reserve(dataset.size());
  for (std::size_t start = 0; start < order.size(); start += batch_size) {
    const std::size_t count = std::min(batch_size, order.size() - start);
    const std::span<const std::size_t> idx{order.data() + start, count};
    const nn::TokenBatch batch = pack_batch(dataset, idx, max_seq);
    for (float p : model.predict_proba(batch)) out.push_back(p);
  }
  return out;
}

BinaryMetrics evaluate_metrics(const PragFormer& model, const EncodedDataset& dataset,
                               std::size_t batch_size) {
  CLPP_CHECK_MSG(dataset.size() > 0,
                 "evaluate_metrics: empty dataset (metrics would divide by zero)");
  const std::vector<float> probs = predict_dataset(model, dataset, batch_size);
  return compute_metrics_proba(probs, dataset.labels);
}

}  // namespace clpp::core
