// InferenceServer: worker pool + dynamic micro-batching over a
// ParallelAdvisor (see serve.h for the scheduling model).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "insight/insight.h"
#include "obs/metrics.h"
#include "serve/queue.h"
#include "serve/serve.h"

namespace clpp {
class Json;  // support/json.h — needed only by stats_json callers
}

namespace clpp::serve {

/// Thread-safe serving front end. Every worker serves the one advisor
/// passed in: advising writes nothing, so the workers share it, and the
/// caller may keep advising on it too.
class InferenceServer {
 public:
  /// Keeps a reference to `advisor` — it must outlive the server and stay
  /// unmodified while the server runs.
  explicit InferenceServer(const core::ParallelAdvisor& advisor,
                           ServeConfig config = {});
  InferenceServer(core::ParallelAdvisor&&, ServeConfig = {}) = delete;
  /// Drains and joins (shutdown()) if the caller has not already.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one snippet; the future completes with all four task verdicts
  /// plus the request's timing breakdown (queue wait / batch / infer split
  /// and its trace id) once a worker serves the batch carrying it. Throws
  /// ServeOverload (kReject policy, queue full) or ServeShutdown (after
  /// shutdown). A worker-side failure (e.g. an injected fault) surfaces
  /// through the future instead.
  ///
  /// `deadline_ns` is an absolute steady-clock deadline (obs::Tracer::now_ns
  /// timebase; 0 = none): a request still queued past it is dropped at
  /// dequeue time and its future fails with ServeDeadline.
  std::future<ServedAdvice> submit(std::string code,
                                   std::uint64_t deadline_ns = 0);

  /// Graceful drain: stops accepting new requests, lets the workers serve
  /// everything already queued, joins them, and fails any request that no
  /// worker could drain (workers == 0) with ServeShutdown. Idempotent.
  void shutdown();

  /// Requests queued but not yet collected by a worker.
  std::size_t queue_depth() const { return queue_.depth(); }

  ServeStats stats() const;

  /// Live telemetry snapshot as JSON: counters, queue depth, coalesce rate,
  /// and streaming latency/queue-wait/infer/batch-size percentiles plus a
  /// per-task model-time block. Backed by always-on server-owned histograms
  /// (recorded regardless of CLPP_OBS), so the `{"cmd":"stats"}` admin verb
  /// works on an un-instrumented server. Safe to call concurrently with
  /// serving.
  Json stats_json() const;

  /// Model-quality snapshot (`clpp.insight.v1`): per-task confidence
  /// histograms, online ECE against the dependence engine's exact verdicts,
  /// analyzer-vs-model disagreement counts, and the drift score of recent
  /// traffic against the advisor's training fingerprint. Backs the
  /// `{"cmd":"quality"}` admin verb. Safe to call concurrently.
  Json quality_json() const;

  /// Direct access for tests and loadgen reporting.
  const insight::InsightTracker& insight() const { return insight_; }

  const ServeConfig& config() const { return config_; }

 private:
  void worker_loop();
  /// Answers or fails every request of `batch`. After a `ParseError` the
  /// requests that do not tokenize fail alone and the rest are answered as
  /// one batch; any other failure fails the whole batch.
  void serve_batch(std::vector<PendingRequest>& batch);
  /// One advise_batch pass: records its telemetry and resolves every
  /// future, or throws with none resolved.
  void answer_batch(std::vector<PendingRequest>& batch);
  void fail_batch(std::vector<PendingRequest>& batch, std::exception_ptr error);

  const core::ParallelAdvisor& advisor_;
  ServeConfig config_;
  RequestQueue queue_;
  /// Result cache (config_.cache; off by default): submit() answers hits
  /// synchronously, serve_batch() inserts each distinct snippet it served.
  cache::ShardedLruCache<core::Advice> result_cache_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mu_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_rows_{0};
  std::atomic<std::uint64_t> coalesced_{0};

  // Always-on streaming telemetry (record_always — independent of the
  // global CLPP_OBS gate), owned by the server so stats_json() reflects
  // this server instance rather than process-global registry state.
  obs::Histogram latency_us_;     // submit → verdict, per request
  obs::Histogram queue_wait_us_;  // submit → batch collection, per request
  obs::Histogram infer_us_;       // model-forward share, per batch
  obs::Histogram batch_size_;     // rows per inference pass
  obs::Histogram directive_us_;   // per-batch task-model time splits
  obs::Histogram private_us_;
  obs::Histogram reduction_us_;
  obs::Histogram schedule_us_;

  // Model-quality telemetry: calibration, disagreement, drift. Armed with
  // the advisor's training fingerprint at construction when one exists.
  insight::InsightTracker insight_;
};

}  // namespace clpp::serve
