#include "serve/server.h"

#include <exception>
#include <utility>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "resil/fault.h"
#include "support/json.h"
#include "tokenize/representation.h"

namespace clpp::serve {

namespace {

/// Batch-size buckets: powers of two up to 512 rows.
std::vector<double> batch_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}

obs::Gauge& depth_gauge() {
  static obs::Gauge& gauge = obs::metrics().gauge("clpp.serve.queue_depth");
  return gauge;
}

/// Streaming percentile snapshot of one histogram for stats_json(). Empty
/// histograms report zeros (their min/max sentinels are non-finite and
/// would not round-trip through JSON).
Json hist_block(const obs::Histogram& hist) {
  Json block = Json::object();
  const std::uint64_t count = hist.count();
  block["count"] = static_cast<std::int64_t>(count);
  block["mean"] = count > 0 ? hist.mean() : 0.0;
  block["p50"] = count > 0 ? hist.quantile(0.50) : 0.0;
  block["p95"] = count > 0 ? hist.quantile(0.95) : 0.0;
  block["p99"] = count > 0 ? hist.quantile(0.99) : 0.0;
  block["max"] = count > 0 ? hist.max() : 0.0;
  return block;
}

}  // namespace

InferenceServer::InferenceServer(const core::ParallelAdvisor& advisor,
                                 ServeConfig config)
    : advisor_(advisor),
      config_(std::move(config)),
      queue_(config_.queue_capacity, config_.overflow),
      result_cache_("serve", config_.cache),
      latency_us_(obs::default_latency_buckets_us()),
      queue_wait_us_(obs::default_latency_buckets_us()),
      infer_us_(obs::default_latency_buckets_us()),
      batch_size_(batch_size_bounds()),
      directive_us_(obs::default_latency_buckets_us()),
      private_us_(obs::default_latency_buckets_us()),
      reduction_us_(obs::default_latency_buckets_us()),
      schedule_us_(obs::default_latency_buckets_us()) {
  config_.validate();
  if (!advisor.fingerprint().empty())
    insight_.set_reference(advisor.fingerprint());
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

InferenceServer::~InferenceServer() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw; shutdown failures already surfaced
    // through the request futures.
  }
}

std::future<ServedAdvice> InferenceServer::submit(std::string code,
                                                  std::uint64_t deadline_ns) {
  if (stopped_.load(std::memory_order_acquire))
    throw ServeShutdown("InferenceServer::submit after shutdown");
  resil::fault_point("serve.enqueue");
  if (config_.cache.enabled()) {
    // A digest hit resolves the future right here: no queue slot, no batch
    // slot, no forward pass. Correct because advice is a pure function of
    // the code text and the advisor is immutable once serving starts
    // (DESIGN.md §13) — a cached verdict is bitwise-identical to a fresh one.
    core::Advice advice;
    if (result_cache_.get(cache::snippet_digest(code), &advice)) {
      ServedAdvice served;
      served.advice = std::move(advice);
      served.timing.trace_id = obs::TraceContext::mint().trace_id;
      served.timing.cached = true;
      submitted_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      latency_us_.record_always(0.0);
      obs::flight_record("serve.cache_hit",
                         static_cast<std::int64_t>(served.timing.trace_id));
      std::promise<ServedAdvice> ready;
      std::future<ServedAdvice> future = ready.get_future();
      ready.set_value(std::move(served));
      return future;
    }
  }
  PendingRequest request;
  request.code = std::move(code);
  request.deadline_ns = deadline_ns;
  // Mint the request's trace context unconditionally: the trace id rides
  // back in the response (and tags flight-recorder events) even when span
  // tracing is off. Minting is a wait-free counter mix, ~free.
  request.trace = obs::TraceContext::mint();
  request.enqueue_ns = obs::Tracer::now_ns();
  const std::uint64_t trace_id = request.trace.trace_id;
  const std::uint64_t enqueue_ns = request.enqueue_ns;
  std::future<ServedAdvice> future = request.result.get_future();
  obs::flight_record("serve.submit", static_cast<std::int64_t>(trace_id),
                     static_cast<std::int64_t>(queue_.depth()));
  if (!queue_.push(std::move(request))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::flight_record("serve.reject", static_cast<std::int64_t>(trace_id));
    if (obs::enabled())
      obs::metrics().counter("clpp.serve.rejected").add(1);
    throw ServeOverload("serve queue full (" +
                        std::to_string(config_.queue_capacity) +
                        " requests) under kReject policy");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    // Flow start: the submit span on the client thread opens the request's
    // cross-thread lane; the worker's queue_wait/infer spans continue it.
    obs::Tracer::instance().record("serve.submit", enqueue_ns,
                                   obs::Tracer::now_ns(), obs::kNoArg,
                                   trace_id, obs::FlowPhase::kStart);
    obs::metrics().counter("clpp.serve.requests").add(1);
    depth_gauge().set(static_cast<double>(queue_.depth()));
  }
  return future;
}

void InferenceServer::worker_loop() {
  obs::Tracer::instance().set_thread_name("serve worker");
  for (;;) {
    std::vector<PendingRequest> batch =
        queue_.pop_batch(config_.max_batch, config_.max_delay_us);
    if (batch.empty()) return;  // queue closed and drained
    if (obs::enabled()) depth_gauge().set(static_cast<double>(queue_.depth()));
    serve_batch(batch);
  }
}

void InferenceServer::serve_batch(std::vector<PendingRequest>& batch) {
  CLPP_TRACE_SPAN_ARG("serve.batch", batch.size());
  obs::flight_record("serve.batch", static_cast<std::int64_t>(batch.size()),
                     static_cast<std::int64_t>(queue_.depth()));
  try {
    resil::fault_point("serve.batch");
    answer_batch(batch);
  } catch (const ParseError&) {
    // advise_batch tokenizes every snippet before its first forward pass,
    // so one unparseable snippet throws for all of its batchmates. Fail
    // each snippet that does not tokenize on its own with its own error,
    // and answer the rest as one batch, so their batching and coalescing
    // survive; no verdict depends on its batchmates.
    std::vector<PendingRequest> tokenized;
    for (PendingRequest& request : batch) {
      try {
        tokenize::tokenize(request.code, advisor_.representation());
        tokenized.push_back(std::move(request));
      } catch (const ParseError&) {
        std::vector<PendingRequest> one;
        one.push_back(std::move(request));
        fail_batch(one, std::current_exception());
      }
    }
    if (tokenized.empty()) return;
    try {
      answer_batch(tokenized);
    } catch (...) {
      fail_batch(tokenized, std::current_exception());
    }
  } catch (...) {
    // Any other failure (an injected fault, OOM) fails exactly the
    // requests of this batch; the worker and every other request keep
    // going.
    fail_batch(batch, std::current_exception());
  }
}

void InferenceServer::answer_batch(std::vector<PendingRequest>& batch) {
  const std::uint64_t start_ns = obs::Tracer::now_ns();
  std::vector<std::string> codes;
  codes.reserve(batch.size());
  for (const PendingRequest& request : batch) codes.push_back(request.code);
  core::BatchTiming timing;
  std::vector<core::Advice> advices =
      advisor_.advise_batch(codes, config_.options, &timing);
  const std::uint64_t coalesced = timing.coalesced;

  const std::uint64_t end_ns = obs::Tracer::now_ns();
  const std::uint64_t batch_us = (end_ns - start_ns) / 1000;
  const std::uint64_t infer_us = timing.infer_ns() / 1000;

  // Always-on server-owned telemetry (record_always — independent of the
  // CLPP_OBS gate), feeding stats_json()'s streaming percentiles.
  batch_size_.record_always(static_cast<double>(batch.size()));
  infer_us_.record_always(static_cast<double>(timing.infer_ns()) / 1e3);
  directive_us_.record_always(static_cast<double>(timing.directive_ns) / 1e3);
  private_us_.record_always(static_cast<double>(timing.private_ns) / 1e3);
  reduction_us_.record_always(static_cast<double>(timing.reduction_ns) / 1e3);
  schedule_us_.record_always(static_cast<double>(timing.schedule_ns) / 1e3);
  for (const PendingRequest& request : batch) {
    queue_wait_us_.record_always(
        static_cast<double>(start_ns - request.enqueue_ns) / 1e3);
    latency_us_.record_always(
        static_cast<double>(end_ns - request.enqueue_ns) / 1e3);
  }

  if (obs::enabled()) {
    static obs::Histogram& batch_hist =
        obs::metrics().histogram("clpp.serve.batch_size", batch_size_bounds());
    static obs::Histogram& wait_hist =
        obs::metrics().histogram("clpp.serve.queue_wait_us");
    static obs::Histogram& latency_hist =
        obs::metrics().histogram("clpp.serve.latency_us");
    batch_hist.record(static_cast<double>(batch.size()));
    obs::Tracer& tracer = obs::Tracer::instance();
    for (const PendingRequest& request : batch) {
      wait_hist.record(static_cast<double>(start_ns - request.enqueue_ns) / 1e3);
      latency_hist.record(static_cast<double>(end_ns - request.enqueue_ns) / 1e3);
      // Continue + terminate each request's flow lane on the worker
      // thread: the queue-wait span (enqueue → collection) steps the
      // flow, the infer span (collection → verdict) ends it. Perfetto
      // then draws one connected arrow chain per request across the
      // client and worker tracks.
      tracer.record("serve.queue_wait", request.enqueue_ns, start_ns,
                    obs::kNoArg, request.trace.trace_id,
                    obs::FlowPhase::kStep);
      tracer.record("serve.infer", start_ns, end_ns, obs::kNoArg,
                    request.trace.trace_id, obs::FlowPhase::kEnd);
    }
    obs::metrics().counter("clpp.serve.batches").add(1);
    if (coalesced > 0)
      obs::metrics().counter("clpp.serve.coalesced").add(coalesced);
  }
  // Model-quality telemetry: every request position (coalesced duplicates
  // included — quality is a property of the traffic, not of distinct
  // snippets). The dangerous direction — model advises parallelizing a
  // loop the engine proved dependent — is flight-recorded with the
  // request's trace id so a dump shows which request tripped it.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    insight::VerdictSample sample;
    sample.p_directive = advices[i].p_directive;
    sample.p_private = advices[i].p_private;
    sample.p_reduction = advices[i].p_reduction;
    sample.p_dynamic = advices[i].p_dynamic;
    sample.positive = advices[i].needs_directive;
    sample.clauses_scored = advices[i].needs_directive;
    sample.proof = advices[i].proof;
    const insight::DisagreementKind kind =
        insight_.observe(batch[i].code, sample);
    if (kind == insight::DisagreementKind::kModelParallelProofDependent)
      obs::flight_record("insight.disagree",
                         static_cast<std::int64_t>(batch[i].trace.trace_id));
  }

  // Populate the result cache before the promises resolve: a client that
  // immediately re-sends the snippet it was just answered must hit. One
  // insert per *distinct* snippet (coalesced rows share their twin's
  // entry); duplicate inserts across racing workers refresh in place.
  if (config_.cache.enabled()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (timing.coalesced_of[i] != 0) continue;
      const std::size_t bytes = sizeof(core::Advice) +
                                advices[i].suggestion.size() +
                                advices[i].compar_suggestion.size();
      result_cache_.put(cache::snippet_digest(batch[i].code), advices[i],
                        bytes);
    }
  }

  // Counters first, promises second: a caller woken by its future must
  // already see this batch reflected in stats().
  completed_.fetch_add(batch.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_rows_.fetch_add(batch.size(), std::memory_order_relaxed);
  coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServedAdvice served;
    served.advice = std::move(advices[i]);
    served.timing.trace_id = batch[i].trace.trace_id;
    served.timing.queue_us = (start_ns - batch[i].enqueue_ns) / 1000;
    served.timing.batch_us = batch_us;
    served.timing.infer_us = infer_us;
    served.timing.coalesced = timing.coalesced_of[i] != 0;
    batch[i].result.set_value(std::move(served));
  }
}

void InferenceServer::fail_batch(std::vector<PendingRequest>& batch,
                                 std::exception_ptr error) {
  obs::flight_record("serve.batch_fail",
                     static_cast<std::int64_t>(batch.size()));
  failed_.fetch_add(batch.size(), std::memory_order_relaxed);
  for (PendingRequest& request : batch) request.result.set_exception(error);
  if (obs::enabled())
    obs::metrics().counter("clpp.serve.batch_failures").add(1);
  if (obs::log_enabled(obs::LogLevel::kWarn)) {
    Json fields = Json::object();
    fields["requests"] = static_cast<std::int64_t>(batch.size());
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      fields["error"] = std::string(e.what());
    } catch (...) {
      fields["error"] = std::string("unknown exception");
    }
    obs::log_warn("serve", "batch failed; futures carry the error",
                  std::move(fields));
  }
}

void InferenceServer::shutdown() {
  std::lock_guard lock(shutdown_mu_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // With zero workers (or a worker that died on a non-exception path)
  // requests may still sit in the queue; fail their futures explicitly so
  // no caller blocks forever on an abandoned promise.
  std::vector<PendingRequest> leftovers = queue_.take_remaining();
  if (!leftovers.empty()) {
    const auto error = std::make_exception_ptr(
        ServeShutdown("server shut down before this request was served"));
    for (PendingRequest& request : leftovers) request.result.set_exception(error);
    failed_.fetch_add(leftovers.size(), std::memory_order_relaxed);
  }
  if (obs::enabled()) depth_gauge().set(0.0);
}

ServeStats InferenceServer::stats() const {
  ServeStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batch_rows = batch_rows_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.deadline_dropped = queue_.deadline_dropped();
  stats.cache_hits = result_cache_.stats().hits;
  return stats;
}

Json InferenceServer::stats_json() const {
  const ServeStats snapshot = stats();
  Json out = Json::object();
  out["schema"] = "clpp.serve_stats.v1";
  out["queue_depth"] = static_cast<std::int64_t>(queue_.depth());
  out["workers"] = static_cast<std::int64_t>(config_.workers);
  out["max_batch"] = static_cast<std::int64_t>(config_.max_batch);
  out["max_delay_us"] = static_cast<std::int64_t>(config_.max_delay_us);
  out["submitted"] = static_cast<std::int64_t>(snapshot.submitted);
  out["rejected"] = static_cast<std::int64_t>(snapshot.rejected);
  out["completed"] = static_cast<std::int64_t>(snapshot.completed);
  out["failed"] = static_cast<std::int64_t>(snapshot.failed);
  out["batches"] = static_cast<std::int64_t>(snapshot.batches);
  out["batch_rows"] = static_cast<std::int64_t>(snapshot.batch_rows);
  out["coalesced"] = static_cast<std::int64_t>(snapshot.coalesced);
  out["deadline_dropped"] = static_cast<std::int64_t>(snapshot.deadline_dropped);
  out["coalesce_rate"] =
      snapshot.batch_rows > 0
          ? static_cast<double>(snapshot.coalesced) /
                static_cast<double>(snapshot.batch_rows)
          : 0.0;
  out["mean_batch_rows"] = snapshot.mean_batch_rows();
  out["cache"] = result_cache_.stats_json();
  out["latency_us"] = hist_block(latency_us_);
  out["queue_wait_us"] = hist_block(queue_wait_us_);
  out["infer_us"] = hist_block(infer_us_);
  out["batch_size"] = hist_block(batch_size_);
  Json tasks = Json::object();
  tasks["directive_us"] = hist_block(directive_us_);
  tasks["private_us"] = hist_block(private_us_);
  tasks["reduction_us"] = hist_block(reduction_us_);
  tasks["schedule_us"] = hist_block(schedule_us_);
  out["tasks"] = std::move(tasks);
  return out;
}

Json InferenceServer::quality_json() const { return insight_.quality_json(); }

}  // namespace clpp::serve
