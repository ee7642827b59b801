// clpp::serve — dynamic micro-batching inference serving for the
// ParallelAdvisor (the "continuous batching" lever of Orca/vLLM-style
// serving schedulers, applied to PragFormer's four task models).
//
// The flow: callers `submit()` snippets into a bounded thread-safe queue;
// worker threads collect up to `max_batch` requests or wait at most
// `max_delay_us` after the first pending request (whichever comes first),
// then run one batched `advise_batch` over the collected snippets —
// duplicate snippets coalesced into one forward, the rest bucketed by exact
// encoded length so no FLOPs are spent on padding, and every verdict bitwise
// identical to single-request inference — and complete the per-request
// futures with all four task verdicts.
//
// Backpressure: when the queue is full, `submit` either blocks until space
// frees up (OverflowPolicy::kBlock, the default) or fails fast with
// ServeOverload (kReject). `shutdown()` stops accepting work, drains every
// queued request through the workers, and joins them; requests that can no
// longer be served (no workers configured) fail with ServeShutdown rather
// than abandoning their futures.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cache/cache.h"
#include "core/advisor.h"
#include "core/trainer.h"
#include "support/error.h"

namespace clpp::serve {

/// What `submit` does when the request queue is at capacity.
enum class OverflowPolicy {
  kBlock,   ///< block the caller until a worker frees queue space
  kReject,  ///< fail fast with ServeOverload (load-shedding)
};

/// Thrown by `submit` under OverflowPolicy::kReject when the queue is full.
class ServeOverload : public Error {
 public:
  explicit ServeOverload(const std::string& what) : Error(what) {}
};

/// Thrown by `submit` after shutdown, and set on futures whose requests
/// could not be drained.
class ServeShutdown : public Error {
 public:
  explicit ServeShutdown(const std::string& what) : Error(what) {}
};

/// Set on futures of requests whose deadline expired while they were still
/// queued: the scheduler drops them at dequeue time instead of spending a
/// batch slot on an answer nobody is waiting for.
class ServeDeadline : public Error {
 public:
  explicit ServeDeadline(const std::string& what) : Error(what) {}
};

/// Scheduler knobs. Defaults favour throughput at interactive latency.
struct ServeConfig {
  /// Largest batch one worker collects per inference pass. Shares
  /// `core::kDefaultInferBatch` with the trainer's eval/predict helpers so
  /// the inference batch size is tuned in exactly one place.
  std::size_t max_batch = core::kDefaultInferBatch;
  /// Longest a collected batch waits for company, measured from the moment
  /// the first request of the batch became visible to the worker. 0 means
  /// "serve whatever is there immediately".
  std::uint64_t max_delay_us = 2000;
  /// Bounded-queue capacity; beyond it `overflow` applies.
  std::size_t queue_capacity = 1024;
  /// Worker threads, all serving the server's one advisor. 0 is accepted
  /// (requests queue up but are never served — useful for deterministic
  /// backpressure tests) — shutdown then fails the queued futures.
  std::size_t workers = 1;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Forwarded to `ParallelAdvisor::advise_batch` for every served batch.
  core::AdviseOptions options{};
  /// Result cache keyed by canonical snippet digest (DESIGN.md §13):
  /// `submit` answers a repeated snippet from the cache without spending a
  /// queue slot or a forward pass. Off by default (max_entries == 0) so the
  /// batching/coalescing pipeline stays byte-for-byte unchanged unless a
  /// caller opts in (clpp-serve wires `--cache-cap`).
  cache::CacheConfig cache{};

  /// Throws InvalidArgument on nonsensical settings.
  void validate() const;
};

/// Where one served request spent its life, measured on the serve path and
/// returned with every response (so a client can see "was I queued, batched,
/// or slow to infer?" without server-side log spelunking).
struct RequestTiming {
  /// Request-scoped trace id minted at submit(); the same id tags the
  /// request's spans in the Chrome trace (flow events), so a slow response
  /// can be looked up in the timeline by this value.
  std::uint64_t trace_id = 0;
  /// submit() to the moment a worker collected the request into a batch.
  std::uint64_t queue_us = 0;
  /// Batch collection to verdicts ready (the whole serve_batch pass the
  /// request rode in, including encode + extras).
  std::uint64_t batch_us = 0;
  /// Model-forward share of batch_us (all task models, whole batch).
  std::uint64_t infer_us = 0;
  /// True when this request re-used a batchmate's verdict instead of its
  /// own forward pass (duplicate snippet coalescing).
  bool coalesced = false;
  /// True when this request was answered from the result cache (a snippet
  /// served earlier — possibly on another connection) without queueing.
  /// queue_us/batch_us/infer_us are then 0: no serve-path work happened.
  bool cached = false;
};

/// What `InferenceServer::submit` futures resolve to: the verdict plus the
/// request's timing breakdown.
struct ServedAdvice {
  core::Advice advice;
  RequestTiming timing;
};

/// Monotonic counters snapshot (see InferenceServer::stats).
struct ServeStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t rejected = 0;   ///< refused by kReject backpressure
  std::uint64_t completed = 0;  ///< futures fulfilled with an Advice
  std::uint64_t failed = 0;     ///< futures failed with an exception
  std::uint64_t batches = 0;    ///< inference passes run
  std::uint64_t batch_rows = 0; ///< total requests across those passes
  /// Requests served by copying a batchmate's verdict instead of their own
  /// forward pass: `advise_batch` runs each *distinct* snippet of a batch
  /// once (advice is a pure function of the code text).
  std::uint64_t coalesced = 0;
  /// Requests whose deadline expired while queued, dropped at dequeue time
  /// (their futures fail with ServeDeadline; counted separately from
  /// `failed`, which covers inference errors).
  std::uint64_t deadline_dropped = 0;
  /// Requests answered from the result cache (counted under `submitted`
  /// and `completed` too — a cache hit is still a served request).
  std::uint64_t cache_hits = 0;

  /// Average rows per inference pass (0 when no batch ran yet).
  double mean_batch_rows() const;
};

}  // namespace clpp::serve
