// Scoped-span tracer with per-thread ring buffers and Chrome trace export.
//
// Usage in instrumented code:
//
//   void gemm(...) {
//     CLPP_TRACE_SPAN("gemm");          // RAII span, ~2 clock reads when on
//     ...
//   }
//
// Spans record (name, thread, begin, end) as Chrome `trace_event` complete
// events ("ph":"X"); `Tracer::chrome_trace()` exports JSON loadable in
// chrome://tracing or https://ui.perfetto.dev, and `summary()` renders an
// aggregate per-span ASCII table (support/table.h). Each thread writes to
// its own fixed-capacity ring buffer, so recording never takes a lock; when
// a buffer wraps, the oldest events are overwritten and counted as dropped.
// Span names must be string literals (or otherwise outlive the tracer) —
// the ring buffer stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "obs/context.h"
#include "obs/obs.h"

namespace clpp {
class Json;  // support/json.h
}

namespace clpp::obs {

/// Sentinel for "span carries no argument".
inline constexpr std::int64_t kNoArg = std::numeric_limits<std::int64_t>::min();

class Tracer {
 public:
  /// The process-wide tracer.
  static Tracer& instance();

  /// Nanoseconds since the process trace epoch (steady clock).
  static std::uint64_t now_ns();

  /// Appends one complete event to the calling thread's ring buffer. A
  /// nonzero `flow_id` with a non-kNone `phase` additionally links the span
  /// into a cross-thread flow lane (Chrome "s"/"t"/"f" events sharing the
  /// id), the request-scoped causal linkage clpp::serve uses.
  void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::int64_t arg = kNoArg, std::uint64_t flow_id = 0,
              FlowPhase phase = FlowPhase::kNone);

  /// Chrome trace_event JSON document ({"traceEvents": [...]}) over every
  /// event currently held in the ring buffers.
  Json chrome_trace() const;

  /// Per-span aggregate table: count, total/mean/min/max milliseconds,
  /// sorted by total time descending.
  std::string summary() const;

  /// Total events ever recorded / overwritten by ring wrap-around.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Clears all buffered events and the recorded/dropped accounting. Each
  /// thread keeps its name.
  void reset();

  /// Ring capacity (events) given to each newly registered thread.
  void set_thread_capacity(std::size_t events);

  /// Names the calling thread in trace exports (Chrome `thread_name`
  /// metadata, so Perfetto timelines read "main" / "parallel_for worker"
  /// instead of bare tids). Registers the thread's buffer if needed. An
  /// unnamed thread exports as "main" (the main thread) or "thread-<tid>".
  void set_thread_name(std::string name);

  /// Monotonic counter bumped by every `reset` (used by callers caching
  /// per-thread state that a reset invalidates).
  std::uint64_t generation() const;

  struct Event {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::int64_t arg;
    std::uint64_t flow_id;  // 0 = span is not part of a request flow
    FlowPhase flow;
  };

 private:
  struct ThreadBuffer;

  Tracer();
  ThreadBuffer& buffer_for_this_thread();

  struct Impl;
  Impl* impl_;  // intentionally leaked: threads may outlive static teardown
};

/// RAII span: constructor samples the clock iff `obs::enabled()`, destructor
/// records the complete event. `arg` lands in the event's `args` object
/// (e.g. the epoch number).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t arg = kNoArg)
      : name_(name), arg_(arg),
        begin_(enabled() ? Tracer::now_ns() : kInactive) {}

  ~TraceSpan() {
    if (begin_ != kInactive)
      Tracer::instance().record(name_, begin_, Tracer::now_ns(), arg_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};
  const char* name_;
  std::int64_t arg_;
  std::uint64_t begin_;
};

/// Tags the calling thread as a `parallel_for` worker in trace exports.
/// Idempotent per tracer generation and cheap enough for loop prologues
/// (one atomic load once named). No-op when tracing is disabled.
void name_worker_thread();

}  // namespace clpp::obs

#define CLPP_OBS_CONCAT2(a, b) a##b
#define CLPP_OBS_CONCAT(a, b) CLPP_OBS_CONCAT2(a, b)

/// Scoped trace span; `name` must be a string literal.
#define CLPP_TRACE_SPAN(name) \
  ::clpp::obs::TraceSpan CLPP_OBS_CONCAT(clpp_trace_span_, __LINE__){name}

/// Scoped trace span carrying one integer argument (epoch, batch, size...).
#define CLPP_TRACE_SPAN_ARG(name, arg)                                  \
  ::clpp::obs::TraceSpan CLPP_OBS_CONCAT(clpp_trace_span_, __LINE__){   \
      name, static_cast<std::int64_t>(arg)}
