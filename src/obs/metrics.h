// Lock-cheap metrics: named counters, gauges, and fixed-bucket histograms.
//
// Thread-safety model: every counter/histogram keeps `kShards` cache-line
// padded slots; a thread records into the slot picked by its stable shard
// index, so `parallel_for` bodies on different threads almost never contend
// on a cache line. Reads merge the shards: exact for counters and
// histograms, last-writer-wins for gauges. Metric objects are created once
// per name and never destroyed while the registry lives, so hot paths may
// cache the returned reference (e.g. in a function-local static).
//
// Naming convention: `clpp.<subsystem>.<name>`, e.g. `clpp.train.loss`,
// `clpp.infer.latency_us`, `clpp.prof.gemm.calls`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace clpp {
class Json;  // support/json.h — needed only by snapshot/export code
}

namespace clpp::obs {

inline constexpr std::size_t kShards = 16;

namespace detail {

/// Stable per-thread shard slot in [0, kShards), assigned round-robin.
std::size_t assign_shard();

inline std::size_t shard_index() {
  thread_local const std::size_t idx = assign_shard();
  return idx;
}

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonic counter (`add` only). Recording is one relaxed fetch_add on
/// the calling thread's shard; disabled recording is one relaxed load.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  std::uint64_t value() const;

  /// Zeroes the counter (identity, and thus cached references, survive).
  void reset();

 private:
  std::array<detail::PaddedU64, kShards> shards_;
};

/// Last-writer-wins scalar (loss, learning rate, thread count, ...).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    set_count_.fetch_add(1, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Number of `set` calls observed (0 means the gauge was never written).
  std::uint64_t set_count() const { return set_count_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> set_count_{0};
};

/// Fixed-bucket histogram. Buckets are defined by ascending upper bounds;
/// one implicit overflow bucket catches everything above the last bound.
/// Defaults to `default_latency_buckets_us()` (1-2-5 ladder, microseconds).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v) {
    if (!enabled()) return;
    record_always(v);
  }
  /// Records regardless of the global flag (used internally and in tests).
  void record_always(double v);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  double mean() const;
  /// Bucket-interpolated quantile estimate, q in [0, 1].
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged counts, bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  struct Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> mn{std::numeric_limits<double>::infinity()};
    std::atomic<double> mx{-std::numeric_limits<double>::infinity()};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The 1-2-5 microsecond ladder from 1us to 1e7us (10s) used as the default
/// latency bucketing for `clpp.*.latency_us` histograms.
std::vector<double> default_latency_buckets_us();

/// Registry of named metrics. Lookup takes a mutex; hot paths should call
/// it once and cache the reference. `reset()` zeroes values but keeps every
/// metric object alive, so cached references never dangle.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is honored only by the call that creates the histogram;
  /// empty means `default_latency_buckets_us()`.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});

  /// Snapshot as JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, min, max, p50, p90, p95, p99}}}.
  Json to_json() const;

  /// ASCII summary (support/table.h), one table per metric kind.
  std::string summary() const;

  /// Zeroes every metric value in place.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry.
MetricsRegistry& metrics();

namespace detail {
void record_loop_slow(std::size_t items, int threads, bool parallel);
}  // namespace detail

/// parallel_for hooks (see support/parallel.h): dispatch counters plus an
/// OMP-aware `clpp.parallel.threads` utilization gauge. Inline-gated so the
/// disabled cost inside parallel_for is one relaxed load per loop launch.
inline void record_parallel_loop(std::size_t items, int threads) {
  if (!enabled()) return;
  detail::record_loop_slow(items, threads, true);
}
inline void record_serial_loop(std::size_t items) {
  if (!enabled()) return;
  detail::record_loop_slow(items, 1, false);
}

}  // namespace clpp::obs
