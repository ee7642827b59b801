// clpp::cache — bounded, sharded-lock LRU result cache (DESIGN.md §13).
//
// Serving advice is a pure function of the snippet text, so memoizing
// responses by canonical snippet digest (digest.h) is invalidation-free:
// an entry can only ever be stale if the model changes, and a model change
// means a new process (advisors are immutable once serving starts). The
// cache therefore needs no TTLs, no versioning, no invalidation protocol —
// only bounds.
//
// Concurrency: the key space is partitioned over `lock_shards` independent
// (mutex, LRU list, index) triples, so concurrent hits on different
// digests never contend. Each lock shard owns 1/Nth of the entry and byte
// budgets and evicts its own LRU tail; the worst-case over-admission vs a
// global LRU is one shard's share, which is noise at the configured sizes.
//
// Configuration: `CacheConfig` only, which reads no environment;
// clpp-serve's `--cache-cap N` sets `max_entries` (default 0, off).
//
// Telemetry: per-instance atomics feed stats()/stats_json() (always on),
// and `clpp.cache.<name>.{hits,misses,insertions,evictions}` counters plus
// a `clpp.cache.<name>.bytes` gauge mirror them into the global registry
// when CLPP_OBS is enabled.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/digest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/json.h"

namespace clpp::cache {

struct CacheConfig {
  /// Total entries across lock shards; 0 disables the cache entirely
  /// (get() always misses, put() is a no-op).
  std::size_t max_entries = 0;
  /// Total value-byte budget across lock shards (keys + bookkeeping not
  /// counted); 0 = bounded by entries only.
  std::size_t max_bytes = 32u << 20;
  /// Independent mutex+LRU partitions. Clamped to >= 1.
  std::size_t lock_shards = 8;

  bool enabled() const { return max_entries > 0; }
};

/// Monotonic counters + current occupancy snapshot.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

/// The "cache" block embedded in clpp.shard_stats.v1 / clpp.serve_stats.v1.
Json cache_stats_json(const CacheStats& stats, const CacheConfig& config);

template <typename V>
class ShardedLruCache {
 public:
  /// `name` scopes the instance's metrics: clpp.cache.<name>.*.
  ShardedLruCache(std::string name, CacheConfig config)
      : name_(std::move(name)), config_(config) {
    const std::size_t n = config_.lock_shards == 0 ? 1 : config_.lock_shards;
    shards_ = std::vector<Shard>(n);
    // Ceil-divide the budgets so N shards never admit less than the
    // configured totals; cap entries at >= 1 per shard when enabled.
    entries_per_shard_ = config_.enabled()
                             ? (config_.max_entries + n - 1) / n
                             : 0;
    bytes_per_shard_ =
        config_.max_bytes == 0 ? 0 : (config_.max_bytes + n - 1) / n;
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Looks `key` up; on a hit copies the value into `*out`, refreshes its
  /// LRU position, and returns true.
  bool get(std::uint64_t key, V* out) {
    if (!config_.enabled()) return false;
    CLPP_TRACE_SPAN("cache.get");
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        *out = it->second->value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        count("hits");
        return true;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    count("misses");
    return false;
  }

  /// Inserts (or refreshes) `key`, accounting `bytes` against the byte
  /// budget, then evicts this lock shard's LRU tail past either bound.
  void put(std::uint64_t key, V value, std::size_t bytes) {
    if (!config_.enabled()) return;
    CLPP_TRACE_SPAN("cache.put");
    Shard& shard = shard_for(key);
    std::uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        // Concurrent miss->compute races insert the same digest twice;
        // refresh rather than duplicate (values are deterministic, so
        // either copy is correct).
        shard.bytes -= it->second->bytes;
        shard.bytes += bytes;
        it->second->value = std::move(value);
        it->second->bytes = bytes;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        shard.lru.push_front(Entry{key, std::move(value), bytes});
        shard.index[key] = shard.lru.begin();
        shard.bytes += bytes;
        insertions_.fetch_add(1, std::memory_order_relaxed);
        count("insertions");
      }
      while (shard.lru.size() > entries_per_shard_ ||
             (bytes_per_shard_ > 0 && shard.bytes > bytes_per_shard_ &&
              shard.lru.size() > 1)) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= victim.bytes;
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    if (evicted > 0) {
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
      count("evictions", evicted);
    }
    if (obs::enabled())
      obs::metrics().gauge("clpp.cache." + name_ + ".bytes")
          .set(static_cast<double>(stats().bytes));
  }

  CacheStats stats() const {
    CacheStats snapshot;
    snapshot.hits = hits_.load(std::memory_order_relaxed);
    snapshot.misses = misses_.load(std::memory_order_relaxed);
    snapshot.insertions = insertions_.load(std::memory_order_relaxed);
    snapshot.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      snapshot.entries += shard.lru.size();
      snapshot.bytes += shard.bytes;
    }
    return snapshot;
  }

  Json stats_json() const;  // cache_stats_json(stats(), config())

  const CacheConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    V value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
        index;
    std::size_t bytes = 0;
  };

  Shard& shard_for(std::uint64_t key) {
    // Re-mix before taking the modulus: digests are well-mixed already, but
    // rendezvous routing upstream correlates the keys a given process sees.
    return shards_[rendezvous_score(key, 0) % shards_.size()];
  }

  void count(const char* which, std::uint64_t n = 1) {
    if (!obs::enabled()) return;
    obs::metrics().counter("clpp.cache." + name_ + "." + which).add(n);
  }

  std::string name_;
  CacheConfig config_;
  std::vector<Shard> shards_;
  std::size_t entries_per_shard_ = 0;
  std::size_t bytes_per_shard_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

template <typename V>
Json ShardedLruCache<V>::stats_json() const {
  return cache_stats_json(stats(), config_);
}

}  // namespace clpp::cache
