#include "cache/cache.h"

#include "support/json.h"

namespace clpp::cache {

Json cache_stats_json(const CacheStats& stats, const CacheConfig& config) {
  Json out = Json::object();
  out["enabled"] = config.enabled();
  out["max_entries"] = static_cast<std::int64_t>(config.max_entries);
  out["max_bytes"] = static_cast<std::int64_t>(config.max_bytes);
  out["hits"] = static_cast<std::int64_t>(stats.hits);
  out["misses"] = static_cast<std::int64_t>(stats.misses);
  out["insertions"] = static_cast<std::int64_t>(stats.insertions);
  out["evictions"] = static_cast<std::int64_t>(stats.evictions);
  out["entries"] = static_cast<std::int64_t>(stats.entries);
  out["bytes"] = static_cast<std::int64_t>(stats.bytes);
  out["hit_rate"] = stats.hit_rate();
  return out;
}

}  // namespace clpp::cache
