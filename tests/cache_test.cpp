// clpp::cache — digest canonicalization, LRU bounds/eviction order, and
// concurrent hammering (the latter is what the TSan `cache` label exists
// for: get() splices the LRU list under the same lock put() evicts under).
#include "cache/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/digest.h"

namespace clpp::cache {
namespace {

CacheConfig tiny_config(std::size_t entries, std::size_t lock_shards = 1,
                        std::size_t max_bytes = 0) {
  CacheConfig config;
  config.max_entries = entries;
  config.max_bytes = max_bytes;
  config.lock_shards = lock_shards;
  return config;
}

// ----------------------------------------------------------------- digest

TEST(SnippetDigest, WhitespaceRunsDoNotChangeTheDigest) {
  const std::uint64_t canonical =
      snippet_digest("for (i = 0; i < n; i++) a[i] = b[i];");
  EXPECT_EQ(snippet_digest("for (i = 0; i < n; i++)  a[i]  =  b[i];"),
            canonical);
  EXPECT_EQ(snippet_digest("\n  for (i = 0; i < n; i++)\n\ta[i] = b[i];\n"),
            canonical);
  // Token-changing edits must change the digest.
  EXPECT_NE(snippet_digest("for (i = 0; i < n; i++) a[i] = b[i] ;"),
            canonical);
  EXPECT_NE(snippet_digest("for (i = 0; i < n; i++) a[i] = c[i];"),
            canonical);
}

// Whitespace the lexer reads as a token boundary may fold; whitespace that
// ends a comment or directive, or sits inside a literal, may not: each pair
// below is two different programs and must get two digests.

TEST(SnippetDigest, NewlineEndingALineCommentIsSignificant) {
  const std::string commented = "s += a[i]; // acc\n b[i] = 0;";
  // Joined, the store becomes part of the comment.
  EXPECT_NE(snippet_digest(commented), snippet_digest("s += a[i]; // acc b[i] = 0;"));
  EXPECT_EQ(snippet_digest("s += a[i];   // acc  \n\t  b[i] = 0;\n"),
            snippet_digest(commented));
}

TEST(SnippetDigest, NewlineEndingADirectiveIsSignificant) {
  const std::string directive =
      "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;";
  // Joined, the loop becomes part of the pragma line.
  EXPECT_NE(snippet_digest(directive),
            snippet_digest("#pragma omp parallel for for (i = 0; i < n; i++) a[i] = 0;"));
  EXPECT_EQ(snippet_digest("#pragma  omp parallel for \n  for (i = 0; i < n; i++) a[i] = 0;"),
            snippet_digest(directive));
  // A spliced directive line continues the directive.
  EXPECT_EQ(snippet_digest("#pragma omp parallel \\\n for\nfor (i = 0; i < n; i++) a[i] = 0;"),
            snippet_digest(directive));
}

TEST(SnippetDigest, CrlfSplicedDirectiveDigestsLikeLfSplice) {
  // The lexer splices a directive line at a backslash before LF or CR LF;
  // both spellings are one program and get one digest.
  const std::string lf =
      "#pragma omp parallel for \\\n    private(t)\nfor (i = 0; i < n; i++) t = a[i];";
  const std::string crlf =
      "#pragma omp parallel for \\\r\n    private(t)\r\nfor (i = 0; i < n; i++) t = a[i];";
  EXPECT_EQ(snippet_digest(crlf), snippet_digest(lf));
  // Unspliced, the clause line is code, not part of the directive.
  EXPECT_NE(snippet_digest("#pragma omp parallel for \r\n    private(t)\r\n"
                           "for (i = 0; i < n; i++) t = a[i];"),
            snippet_digest(lf));
}

TEST(SnippetDigest, LiteralBytesAreKeptVerbatim) {
  EXPECT_NE(snippet_digest("for (i = 0; i < n; i++) printf(\"%d  \", a[i]);"),
            snippet_digest("for (i = 0; i < n; i++) printf(\"%d \", a[i]);"));
  EXPECT_NE(snippet_digest("for (i = 0; i < n; i++) s[i] = '\t';"),
            snippet_digest("for (i = 0; i < n; i++) s[i] = ' ';"));
  // An escaped quote does not end the literal, and a quote inside a
  // comment does not start one.
  EXPECT_NE(snippet_digest("p = \"\\\"  x\";"), snippet_digest("p = \"\\\" x\";"));
  EXPECT_EQ(snippet_digest("x = 1; /* don't */  y = 2;"),
            snippet_digest("x = 1; /* don't */ y = 2;"));
}

TEST(SnippetDigest, NeverReturnsTheReservedZero) {
  EXPECT_NE(snippet_digest(""), 0u);
  EXPECT_NE(snippet_digest("   \n\t  "), 0u);
}

TEST(RendezvousScore, DistributesAndDiscriminates) {
  // Different slots must rank differently for almost any key, or HRW
  // routing would collapse onto one shard.
  std::set<std::uint64_t> winners;
  for (std::uint64_t key = 1; key <= 64; ++key) {
    std::uint64_t best_slot = 0;
    std::uint64_t best_score = 0;
    for (std::uint64_t slot = 0; slot < 4; ++slot) {
      const std::uint64_t score = rendezvous_score(key, slot);
      if (score > best_score) {
        best_score = score;
        best_slot = slot;
      }
    }
    winners.insert(best_slot);
  }
  // 64 keys over 4 slots: every slot should win at least once.
  EXPECT_EQ(winners.size(), 4u);
}

// -------------------------------------------------------------------- LRU

TEST(ShardedLruCache, DisabledCacheMissesAndIgnoresPuts) {
  ShardedLruCache<int> cache("t", tiny_config(0));
  cache.put(1, 10, 8);
  int out = 0;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedFirst) {
  // One lock shard so the whole capacity is a single LRU order.
  ShardedLruCache<int> cache("t", tiny_config(3));
  cache.put(1, 10, 1);
  cache.put(2, 20, 1);
  cache.put(3, 30, 1);
  // Touch 1: it becomes most-recent, so inserting 4 must evict 2.
  int out = 0;
  ASSERT_TRUE(cache.get(1, &out));
  EXPECT_EQ(out, 10);
  cache.put(4, 40, 1);
  EXPECT_FALSE(cache.get(2, &out));
  EXPECT_TRUE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_TRUE(cache.get(4, &out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ShardedLruCache, EntryCapacityHoldsAcrossManyInserts) {
  ShardedLruCache<int> cache("t", tiny_config(8, /*lock_shards=*/4));
  for (std::uint64_t key = 1; key <= 100; ++key)
    cache.put(key, static_cast<int>(key), 1);
  const CacheStats stats = cache.stats();
  // Ceil-divided budgets: 4 lock shards x 2 entries each.
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_EQ(stats.evictions, 100u - stats.entries);
}

TEST(ShardedLruCache, ByteBudgetEvictsButKeepsAtLeastOneEntry) {
  ShardedLruCache<std::string> cache(
      "t", tiny_config(100, /*lock_shards=*/1, /*max_bytes=*/64));
  cache.put(1, "a", 40);
  cache.put(2, "b", 40);  // 80 > 64: evicts key 1
  std::string out;
  EXPECT_FALSE(cache.get(1, &out));
  EXPECT_TRUE(cache.get(2, &out));
  EXPECT_LE(cache.stats().bytes, 64u);
  // A single entry larger than the whole byte budget is still admitted —
  // the bound degrades to "one oversized entry", never to thrashing an
  // empty cache.
  cache.put(3, "big", 1000);
  EXPECT_TRUE(cache.get(3, &out));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardedLruCache, DuplicateInsertRefreshesInsteadOfDuplicating) {
  ShardedLruCache<int> cache("t", tiny_config(4));
  cache.put(7, 70, 10);
  cache.put(7, 71, 20);  // miss->compute race: second writer wins
  int out = 0;
  ASSERT_TRUE(cache.get(7, &out));
  EXPECT_EQ(out, 71);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes, 20u);
}

TEST(ShardedLruCache, StatsJsonCarriesTheContractKeys) {
  ShardedLruCache<int> cache("t", tiny_config(4));
  cache.put(1, 10, 4);
  int out = 0;
  cache.get(1, &out);
  cache.get(2, &out);
  const Json doc = cache.stats_json();
  EXPECT_TRUE(doc.at("enabled").as_bool());
  EXPECT_EQ(doc.at("hits").as_int(), 1);
  EXPECT_EQ(doc.at("misses").as_int(), 1);
  EXPECT_EQ(doc.at("entries").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("hit_rate").as_double(), 0.5);
}

// ------------------------------------------------------------ concurrency

TEST(ShardedLruCache, ConcurrentHammeringStaysBoundedAndConsistent) {
  // 8 threads x 4000 ops over a 64-entry cache with a byte budget: every
  // get that hits must see the exact value put for that key, and the
  // bounds must hold at every quiescent point. Run under TSan via
  // `ctest -L cache` (scripts/check_tsan.sh includes the label).
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr std::uint64_t kKeys = 96;
  ShardedLruCache<std::uint64_t> cache(
      "t", tiny_config(64, /*lock_shards=*/8, /*max_bytes=*/4096));
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int op = 0; op < kOps; ++op) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t key = (state >> 33) % kKeys + 1;
        if (state & 1) {
          cache.put(key, key * 3, /*bytes=*/32);
        } else {
          std::uint64_t out = 0;
          if (cache.get(key, &out) && out != key * 3) ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace clpp::cache
