// Correctness of the engine-owned φ(p) memo: unit behavior of the cache
// itself (epochs, parameter matching, capacity), and — more importantly —
// that caching is *invisible* at the query level: cached and uncached
// engines return identical rankings, and AppendBatch invalidation makes
// post-append φ values flow through immediately.
#include "social/popularity_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "model/dataset.h"

namespace tklus {
namespace {

// ------------------------------------------------------------- unit

TEST(PopularityCacheTest, MissThenHit) {
  PopularityCache cache(PopularityCache::Options{64, 4});
  EXPECT_FALSE(cache.Get(100, 6, 0.5).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put(100, 6, 0.5, cache.generation(), 3.25);
  const std::optional<double> got = cache.Get(100, 6, 0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 3.25);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PopularityCacheTest, ParameterMismatchMisses) {
  PopularityCache cache(PopularityCache::Options{64, 4});
  cache.Put(100, 6, 0.5, cache.generation(), 3.25);
  // φ depends on (root_sid, depth, epsilon): a different depth or epsilon
  // is a different value and must not be served.
  EXPECT_FALSE(cache.Get(100, 5, 0.5).has_value());
  EXPECT_FALSE(cache.Get(100, 6, 0.25).has_value());
  EXPECT_TRUE(cache.Get(100, 6, 0.5).has_value());
}

TEST(PopularityCacheTest, InvalidateStartsNewEpoch) {
  PopularityCache cache(PopularityCache::Options{64, 4});
  cache.Put(100, 6, 0.5, cache.generation(), 3.25);
  ASSERT_TRUE(cache.Get(100, 6, 0.5).has_value());
  cache.Invalidate();
  // Stale entry misses and is lazily reclaimed on sight.
  EXPECT_FALSE(cache.Get(100, 6, 0.5).has_value());
  EXPECT_EQ(cache.size(), 0u);
  // Fresh-epoch install works again.
  cache.Put(100, 6, 0.5, cache.generation(), 4.0);
  const std::optional<double> got = cache.Get(100, 6, 0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, 4.0);
}

TEST(PopularityCacheTest, StaleGenerationPutIsDropped) {
  PopularityCache cache(PopularityCache::Options{64, 4});
  const uint64_t before = cache.generation();
  cache.Invalidate();
  // A φ computed against pre-append state must never be installed.
  cache.Put(100, 6, 0.5, before, 3.25);
  EXPECT_FALSE(cache.Get(100, 6, 0.5).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PopularityCacheTest, CapacityBoundsResidency) {
  PopularityCache cache(PopularityCache::Options{32, 4});
  for (int64_t sid = 0; sid < 1000; ++sid) {
    cache.Put(sid, 6, 0.5, cache.generation(), 1.0);
  }
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.size(), 0u);
}

TEST(PopularityCacheTest, DegenerateOptionsClamped) {
  // shards=0 / capacity=0 must not divide by zero or cache nothing forever.
  PopularityCache cache(PopularityCache::Options{0, 0});
  cache.Put(7, 6, 0.5, cache.generation(), 2.0);
  EXPECT_TRUE(cache.Get(7, 6, 0.5).has_value());
}

// ------------------------------------------------------------ engine

// The memo serves the Alg. 1 mode only; the default φ source (the
// ingest-time ThreadTracker) never consults it.
TkLusEngine::Options Alg1Options() {
  TkLusEngine::Options options;
  options.alg1_thread_construction = true;
  return options;
}

// A corpus with reply threads whose φ matters to the ranking: users at
// the query point with threads of different sizes.
Dataset ThreadedCorpus(int extra_replies_per_root = 0) {
  Dataset ds;
  auto add = [&ds](TweetId sid, UserId uid, double lat, double lon,
                   const std::string& text, TweetId rsid = kNoId,
                   UserId ruid = kNoId) {
    Post p;
    p.sid = sid;
    p.uid = uid;
    p.location = GeoPoint{lat, lon};
    p.text = text;
    p.rsid = rsid;
    p.ruid = ruid;
    ds.Add(std::move(p));
  };
  TweetId sid = 1000;
  for (UserId u = 1; u <= 6; ++u) {
    const TweetId root = sid;
    add(sid++, u, 10.0 + 0.001 * u, 10.0, "cafe brunch");
    const int replies = static_cast<int>(u) + extra_replies_per_root;
    for (int r = 0; r < replies; ++r) {
      add(sid++, 200 + 10 * u + r, 10.0, 10.0, "looks great", root, u);
    }
  }
  return ds;
}

// Root sids of the *base* ThreadedCorpus() (user u's root precedes its u
// replies).
std::vector<TweetId> BaseRootSids() {
  std::vector<TweetId> roots;
  TweetId sid = 1000;
  for (UserId u = 1; u <= 6; ++u) {
    roots.push_back(sid);
    sid += 1 + u;
  }
  return roots;
}

TkLusQuery CafeQuery() {
  TkLusQuery q;
  q.location = GeoPoint{10.0, 10.0};
  q.radius_km = 10.0;
  q.keywords = {"cafe"};
  q.k = 4;
  return q;
}

TEST(PopularityCacheEngineTest, CachedEqualsUncached) {
  TkLusEngine::Options cached_opts = Alg1Options();
  TkLusEngine::Options uncached_opts = Alg1Options();
  uncached_opts.popularity_cache_entries = 0;
  auto cached = TkLusEngine::Build(ThreadedCorpus(), cached_opts);
  auto uncached = TkLusEngine::Build(ThreadedCorpus(), uncached_opts);
  ASSERT_TRUE(cached.ok() && uncached.ok());
  for (Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
    TkLusQuery q = CafeQuery();
    q.ranking = ranking;
    // Twice each: the second cached run is served from the memo.
    for (int round = 0; round < 2; ++round) {
      const auto want = (*uncached)->Query(q);
      const auto got = (*cached)->Query(q);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(got->users.size(), want->users.size());
      for (size_t i = 0; i < want->users.size(); ++i) {
        EXPECT_EQ(got->users[i].uid, want->users[i].uid) << "rank " << i;
        EXPECT_NEAR(got->users[i].score, want->users[i].score, 1e-12);
      }
      // Uncached engine never touches a cache.
      EXPECT_EQ(want->stats.popularity_cache_hits, 0u);
      EXPECT_EQ(want->stats.popularity_cache_misses, 0u);
    }
  }
}

TEST(PopularityCacheEngineTest, CountersMoveColdThenWarm) {
  auto engine = TkLusEngine::Build(ThreadedCorpus(), Alg1Options());
  ASSERT_TRUE(engine.ok());
  const auto cold = (*engine)->Query(CafeQuery());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.popularity_cache_hits, 0u);
  EXPECT_GT(cold->stats.popularity_cache_misses, 0u);
  EXPECT_EQ(cold->stats.popularity_cache_misses, cold->stats.threads_built);
  const auto warm = (*engine)->Query(CafeQuery());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.popularity_cache_misses, 0u);
  EXPECT_EQ(warm->stats.popularity_cache_hits,
            cold->stats.popularity_cache_misses);
  EXPECT_EQ(warm->stats.threads_built, 0u);
  // The warm pass skips every rsid-index descent thread construction
  // would have paid. On this pool-resident corpus both passes may do zero
  // *physical* reads; the ≥30% reduction claim is measured by
  // bench_query_throughput on a disk-resident corpus.
  EXPECT_LE(warm->stats.db_page_reads, cold->stats.db_page_reads);
}

TEST(PopularityCacheEngineTest, AppendBatchInvalidatesStalePhi) {
  auto engine = TkLusEngine::Build(ThreadedCorpus(), Alg1Options());
  ASSERT_TRUE(engine.ok());
  // Warm the memo with pre-append φ values.
  ASSERT_TRUE((*engine)->Query(CafeQuery()).ok());

  // Extend every thread: each root gains 3 replies, so every cached φ is
  // now stale.
  Dataset batch;
  TweetId sid = 100000;
  const std::vector<TweetId> roots = BaseRootSids();
  for (UserId u = 1; u <= 6; ++u) {
    const TweetId root = roots[u - 1];
    for (int r = 0; r < 3; ++r) {
      Post p;
      p.sid = sid++;
      p.uid = 500 + 10 * u + r;
      p.location = GeoPoint{10.0, 10.0};
      p.text = "late reply";
      p.rsid = root;
      p.ruid = u;
      batch.Add(std::move(p));
    }
  }
  ASSERT_TRUE((*engine)->AppendBatch(batch).ok());

  // Oracle: a fresh engine over the full corpus (same φ inputs, no cache
  // history). Post-append rankings must match it exactly — a stale memo
  // would keep serving the smaller pre-append φ.
  auto oracle = TkLusEngine::Build(ThreadedCorpus(3), Alg1Options());
  ASSERT_TRUE(oracle.ok());
  const auto got = (*engine)->Query(CafeQuery());
  const auto want = (*oracle)->Query(CafeQuery());
  ASSERT_TRUE(got.ok() && want.ok());
  // Everything recomputed: the epoch bump turned the warm memo cold.
  EXPECT_EQ(got->stats.popularity_cache_hits, 0u);
  EXPECT_GT(got->stats.popularity_cache_misses, 0u);
  ASSERT_EQ(got->users.size(), want->users.size());
  for (size_t i = 0; i < want->users.size(); ++i) {
    EXPECT_EQ(got->users[i].uid, want->users[i].uid) << "rank " << i;
    EXPECT_NEAR(got->users[i].score, want->users[i].score, 1e-12);
  }
}

}  // namespace
}  // namespace tklus
