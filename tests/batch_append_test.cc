#include <gtest/gtest.h>

#include <filesystem>

#include "core/engine.h"
#include "core/thread_tracker.h"
#include "datagen/tweet_generator.h"
#include "geo/geohash.h"
#include "index/hybrid_index.h"
#include "social/social_graph.h"

namespace tklus {
namespace {

using datagen::GeneratedCorpus;
using datagen::TweetGenerator;

GeneratedCorpus MakeCorpus(size_t tweets = 6000) {
  TweetGenerator::Options opts;
  opts.num_users = 250;
  opts.num_tweets = tweets;
  opts.num_cities = 3;
  return TweetGenerator::Generate(opts);
}

// Split a dataset into [0, cut) and [cut, n) by position (sids ascend).
std::pair<Dataset, Dataset> Split(const Dataset& all, size_t cut) {
  Dataset first, second;
  for (size_t i = 0; i < all.size(); ++i) {
    (i < cut ? first : second).Add(all.posts()[i]);
  }
  return {std::move(first), std::move(second)};
}

// ------------------------------------------------------ thread tracker

TEST(ThreadTrackerTest, MatchesOfflineRegistry) {
  const GeneratedCorpus corpus = MakeCorpus();
  const Tokenizer tokenizer;
  const SocialGraph graph = SocialGraph::Build(corpus.dataset);
  UpperBoundRegistry::Options reg_opts;
  reg_opts.num_hot_keywords = 10;
  const UpperBoundRegistry registry =
      UpperBoundRegistry::Build(corpus.dataset, graph, tokenizer, reg_opts);

  ThreadTracker tracker(ThreadTracker::Options{6, 0.1});
  const Vocabulary vocab = corpus.dataset.BuildVocabulary(tokenizer);
  std::vector<std::string> hot;
  for (const auto& [term, freq] : vocab.TopTerms(10)) hot.push_back(term);
  tracker.SetHotTerms(hot);
  for (const Post& p : corpus.dataset.posts()) {
    tracker.AddPost(p, tokenizer.Tokenize(p.text));
  }
  EXPECT_NEAR(tracker.global_bound(), registry.global_bound(), 1e-9);
  const auto tracker_hot = tracker.HotBounds();
  ASSERT_EQ(tracker_hot.size(), registry.hot_bounds().size());
  for (const auto& [term, bound] : registry.hot_bounds()) {
    ASSERT_TRUE(tracker_hot.count(term)) << term;
    EXPECT_NEAR(tracker_hot.at(term), bound, 1e-9) << term;
  }
}

TEST(ThreadTrackerTest, PopularityMatchesInMemoryShapes) {
  const GeneratedCorpus corpus = MakeCorpus(3000);
  const Tokenizer tokenizer;
  const SocialGraph graph = SocialGraph::Build(corpus.dataset);
  ThreadTracker tracker(ThreadTracker::Options{6, 0.1});
  for (const Post& p : corpus.dataset.posts()) {
    tracker.AddPost(p, {});
  }
  for (size_t i = 0; i < corpus.dataset.size(); i += 37) {
    const TweetId sid = corpus.dataset.posts()[i].sid;
    const double expected = ThreadPopularity(
        BuildShapeInMemory(graph.children(), sid, 6), 0.1);
    EXPECT_EQ(tracker.Popularity(sid), expected) << "sid " << sid;
  }
}

TEST(ThreadTrackerTest, IncrementalEqualsBulk) {
  const GeneratedCorpus corpus = MakeCorpus(4000);
  const Tokenizer tokenizer;
  ThreadTracker bulk(ThreadTracker::Options{6, 0.1});
  ThreadTracker incremental(ThreadTracker::Options{6, 0.1});
  bulk.SetHotTerms({"restaur", "cafe"});
  incremental.SetHotTerms({"restaur", "cafe"});
  for (const Post& p : corpus.dataset.posts()) {
    bulk.AddPost(p, tokenizer.Tokenize(p.text));
  }
  // Feed the same posts in two chunks.
  for (size_t i = 0; i < corpus.dataset.size(); ++i) {
    const Post& p = corpus.dataset.posts()[i];
    incremental.AddPost(p, tokenizer.Tokenize(p.text));
    if (i == corpus.dataset.size() / 2) {
      // Bounds are already meaningful mid-way and only grow.
      EXPECT_LE(incremental.global_bound(), bulk.global_bound() + 1e-12);
    }
  }
  EXPECT_NEAR(incremental.global_bound(), bulk.global_bound(), 1e-12);
}

TEST(ThreadTrackerTest, SaveLoadRoundTrip) {
  const GeneratedCorpus corpus = MakeCorpus(2000);
  const Tokenizer tokenizer;
  ThreadTracker tracker(ThreadTracker::Options{6, 0.1});
  tracker.SetHotTerms({"hotel", "cafe"});
  for (const Post& p : corpus.dataset.posts()) {
    tracker.AddPost(p, tokenizer.Tokenize(p.text));
  }
  std::stringstream buffer;
  tracker.Save(buffer);
  ThreadTracker restored;
  ASSERT_TRUE(restored.Load(buffer).ok());
  EXPECT_EQ(restored.tracked_posts(), tracker.tracked_posts());
  EXPECT_EQ(restored.global_bound(), tracker.global_bound());
  EXPECT_EQ(restored.HotBounds(), tracker.HotBounds());
  for (size_t i = 0; i < corpus.dataset.size(); i += 101) {
    const TweetId sid = corpus.dataset.posts()[i].sid;
    EXPECT_EQ(restored.Popularity(sid), tracker.Popularity(sid));
  }
}

// --------------------------------------------------- index generations

TEST(IndexAppendTest, TwoGenerationsMergeOnFetch) {
  Dataset first, second;
  Post p;
  p.uid = 1;
  p.location = GeoPoint{10.0, 10.0};
  p.text = "hotel alpha";
  p.sid = 1;
  first.Add(p);
  p.sid = 2;
  first.Add(p);
  p.sid = 10;
  p.text = "hotel beta";
  second.Add(p);
  p.sid = 11;
  second.Add(p);

  SimulatedDfs dfs;
  auto index = HybridIndex::Build(first, &dfs, HybridIndex::Options{});
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->AppendBatch(second).ok());
  const std::string cell = geohash::Encode(GeoPoint{10.0, 10.0}, 4);
  auto postings = (*index)->FetchPostings(cell, "hotel");
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ(postings->size(), 4u);
  for (size_t i = 1; i < postings->size(); ++i) {
    EXPECT_LT((*postings)[i - 1].tid, (*postings)[i].tid);
  }
  // Two part-file generations exist in the DFS.
  EXPECT_FALSE(dfs.List("index/gen-0000/").empty());
  EXPECT_FALSE(dfs.List("index/gen-0001/").empty());
}

// ----------------------------------------------------- engine batches

TEST(EngineAppendTest, BuildPlusAppendEqualsFullBuild) {
  const GeneratedCorpus corpus = MakeCorpus(6000);
  auto [first, second] = Split(corpus.dataset, corpus.dataset.size() / 2);

  auto full = TkLusEngine::Build(corpus.dataset);
  ASSERT_TRUE(full.ok());
  auto staged = TkLusEngine::Build(first);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE((*staged)->AppendBatch(second).ok());

  // Bounds identical (hot sets may differ slightly since the hot terms
  // were frozen on the first half; global must match exactly only if the
  // top term set coincides — compare the global bound, which is term-free).
  EXPECT_NEAR((*staged)->bounds().global_bound(),
              (*full)->bounds().global_bound(), 1e-9);

  for (const char* kw : {"hotel", "restaurant", "cafe"}) {
    for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
      TkLusQuery q;
      q.location = corpus.city_centers[0];
      q.radius_km = 15.0;
      q.keywords = {kw};
      q.k = 10;
      q.ranking = ranking;
      // Disable pruning so rankings are exactly comparable even where the
      // frozen hot-term set differs between the two engines.
      (*full)->processor().mutable_options().enable_pruning = false;
      (*staged)->processor().mutable_options().enable_pruning = false;
      auto want = (*full)->Query(q);
      auto got = (*staged)->Query(q);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->users.size(), want->users.size());
      for (size_t i = 0; i < want->users.size(); ++i) {
        EXPECT_EQ(got->users[i].uid, want->users[i].uid)
            << kw << " rank " << i;
        EXPECT_NEAR(got->users[i].score, want->users[i].score, 1e-9);
      }
    }
  }
}

TEST(EngineAppendTest, RejectsOutOfOrderBatch) {
  const GeneratedCorpus corpus = MakeCorpus(2000);
  auto [first, second] = Split(corpus.dataset, 1500);
  auto engine = TkLusEngine::Build(corpus.dataset);  // already has all sids
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->AppendBatch(second).ok());  // sids not fresh
}

TEST(EngineAppendTest, AppendAfterReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tklus_append_reopen_" + std::to_string(::getpid()));
  const GeneratedCorpus corpus = MakeCorpus(4000);
  auto [first, second] = Split(corpus.dataset, 3000);
  {
    auto engine = TkLusEngine::Build(first);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
  }
  auto reopened = TkLusEngine::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->AppendBatch(second).ok());
  // Appended tweets are queryable.
  TkLusQuery q;
  q.location = corpus.city_centers[0];
  q.radius_km = 15.0;
  q.keywords = {"restaurant"};
  q.k = 10;
  q.temporal.begin = second.posts().front().sid;  // only the new batch
  auto result = (*reopened)->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates, 0u);
  std::filesystem::remove_all(dir);
}

TEST(EngineAppendTest, BoundsGrowWithViralAppend) {
  // Appending a huge thread onto an existing root must raise the global
  // bound (stale bounds would make pruning unsound).
  Dataset first;
  Post p;
  p.uid = 1;
  p.location = GeoPoint{10, 10};
  p.sid = 1;
  p.text = "quiet cafe";
  first.Add(p);
  auto engine = TkLusEngine::Build(first);
  ASSERT_TRUE(engine.ok());
  const double before = (*engine)->bounds().global_bound();

  Dataset second;
  for (TweetId sid = 100; sid < 140; ++sid) {
    Post r;
    r.uid = 50 + sid;
    r.location = GeoPoint{10, 10};
    r.sid = sid;
    r.text = "wow";
    r.rsid = 1;
    r.ruid = 1;
    second.Add(r);
  }
  ASSERT_TRUE((*engine)->AppendBatch(second).ok());
  EXPECT_NEAR((*engine)->bounds().global_bound(), 40.0 / 2.0, 1e-9);
  EXPECT_GT((*engine)->bounds().global_bound(), before);
}

}  // namespace
}  // namespace tklus
