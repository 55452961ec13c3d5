// Thread popularity φ (Def. 4) from the ingest-time ThreadTracker must be
// bit-identical to Algorithm 1 (ThreadBuilder over the metadata DB plus
// the delta index) for every post, through Build, appends that stay in the
// delta, folds and a Save/Open split with a WAL tail — and the bounds the
// query path prunes with must dominate every φ it reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/file_io.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "core/thread_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "social/thread_builder.h"

namespace tklus {
namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 0.1;
const char* const kWords[] = {"cafe", "hotel", "pizza", "game",
                              "shop", "wow",   "nice",  "late"};

fs::path TempDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tklus_phi_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Fuzzed reply cascades over sids with random gaps. A reply usually
// answers one of the last few posts, so chains grow past every depth cap
// tested. Both edges are mixed in: replies whose parent is never tracked
// before them (rsid of a later post, of the post itself, or of no post)
// and, through the test's appends, replies resident in the delta.
std::vector<Post> FuzzPosts(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<TweetId> sids(count);
  TweetId sid = 5000;
  for (TweetId& s : sids) {
    sid += rng.UniformInt(int64_t{1}, int64_t{4});
    s = sid;
  }
  std::vector<Post> posts(count);
  for (size_t i = 0; i < count; ++i) {
    Post& p = posts[i];
    p.sid = sids[i];
    p.uid = rng.UniformInt(int64_t{1}, int64_t{80});
    p.location = GeoPoint{10.0 + rng.Uniform(-0.15, 0.15),
                          10.0 + rng.Uniform(-0.15, 0.15)};
    if (rng.Bernoulli(0.05)) p.geo_source = GeoSource::kNone;
    const int words = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{3}));
    for (int w = 0; w < words; ++w) {
      if (!p.text.empty()) p.text += ' ';
      p.text += kWords[rng.UniformInt(std::size(kWords))];
    }
    const double roll = rng.NextDouble();
    if (i == 0 || roll < 0.3) continue;  // a root
    if (roll < 0.33 && i + 1 < count) {
      p.rsid = sids[rng.UniformInt(int64_t(i + 1), int64_t(count - 1))];
    } else if (roll < 0.35) {
      p.rsid = p.sid;
    } else if (roll < 0.37) {
      p.rsid = sids[0] - 2;  // no such post
    } else if (rng.Bernoulli(0.7)) {
      p.rsid = sids[i - 1 - rng.UniformInt(std::min<uint64_t>(i, 8))];
    } else {
      p.rsid = sids[rng.UniformInt(i)];
    }
    p.ruid = 1;
    p.is_forward = rng.Bernoulli(0.2);
  }
  return posts;
}

Dataset Slice(const std::vector<Post>& posts, size_t begin, size_t end) {
  Dataset out;
  for (size_t i = begin; i < end; ++i) out.Add(posts[i]);
  return out;
}

TkLusEngine::Options EngineOptions(int depth, bool alg1, const fs::path& dir) {
  TkLusEngine::Options options;
  options.working_dir = dir.string();
  options.thread_depth = depth;
  options.scoring.epsilon = kEpsilon;
  options.num_hot_keywords = 4;
  options.delta_merge_posts = 0;  // folds only where the test asks
  options.alg1_thread_construction = alg1;
  return options;
}

// Every ingested post: tracker φ == Alg. 1 φ over the engine's DB + delta
// (wired as the Alg. 1 query path wires them), and every bound the query
// path reads for one of the post's terms is at least that φ.
void ExpectTrackerMatchesAlg1(TkLusEngine& engine,
                              const std::vector<Post>& ingested, int depth,
                              const std::string& step) {
  const ThreadTracker& tracker = engine.thread_tracker();
  ASSERT_EQ(tracker.options().max_depth, depth);
  ThreadBuilder builder(&engine.metadata_db(),
                        ThreadBuilder::Options{depth, kEpsilon});
  const DeltaIndex& delta = engine.delta_index();
  if (!delta.empty()) {
    builder.set_extra_children(
        [&delta](TweetId sid, std::vector<TweetId>* out) {
          delta.AppendChildren(sid, out);
        });
  }
  const Tokenizer tokenizer;
  for (const Post& post : ingested) {
    const Result<double> want = builder.Popularity(post.sid);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const double got = tracker.Popularity(post.sid, kEpsilon);
    EXPECT_EQ(got, *want) << step << ": sid " << post.sid;
    EXPECT_GE(engine.bounds().global_bound(), got) << step;
    for (const std::string& term : tokenizer.Tokenize(post.text)) {
      EXPECT_GE(engine.bounds().TermBound(term), got)
          << step << ": sid " << post.sid << " term " << term;
    }
  }
}

// Both φ sources answer every probe query identically, bit for bit.
void ExpectSameAnswers(TkLusEngine& tracker_mode, TkLusEngine& alg1_mode,
                       const std::string& step) {
  for (const char* word : {"cafe", "hotel", "pizza", "wow"}) {
    for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
      TkLusQuery q;
      q.location = GeoPoint{10.0, 10.0};
      q.radius_km = 12.0;
      q.keywords = {word};
      q.k = 6;
      q.ranking = ranking;
      const Result<QueryResult> got = tracker_mode.Query(q);
      const Result<QueryResult> want = alg1_mode.Query(q);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(got->users, want->users) << step << ": " << word;
      EXPECT_EQ(got->stats.threads_pruned, want->stats.threads_pruned);
      EXPECT_EQ(got->stats.threads_built, 0u);
      EXPECT_EQ(got->stats.popularity_cache_hits, 0u);
      EXPECT_EQ(want->stats.phi_tracker_reads, 0u);
      EXPECT_EQ(got->stats.phi_tracker_reads,
                got->stats.within_radius - got->stats.threads_pruned);
    }
  }
}

class TrackerAlg1PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TrackerAlg1PropertyTest, PhiBitIdenticalThroughLifecycle) {
  const int depth = GetParam();
  for (const uint64_t seed : {11u, 29u}) {
    SCOPED_TRACE("d=" + std::to_string(depth) +
                 " seed=" + std::to_string(seed));
    const std::vector<Post> posts = FuzzPosts(seed * 100 + depth, 1400);
    const fs::path fast_dir = TempDir("tracker_" + std::to_string(depth));
    const fs::path alg1_dir = TempDir("alg1_" + std::to_string(depth));
    const TkLusEngine::Options fast_options =
        EngineOptions(depth, /*alg1=*/false, fast_dir);
    const TkLusEngine::Options alg1_options =
        EngineOptions(depth, /*alg1=*/true, alg1_dir);

    auto fast = TkLusEngine::Build(Slice(posts, 0, 800), fast_options);
    auto alg1 = TkLusEngine::Build(Slice(posts, 0, 800), alg1_options);
    ASSERT_TRUE(fast.ok() && alg1.ok());
    std::vector<Post> ingested(posts.begin(), posts.begin() + 800);
    ExpectTrackerMatchesAlg1(**alg1, ingested, depth, "build");
    ExpectSameAnswers(**fast, **alg1, "build");

    // Replies resident in the delta (no fold yet).
    ASSERT_TRUE((*fast)->AppendBatch(Slice(posts, 800, 1000)).ok());
    ASSERT_TRUE((*alg1)->AppendBatch(Slice(posts, 800, 1000)).ok());
    ingested.assign(posts.begin(), posts.begin() + 1000);
    ASSERT_FALSE((*alg1)->delta_index().empty());
    ExpectTrackerMatchesAlg1(**alg1, ingested, depth, "delta");
    ExpectSameAnswers(**fast, **alg1, "delta");

    // Folded into the base index and the metadata DB.
    ASSERT_TRUE((*fast)->MergeNow().ok());
    ASSERT_TRUE((*alg1)->MergeNow().ok());
    ASSERT_TRUE((*alg1)->delta_index().empty());
    ExpectTrackerMatchesAlg1(**alg1, ingested, depth, "fold");
    ExpectSameAnswers(**fast, **alg1, "fold");

    // Save/Open split: a checkpoint, then a batch only the WAL holds.
    ASSERT_TRUE((*fast)->Save(fast_dir.string()).ok());
    ASSERT_TRUE((*alg1)->Save(alg1_dir.string()).ok());
    ASSERT_TRUE((*fast)->AppendBatch(Slice(posts, 1000, 1200)).ok());
    ASSERT_TRUE((*alg1)->AppendBatch(Slice(posts, 1000, 1200)).ok());
    fast->reset();
    alg1->reset();
    fast = TkLusEngine::Open(fast_dir.string(), fast_options);
    alg1 = TkLusEngine::Open(alg1_dir.string(), alg1_options);
    ASSERT_TRUE(fast.ok() && alg1.ok());
    ingested.assign(posts.begin(), posts.begin() + 1200);
    ExpectTrackerMatchesAlg1(**alg1, ingested, depth, "reopen");
    ExpectSameAnswers(**fast, **alg1, "reopen");

    ASSERT_TRUE((*fast)->AppendBatch(Slice(posts, 1200, 1400)).ok());
    ASSERT_TRUE((*alg1)->AppendBatch(Slice(posts, 1200, 1400)).ok());
    ExpectTrackerMatchesAlg1(**alg1, posts, depth, "reopen+append");
    ExpectSameAnswers(**fast, **alg1, "reopen+append");
    fast->reset();
    alg1->reset();
    fs::remove_all(fast_dir);
    fs::remove_all(alg1_dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, TrackerAlg1PropertyTest,
                         ::testing::Values(2, 4, 6, 8));

TEST(TrackerPhiSourceTest, DepthMismatchFailsQuery) {
  const std::vector<Post> posts = FuzzPosts(7, 300);
  auto engine = TkLusEngine::Build(Slice(posts, 0, posts.size()));
  ASSERT_TRUE(engine.ok());
  TkLusQuery q;
  q.location = GeoPoint{10.0, 10.0};
  q.radius_km = 12.0;
  q.keywords = {"cafe"};
  ASSERT_TRUE((*engine)->Query(q).ok());
  // The tracker holds φ for d = 6 only; a processor asking for another d
  // must not be answered with it.
  (*engine)->processor().mutable_options().thread_depth = 4;
  const Result<QueryResult> users = (*engine)->Query(q);
  ASSERT_FALSE(users.ok());
  EXPECT_EQ(users.status().code(), StatusCode::kInvalidArgument);
  const Result<TweetQueryResult> tweets = (*engine)->QueryTweets(q);
  ASSERT_FALSE(tweets.ok());
  EXPECT_EQ(tweets.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrackerPhiSourceTest, ShardedEngineRejectsAlg1Mode) {
  const std::vector<Post> posts = FuzzPosts(8, 200);
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.shard.alg1_thread_construction = true;
  const auto built = ShardedEngine::Build(Slice(posts, 0, posts.size()),
                                          options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);

  // Open refuses it too, whatever the directory holds.
  const fs::path dir = TempDir("sharded_alg1");
  const auto opened = ShardedEngine::Open(dir.string(), options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(TrackerPhiSourceTest, TraceAndMetricsShowTrackerReads) {
  const std::vector<Post> posts = FuzzPosts(9, 400);
  auto engine = TkLusEngine::Build(Slice(posts, 0, posts.size()));
  ASSERT_TRUE(engine.ok());
  TkLusQuery q;
  q.location = GeoPoint{10.0, 10.0};
  q.radius_km = 12.0;
  q.keywords = {"hotel"};
  q.trace = true;
  const Result<QueryResult> result = (*engine)->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.phi_tracker_reads, 0u);
  EXPECT_EQ(result->stats.threads_built, 0u);
  ASSERT_NE(result->stats.trace, nullptr);
  const TraceSpan* thread_stage =
      result->stats.trace->Find(stage::kThreadConstruction);
  ASSERT_NE(thread_stage, nullptr);
  EXPECT_EQ(thread_stage->Counter("phi_tracker_reads"),
            result->stats.phi_tracker_reads);
  EXPECT_EQ(thread_stage->Counter(stage::kCounterDbPageReads), 0u);

  const std::string exposed = MetricsRegistry::Global().Expose();
  EXPECT_NE(exposed.find("tklus_thread_tracker_bytes"), std::string::npos);
  EXPECT_GT((*engine)->thread_tracker().size_bytes(), 0u);
}

// A section whose rows are out of sid order and whose legacy per-post
// reply fields disagree (as a hash-map-ordered section written before the
// level counts existed can) loads to the tracker the posts would build.
TEST(TrackerPersistenceTest, LoadReDerivesCountsFromParentLinks) {
  const std::vector<Post> posts = FuzzPosts(10, 600);
  const Tokenizer tokenizer;
  ThreadTracker tracker(ThreadTracker::Options{6, kEpsilon});
  tracker.SetHotTerms({"cafe", "hotel"});
  for (const Post& p : posts) tracker.AddPost(p, tokenizer.Tokenize(p.text));

  std::unordered_map<TweetId, TweetId> parent;
  std::unordered_map<TweetId, uint32_t> mask;
  {
    std::stringstream saved;
    tracker.Save(saved);
    uint64_t depth = 0, hot = 0, rows = 0;
    double eps = 0, bound = 0;
    ASSERT_TRUE(serde::ReadU64(saved, &depth) &&
                serde::ReadDouble(saved, &eps) &&
                serde::ReadDouble(saved, &bound) &&
                serde::ReadU64(saved, &hot));
    for (uint64_t i = 0; i < hot; ++i) {
      std::string stem;
      ASSERT_TRUE(serde::ReadString(saved, &stem) &&
                  serde::ReadDouble(saved, &bound));
    }
    ASSERT_TRUE(serde::ReadU64(saved, &rows));
    for (uint64_t i = 0; i < rows; ++i) {
      int64_t sid = 0, par = 0;
      uint32_t m = 0, replies = 0;
      double score = 0;
      ASSERT_TRUE(serde::ReadI64(saved, &sid) && serde::ReadI64(saved, &par) &&
                  serde::ReadU32(saved, &m) &&
                  serde::ReadU32(saved, &replies) &&
                  serde::ReadDouble(saved, &score));
      parent[sid] = par;
      mask[sid] = m;
    }
  }
  std::vector<TweetId> order;
  for (const Post& p : posts) order.push_back(p.sid);
  std::reverse(order.begin(), order.end());
  std::stringstream legacy;
  serde::WriteU64(legacy, 6);
  serde::WriteDouble(legacy, kEpsilon);
  serde::WriteDouble(legacy, 123.0);  // stale bounds, re-derived on load
  serde::WriteU64(legacy, 2);
  serde::WriteString(legacy, "cafe");
  serde::WriteDouble(legacy, 0.0);
  serde::WriteString(legacy, "hotel");
  serde::WriteDouble(legacy, 0.0);
  serde::WriteU64(legacy, order.size());
  for (const TweetId sid : order) {
    serde::WriteI64(legacy, sid);
    serde::WriteI64(legacy, parent.at(sid));
    serde::WriteU32(legacy, mask.at(sid));
    serde::WriteU32(legacy, 9999);
    serde::WriteDouble(legacy, -1.0);
  }
  ThreadTracker restored;
  ASSERT_TRUE(restored.Load(legacy).ok());
  EXPECT_EQ(restored.tracked_posts(), tracker.tracked_posts());
  EXPECT_EQ(restored.global_bound(), tracker.global_bound());
  EXPECT_EQ(restored.HotBounds(), tracker.HotBounds());
  for (const Post& p : posts) {
    EXPECT_EQ(restored.Popularity(p.sid), tracker.Popularity(p.sid))
        << "sid " << p.sid;
  }

  // A parent link to a sid not tracked before the reply is corruption.
  std::stringstream broken;
  serde::WriteU64(broken, 6);
  serde::WriteDouble(broken, kEpsilon);
  serde::WriteDouble(broken, 0.0);
  serde::WriteU64(broken, 0);
  serde::WriteU64(broken, 1);
  serde::WriteI64(broken, 50);
  serde::WriteI64(broken, 70);
  serde::WriteU32(broken, 0);
  serde::WriteU32(broken, 0);
  serde::WriteDouble(broken, 0.0);
  ThreadTracker rejected;
  EXPECT_EQ(rejected.Load(broken).code(), StatusCode::kCorruption);
}

// A router image written before the plane dropped its reply-children
// section (magic v1, trailing children map) still opens, and answers as
// the engine that wrote it.
TEST(TrackerPersistenceTest, RouterImageV1StillOpens) {
  const std::vector<Post> posts = FuzzPosts(12, 800);
  const fs::path dir = TempDir("router_v1");
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.working_dir = dir.string();
  options.shard.delta_merge_posts = 0;
  std::vector<std::vector<RankedUser>> want;
  TkLusQuery q;
  q.location = GeoPoint{10.0, 10.0};
  q.radius_km = 12.0;
  q.k = 6;
  {
    auto engine = ShardedEngine::Build(Slice(posts, 0, posts.size()), options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save().ok());
    for (const char* word : {"cafe", "hotel", "wow"}) {
      q.keywords = {word};
      const auto result = (*engine)->Query(q);
      ASSERT_TRUE(result.ok());
      want.push_back(result->users);
    }
  }
  const std::string router = (dir / "router.bin").string();
  Result<std::string> payload = fileio::ReadFileVerified(router);
  ASSERT_TRUE(payload.ok());
  std::ostringstream v1(std::ios::binary);
  serde::WriteU64(v1, 0x7274527375754b54ULL);
  v1 << payload->substr(8);
  std::map<TweetId, std::vector<TweetId>> children;
  for (const Post& p : posts) {
    if (p.IsReplyOrForward()) children[p.rsid].push_back(p.sid);
  }
  serde::WriteU64(v1, children.size());
  for (const auto& [rsid, kids] : children) {
    serde::WriteI64(v1, rsid);
    serde::WriteU64(v1, kids.size());
    for (const TweetId kid : kids) serde::WriteI64(v1, kid);
  }
  ASSERT_TRUE(fileio::WriteFileAtomic(router, v1.str()).ok());

  auto reopened = ShardedEngine::Open(dir.string(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  size_t i = 0;
  for (const char* word : {"cafe", "hotel", "wow"}) {
    q.keywords = {word};
    const auto result = (*reopened)->Query(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->users, want[i++]) << word;
  }
  reopened->reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tklus
