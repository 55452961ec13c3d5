#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <ostream>

#include "baseline/naive_scan.h"
#include "byte_dump_name.h"
#include "core/engine.h"
#include "datagen/tweet_generator.h"

namespace tklus {
namespace {

using datagen::GeneratedCorpus;
using datagen::TweetGenerator;

GeneratedCorpus SmallCorpus() {
  TweetGenerator::Options opts;
  opts.num_users = 200;
  opts.num_tweets = 5000;
  opts.num_cities = 3;
  opts.experts_per_city = 5;
  opts.experts_per_topic = 2;
  return TweetGenerator::Generate(opts);
}

TkLusQuery HotelQuery(const GeneratedCorpus& corpus) {
  TkLusQuery q;
  q.location = corpus.city_centers[0];
  q.radius_km = 12.0;
  q.keywords = {"hotel"};
  q.k = 5;
  return q;
}

// Every geohash length must produce the oracle ranking — the cover and
// postings layout change, the answer must not.
class GeohashLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(GeohashLengthTest, MatchesOracleAtEveryLength) {
  const GeneratedCorpus corpus = SmallCorpus();
  const NaiveScanner scanner(&corpus.dataset);
  TkLusEngine::Options opts;
  opts.geohash_length = GetParam();
  auto engine = TkLusEngine::Build(corpus.dataset, opts);
  ASSERT_TRUE(engine.ok());
  const TkLusQuery q = HotelQuery(corpus);
  auto got = (*engine)->Query(q);
  ASSERT_TRUE(got.ok());
  const QueryResult want = scanner.Process(q);
  ASSERT_EQ(got->users.size(), want.users.size());
  for (size_t i = 0; i < want.users.size(); ++i) {
    EXPECT_EQ(got->users[i].uid, want.users[i].uid) << "rank " << i;
    EXPECT_NEAR(got->users[i].score, want.users[i].score, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, GeohashLengthTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Scoring-parameter combinations keep engine == oracle (both sides take
// the same options).
struct ParamCase {
  double alpha;
  double n_norm;
  int depth;
};
static_assert(sizeof(ParamCase) == 24 && offsetof(ParamCase, depth) == 16);

// Prints gtest's byte dump of the case — the name each case was first
// recorded under — with the 4 padding bytes after `depth` pinned to zero.
void PrintTo(const ParamCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(ParamCase)] = {};
  std::memcpy(bytes + offsetof(ParamCase, alpha), &c.alpha, sizeof c.alpha);
  std::memcpy(bytes + offsetof(ParamCase, n_norm), &c.n_norm,
              sizeof c.n_norm);
  std::memcpy(bytes + offsetof(ParamCase, depth), &c.depth, sizeof c.depth);
  testing_util::PrintByteDump(bytes, sizeof bytes, os);
}

class ScoringOptionTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ScoringOptionTest, EngineMatchesOracleUnderOptions) {
  const ParamCase& c = GetParam();
  const GeneratedCorpus corpus = SmallCorpus();
  NaiveScanner::Options scanner_opts;
  scanner_opts.scoring.alpha = c.alpha;
  scanner_opts.scoring.n_norm = c.n_norm;
  scanner_opts.thread_depth = c.depth;
  const NaiveScanner scanner(&corpus.dataset, scanner_opts);
  TkLusEngine::Options engine_opts;
  engine_opts.scoring.alpha = c.alpha;
  engine_opts.scoring.n_norm = c.n_norm;
  engine_opts.thread_depth = c.depth;
  auto engine = TkLusEngine::Build(corpus.dataset, engine_opts);
  ASSERT_TRUE(engine.ok());
  for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
    (*engine)->processor().mutable_options().enable_pruning = false;
    TkLusQuery q = HotelQuery(corpus);
    q.ranking = ranking;
    auto got = (*engine)->Query(q);
    ASSERT_TRUE(got.ok());
    const QueryResult want = scanner.Process(q);
    ASSERT_EQ(got->users.size(), want.users.size());
    for (size_t i = 0; i < want.users.size(); ++i) {
      EXPECT_EQ(got->users[i].uid, want.users[i].uid)
          << "alpha=" << c.alpha << " N=" << c.n_norm << " rank " << i;
      EXPECT_NEAR(got->users[i].score, want.users[i].score, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScoringOptionTest,
    ::testing::Values(ParamCase{0.0, 40, 6}, ParamCase{1.0, 40, 6},
                      ParamCase{0.5, 4, 6}, ParamCase{0.5, 40, 2},
                      ParamCase{0.3, 10, 4}, ParamCase{0.9, 2, 8}));

TEST(EngineOptionsTest, CustomWorkingDirKept) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tklus_engine_custom_" + std::to_string(::getpid()));
  {
    TkLusEngine::Options opts;
    opts.working_dir = dir.string();
    auto engine = TkLusEngine::Build(SmallCorpus().dataset, opts);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(std::filesystem::exists(dir / "meta.live.db"));
    EXPECT_TRUE(std::filesystem::exists(dir / "wal.log"));
  }
  // Caller-provided directories are not deleted by the engine.
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

TEST(EngineOptionsTest, TempWorkingDirCleanedUp) {
  std::string working_dir;
  {
    auto engine = TkLusEngine::Build(SmallCorpus().dataset);
    ASSERT_TRUE(engine.ok());
    working_dir = (*engine)->options().working_dir;
    EXPECT_TRUE(std::filesystem::exists(working_dir));
  }
  EXPECT_FALSE(std::filesystem::exists(working_dir));
}

TEST(EngineOptionsTest, BuildIsDeterministic) {
  const GeneratedCorpus corpus = SmallCorpus();
  auto e1 = TkLusEngine::Build(corpus.dataset);
  auto e2 = TkLusEngine::Build(corpus.dataset);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  const TkLusQuery q = HotelQuery(corpus);
  auto r1 = (*e1)->Query(q);
  auto r2 = (*e2)->Query(q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->users.size(), r2->users.size());
  for (size_t i = 0; i < r1->users.size(); ++i) {
    EXPECT_EQ(r1->users[i].uid, r2->users[i].uid);
    EXPECT_DOUBLE_EQ(r1->users[i].score, r2->users[i].score);
  }
  EXPECT_EQ((*e1)->bounds().global_bound(), (*e2)->bounds().global_bound());
  EXPECT_EQ((*e1)->index().build_stats().inverted_bytes,
            (*e2)->index().build_stats().inverted_bytes);
}

TEST(EngineOptionsTest, HotKeywordCountRespected) {
  const GeneratedCorpus corpus = SmallCorpus();
  TkLusEngine::Options opts;
  opts.num_hot_keywords = 3;
  auto engine = TkLusEngine::Build(corpus.dataset, opts);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->bounds().hot_bounds().size(), 3u);
  opts.num_hot_keywords = 0;
  auto no_hot = TkLusEngine::Build(corpus.dataset, opts);
  ASSERT_TRUE(no_hot.ok());
  EXPECT_TRUE((*no_hot)->bounds().hot_bounds().empty());
}

TEST(EngineOptionsTest, EmptyDatasetQueriesCleanly) {
  Dataset empty;
  auto engine = TkLusEngine::Build(empty);
  ASSERT_TRUE(engine.ok());
  TkLusQuery q;
  q.location = GeoPoint{0, 0};
  q.radius_km = 10;
  q.keywords = {"hotel"};
  q.k = 5;
  auto result = (*engine)->Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->users.empty());
}

TEST(EngineOptionsTest, DfsNodeCountConfigurable) {
  const GeneratedCorpus corpus = SmallCorpus();
  TkLusEngine::Options opts;
  opts.dfs.num_data_nodes = 5;
  auto engine = TkLusEngine::Build(corpus.dataset, opts);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->dfs().node_stats().size(), 5u);
  // Blocks spread across all nodes.
  size_t nodes_with_data = 0;
  for (const auto& node : (*engine)->dfs().node_stats()) {
    if (node.bytes_stored > 0) ++nodes_with_data;
  }
  EXPECT_EQ(nodes_with_data, 5u);
}

}  // namespace
}  // namespace tklus
