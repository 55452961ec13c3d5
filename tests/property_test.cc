#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>
#include <set>
#include <sstream>

#include "baseline/rtree.h"
#include "byte_dump_name.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/kendall.h"
#include "geo/circle_cover.h"
#include "geo/distance.h"
#include "geo/geohash.h"
#include "geo/quadtree.h"
#include "text/tokenizer.h"

namespace tklus {
namespace {

// ----------------------------------------------------------------- serde

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::stringstream buffer;
  serde::WriteU64(buffer, 0xDEADBEEFCAFEBABEULL);
  serde::WriteI64(buffer, -42);
  serde::WriteU32(buffer, 7);
  serde::WriteDouble(buffer, 3.14159);
  serde::WriteString(buffer, "hello\0world");
  serde::WriteString(buffer, "");
  uint64_t u = 0;
  int64_t i = 0;
  uint32_t w = 0;
  double d = 0;
  std::string s, empty;
  ASSERT_TRUE(serde::ReadU64(buffer, &u));
  ASSERT_TRUE(serde::ReadI64(buffer, &i));
  ASSERT_TRUE(serde::ReadU32(buffer, &w));
  ASSERT_TRUE(serde::ReadDouble(buffer, &d));
  ASSERT_TRUE(serde::ReadString(buffer, &s));
  ASSERT_TRUE(serde::ReadString(buffer, &empty));
  EXPECT_EQ(u, 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(w, 7u);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(s, "hello");  // string literal stops at NUL
  EXPECT_TRUE(empty.empty());
}

TEST(SerdeTest, TruncationDetected) {
  std::stringstream buffer;
  serde::WriteU64(buffer, 1);
  std::string data = buffer.str();
  data.resize(5);
  std::stringstream truncated(data);
  uint64_t v = 0;
  EXPECT_FALSE(serde::ReadU64(truncated, &v));
  // Bogus string length.
  std::stringstream bogus;
  serde::WriteU64(bogus, ~0ULL);
  std::string out;
  EXPECT_FALSE(serde::ReadString(bogus, &out));
}

// --------------------------------------------------------------- geohash

TEST(GeohashPropertyTest, NeighborRelationIsSymmetric) {
  Rng rng(71);
  for (int trial = 0; trial < 100; ++trial) {
    const GeoPoint p{rng.Uniform(-70, 70), rng.Uniform(-170, 170)};
    const std::string cell = geohash::Encode(p, 4);
    for (const std::string& nb : geohash::Neighbors(cell)) {
      const auto back = geohash::Neighbors(nb);
      EXPECT_NE(std::find(back.begin(), back.end(), cell), back.end())
          << cell << " <-> " << nb;
    }
  }
}

TEST(GeohashPropertyTest, NeighborsDistinct) {
  Rng rng(72);
  for (int trial = 0; trial < 100; ++trial) {
    const GeoPoint p{rng.Uniform(-70, 70), rng.Uniform(-170, 170)};
    const std::string cell = geohash::Encode(p, 3);
    const auto neighbors = geohash::Neighbors(cell);
    const std::set<std::string> unique(neighbors.begin(), neighbors.end());
    EXPECT_EQ(unique.size(), neighbors.size());
    EXPECT_EQ(unique.count(cell), 0u);
  }
}

// Circle covers across radii and lengths: every in-circle point is
// covered; ratio sane.
struct CoverCase {
  double radius_km;
  int length;
};
static_assert(sizeof(CoverCase) == 16 && offsetof(CoverCase, length) == 8);

// Prints gtest's byte dump of the case — the name each case was first
// recorded under — with the 4 padding bytes after `length` pinned to zero.
void PrintTo(const CoverCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(CoverCase)] = {};
  std::memcpy(bytes + offsetof(CoverCase, radius_km), &c.radius_km,
              sizeof c.radius_km);
  std::memcpy(bytes + offsetof(CoverCase, length), &c.length,
              sizeof c.length);
  testing_util::PrintByteDump(bytes, sizeof bytes, os);
}

class CircleCoverPropertyTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(CircleCoverPropertyTest, CoversAndBounded) {
  const auto [radius, length] = GetParam();
  Rng rng(73);
  const GeoPoint q{51.5074, -0.1278};  // London
  const auto cells = GeohashCircleCover(q, radius, length);
  ASSERT_FALSE(cells.empty());
  const std::set<std::string> cell_set(cells.begin(), cells.end());
  for (int i = 0; i < 500; ++i) {
    const double bearing = rng.Uniform(0, 6.283185);
    const double dist = radius * std::sqrt(rng.NextDouble());
    const GeoPoint p{
        q.lat + dist * std::cos(bearing) / kKmPerDegreeLat,
        q.lon + dist * std::sin(bearing) /
                    (kKmPerDegreeLat * std::cos(q.lat * kDegToRad))};
    if (EuclideanKm(p, q) > radius) continue;
    EXPECT_TRUE(cell_set.count(geohash::Encode(p, length)))
        << "uncovered at r=" << radius << " len=" << length;
  }
  EXPECT_GE(CoverAreaRatio(cells, q, radius), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CircleCoverPropertyTest,
    ::testing::Values(CoverCase{1, 4}, CoverCase{5, 3}, CoverCase{5, 4},
                      CoverCase{5, 5}, CoverCase{20, 3}, CoverCase{20, 4},
                      CoverCase{50, 2}, CoverCase{50, 4},
                      CoverCase{100, 3}));

// ------------------------------------------- spatial index cross-check

TEST(SpatialCrossCheckTest, QuadtreeAndRTreeAgree) {
  Quadtree quadtree;
  RTree rtree(16);
  Rng rng(74);
  for (uint64_t i = 0; i < 3000; ++i) {
    const GeoPoint p{40.0 + rng.Normal(0, 0.5), -74.0 + rng.Normal(0, 0.5)};
    quadtree.Insert(p, i);
    rtree.Insert(p, i);
  }
  for (const double r : {1.0, 10.0, 60.0}) {
    for (int trial = 0; trial < 5; ++trial) {
      const GeoPoint q{40.0 + rng.Uniform(-0.5, 0.5),
                       -74.0 + rng.Uniform(-0.5, 0.5)};
      std::set<uint64_t> a, b;
      for (const auto& e : quadtree.RangeQuery(q, r)) a.insert(e.id);
      for (const auto& e : rtree.RangeQuery(q, r)) b.insert(e.id);
      EXPECT_EQ(a, b) << "r=" << r;
    }
  }
}

// --------------------------------------------------------------- kendall

TEST(KendallPropertyTest, SelfTauIsOne) {
  Rng rng(75);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<UserId> ranking;
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{20}));
    for (int i = 0; i < n; ++i) ranking.push_back(i * 7 + 1);
    EXPECT_DOUBLE_EQ(KendallTauVariant(ranking, ranking), 1.0);
  }
}

TEST(KendallPropertyTest, SingleSwapReducesTauSlightly) {
  std::vector<UserId> base;
  for (UserId u = 1; u <= 20; ++u) base.push_back(u);
  double prev_tau = 1.0;
  // Progressive corruption: each extra swap lowers tau (or ties).
  std::vector<UserId> shuffled = base;
  Rng rng(76);
  for (int swaps = 0; swaps < 5; ++swaps) {
    const size_t i = rng.UniformInt(shuffled.size());
    const size_t j = rng.UniformInt(shuffled.size());
    std::swap(shuffled[i], shuffled[j]);
    const double tau = KendallTauVariant(base, shuffled);
    EXPECT_LE(tau, 1.0);
    EXPECT_GE(tau, -1.0);
    prev_tau = tau;
  }
  (void)prev_tau;
}

TEST(KendallPropertyTest, DisjointListsStronglyDiscordant) {
  // Completely disjoint top-k lists: each list ranks the other's users
  // behind its own, so every cross pair is discordant (9 of 15 pairs) and
  // within-list pairs are tied-in-one-list (neither). tau = -9/15.
  const std::vector<UserId> a = {1, 2, 3};
  const std::vector<UserId> b = {4, 5, 6};
  EXPECT_NEAR(KendallTauVariant(a, b), -0.6, 1e-12);
}

// --------------------------------------------------------------- text

TEST(TokenizerRobustnessTest, GarbageInputsDoNotCrash) {
  Tokenizer tokenizer;
  const std::string inputs[] = {
      std::string(1000, '@'),
      std::string(1000, '#'),
      "http://",
      "https://",
      "@@##@@##",
      std::string("\x01\x02\x7f\x03"),
      "ALLCAPS ALLCAPS ALLCAPS",
      std::string(5000, 'a'),
      "a b c d e f g h i j k l m n o p q r s t u v w x y z",
  };
  for (const std::string& input : inputs) {
    const auto terms = tokenizer.Tokenize(input);
    for (const std::string& term : terms) {
      EXPECT_GE(static_cast<int>(term.size()),
                tokenizer.options().min_token_length);
    }
  }
}

TEST(TokenizerRobustnessTest, RandomBytesFuzz) {
  Tokenizer tokenizer;
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const size_t n = rng.UniformInt(uint64_t{300});
    for (size_t i = 0; i < n; ++i) {
      input.push_back(static_cast<char>(rng.UniformInt(uint64_t{128})));
    }
    // Must not crash; all tokens lowercase alnum.
    for (const std::string& term : tokenizer.Tokenize(input)) {
      for (const char c : term) {
        EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            << static_cast<int>(c);
      }
    }
  }
}

}  // namespace
}  // namespace tklus
