#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/zipf.h"

namespace tklus {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing key");
  EXPECT_EQ(st.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IoError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    TKLUS_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(99);
  std::map<uint64_t, int> counts;
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(uint64_t{6})];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, kDraws / 6.0, kDraws * 0.01) << "value " << v;
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Geometric(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0;
  for (size_t i = 0; i < zipf.size(); ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostLikely) {
  ZipfSampler zipf(1000, 1.1);
  Rng rng(3);
  std::map<size_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  size_t argmax = 0;
  int best = 0;
  for (const auto& [rank, n] : counts) {
    if (n > best) {
      best = n;
      argmax = rank;
    }
  }
  EXPECT_EQ(argmax, 0u);
  // Empirical frequency of rank 0 close to pmf.
  EXPECT_NEAR(counts[0] / 50000.0, zipf.Pmf(0), 0.01);
}

TEST(ZipfTest, HigherExponentMoreSkewed) {
  ZipfSampler mild(100, 0.5), steep(100, 2.0);
  EXPECT_LT(mild.Pmf(0), steep.Pmf(0));
}

TEST(StringUtilTest, SplitBasic) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitNoSeparator) {
  const auto parts = StrSplit("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrips) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, "-"), "x-y-z");
  EXPECT_EQ(StrJoin({}, "-"), "");
}

TEST(StringUtilTest, ToLowerAndStartsWith) {
  EXPECT_EQ(AsciiToLower("HoTel"), "hotel");
  EXPECT_TRUE(StartsWith("6gxp", "6g"));
  EXPECT_FALSE(StartsWith("6g", "6gxp"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(3670016), "3.5 MiB");
}

// ------------------------------------------------------------ CRC32 kernel

// Bit-at-a-time CRC-32/IEEE (reflected 0xedb88320), the definition the
// slicing-by-8 kernel must reproduce exactly.
uint32_t BitwiseCrc32(const unsigned char* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32KernelTest, MatchesBitwiseReferenceAtEveryAlignment) {
  Rng rng(20150413);
  std::vector<unsigned char> buffer(4096 + 8);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.Next());
  for (int trial = 0; trial < 64; ++trial) {
    const size_t len = rng.UniformInt(uint64_t{4097});  // 0..4096 bytes
    const uint32_t seed =
        trial % 2 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    for (size_t align = 0; align < 8; ++align) {
      const unsigned char* p = buffer.data() + align;
      EXPECT_EQ(Crc32(p, len, seed), BitwiseCrc32(p, len, seed))
          << "len " << len << " align " << align << " seed " << seed;
    }
  }
  // Every short length, where only the byte-at-a-time tail runs.
  for (size_t len = 0; len <= 24; ++len) {
    const unsigned char* p = buffer.data() + 3;
    EXPECT_EQ(Crc32(p, len), BitwiseCrc32(p, len, 0)) << "len " << len;
  }
}

TEST(Crc32KernelTest, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  const std::string check = "123456789";
  EXPECT_EQ(BitwiseCrc32(reinterpret_cast<const unsigned char*>(check.data()),
                         check.size(), 0),
            0xCBF43926u);
}

TEST(Crc32KernelTest, ExtendingEqualsConcatenating) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a(rng.UniformInt(uint64_t{700}), '\0');
    std::string b(rng.UniformInt(uint64_t{700}), '\0');
    for (char& ch : a) ch = static_cast<char>(rng.Next());
    for (char& ch : b) ch = static_cast<char>(rng.Next());
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(a + b))
        << "|a| " << a.size() << " |b| " << b.size();
  }
}

}  // namespace
}  // namespace tklus
