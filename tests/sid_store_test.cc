// SidStore unit + differential suite. The store is a denormalized copy of
// the metadata DB's committed rows, so the load-bearing property is
// equivalence: over fuzzed worlds, every sid must resolve to exactly the
// row the B+-tree returns (and to nothing where the B+-tree has nothing)
// — through build, delta-overlay reads, fold commits, checkpoint round
// trips and post-crash WAL replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/tweet_generator.h"
#include "storage/sid_store.h"

namespace tklus {
namespace {

namespace fs = std::filesystem;
using datagen::GeneratedCorpus;
using datagen::TweetGenerator;

fs::path TempDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("tklus_sidstore_" + tag + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);
  return dir;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

TweetMeta Row(int64_t sid, int64_t uid, double lat = 1.0, double lon = 2.0,
              int64_t ruid = TweetMeta::kNone,
              int64_t rsid = TweetMeta::kNone) {
  return TweetMeta{sid, uid, lat, lon, ruid, rsid};
}

void ExpectRowEq(const std::optional<TweetMeta>& got,
                 const std::optional<TweetMeta>& want,
                 const std::string& context) {
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (!want.has_value()) return;
  EXPECT_EQ(got->sid, want->sid) << context;
  EXPECT_EQ(got->uid, want->uid) << context;
  EXPECT_EQ(got->lat, want->lat) << context;
  EXPECT_EQ(got->lon, want->lon) << context;
  EXPECT_EQ(got->ruid, want->ruid) << context;
  EXPECT_EQ(got->rsid, want->rsid) << context;
}

// ------------------------------------------------------------------ unit

TEST(SidStoreTest, EmptyStoreResolvesNothing) {
  SidStore store;
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_FALSE(store.Resolve(0).has_value());
  EXPECT_FALSE(store.Resolve(123).has_value());
  std::vector<std::optional<TweetMeta>> metas(2);
  const std::vector<int64_t> sids = {1, 2};
  EXPECT_EQ(store.ResolveBatch(sids, &metas), 0u);
  EXPECT_FALSE(metas[0].has_value());
  EXPECT_FALSE(metas[1].has_value());
}

TEST(SidStoreTest, PutResolveWithGapsAndBounds) {
  SidStore store;
  store.Put(Row(100, 7));
  store.Put(Row(105, 8));  // slots 101..104 stay invalid
  EXPECT_EQ(store.entry_count(), 2u);
  ExpectRowEq(store.Resolve(100), Row(100, 7), "sid 100");
  ExpectRowEq(store.Resolve(105), Row(105, 8), "sid 105");
  EXPECT_FALSE(store.Resolve(102).has_value());  // gap slot
  EXPECT_FALSE(store.Resolve(99).has_value());   // below base
  EXPECT_FALSE(store.Resolve(106).has_value());  // above top
  EXPECT_FALSE(store.Resolve(INT64_MIN).has_value());
  EXPECT_FALSE(store.Resolve(INT64_MAX).has_value());
}

TEST(SidStoreTest, PutOverwritesInPlace) {
  SidStore store;
  store.Put(Row(10, 1, 1.0, 1.0));
  store.Put(Row(10, 2, 3.0, 4.0, 9, 5));
  EXPECT_EQ(store.entry_count(), 1u);
  ExpectRowEq(store.Resolve(10), Row(10, 2, 3.0, 4.0, 9, 5), "overwrite");
}

TEST(SidStoreTest, PutBelowBaseShiftsTheArray) {
  SidStore store;
  store.Put(Row(50, 1));
  store.Put(Row(47, 2));  // front-shift path (rebuild scans, not appends)
  EXPECT_EQ(store.entry_count(), 2u);
  ExpectRowEq(store.Resolve(47), Row(47, 2), "shifted base");
  ExpectRowEq(store.Resolve(50), Row(50, 1), "original row");
  EXPECT_FALSE(store.Resolve(48).has_value());
  EXPECT_FALSE(store.Resolve(46).has_value());
}

TEST(SidStoreTest, ResolveBatchFillsOnlyPresentSlots) {
  SidStore store;
  store.Put(Row(20, 1));
  store.Put(Row(22, 2));
  const std::vector<int64_t> sids = {19, 20, 21, 22, 23};
  std::vector<std::optional<TweetMeta>> metas(sids.size());
  // Pre-filled slots must be overwritten only where the store has a row
  // (the delta/db overlay relies on untouched misses).
  EXPECT_EQ(store.ResolveBatch(sids, &metas), 2u);
  EXPECT_FALSE(metas[0].has_value());
  ExpectRowEq(metas[1], Row(20, 1), "batch sid 20");
  EXPECT_FALSE(metas[2].has_value());
  ExpectRowEq(metas[3], Row(22, 2), "batch sid 22");
  EXPECT_FALSE(metas[4].has_value());
}

TEST(SidStoreTest, StreamRoundTripPreservesEverything) {
  SidStore store;
  store.Put(Row(1000, 5, -43.1, 172.6, 4, 999));
  store.Put(Row(1004, 6));
  std::ostringstream out(std::ios::binary);
  store.Save(out);
  std::istringstream in(out.str(), std::ios::binary);
  Result<SidStore> loaded = SidStore::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entry_count(), 2u);
  ExpectRowEq(loaded->Resolve(1000), Row(1000, 5, -43.1, 172.6, 4, 999),
              "roundtrip 1000");
  ExpectRowEq(loaded->Resolve(1004), Row(1004, 6), "roundtrip 1004");
  EXPECT_FALSE(loaded->Resolve(1002).has_value());
}

TEST(SidStoreTest, TruncatedStreamIsCorruptionNotGarbage) {
  SidStore store;
  store.Put(Row(1, 1));
  store.Put(Row(2, 2));
  std::ostringstream out(std::ios::binary);
  store.Save(out);
  const std::string bytes = out.str();
  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{20}, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    Result<SidStore> loaded = SidStore::Load(in);
    ASSERT_FALSE(loaded.ok()) << "keep=" << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "keep=" << keep;
  }
}

TEST(SidStoreTest, FileRoundTripAndMissingFile) {
  const fs::path dir = TempDir("file");
  const std::string path = (dir / "sid_store.bin").string();
  SidStore store;
  store.Put(Row(7, 70));
  ASSERT_TRUE(store.SaveToFile(path).ok());
  Result<SidStore> loaded = SidStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRowEq(loaded->Resolve(7), Row(7, 70), "file roundtrip");
  Result<SidStore> missing =
      SidStore::LoadFromFile((dir / "absent.bin").string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  fs::remove_all(dir);
}

// A geohash shard owns roughly every N-th sid of the global range. The
// slot index + row array must answer exactly like a dense sid-indexed
// table over that range, for owned sids, the gaps between them and the
// sids just outside.
TEST(SidStoreTest, ShardSliceResolvesLikeTheDenseLayout) {
  constexpr int64_t kBase = 5000;
  constexpr int64_t kSpan = 4000;
  std::vector<std::optional<TweetMeta>> dense(kSpan);
  SidStore store;
  for (int64_t sid = kBase + 3; sid < kBase + kSpan; sid += 4) {
    const TweetMeta row =
        Row(sid, sid % 97, 0.001 * static_cast<double>(sid), -1.0,
            sid % 5 == 0 ? sid % 89 : TweetMeta::kNone,
            sid % 5 == 0 ? sid - 7 : TweetMeta::kNone);
    store.Put(row);
    dense[sid - kBase] = row;
  }
  EXPECT_EQ(store.entry_count(), static_cast<uint64_t>(kSpan / 4));
  std::vector<int64_t> sids;
  for (int64_t sid = kBase - 8; sid < kBase + kSpan + 8; ++sid) {
    const std::optional<TweetMeta> want =
        sid >= kBase && sid < kBase + kSpan ? dense[sid - kBase]
                                            : std::nullopt;
    ExpectRowEq(store.Resolve(sid), want, "sid " + std::to_string(sid));
    sids.push_back(sid);
  }
  std::vector<std::optional<TweetMeta>> metas(sids.size());
  EXPECT_EQ(store.ResolveBatch(sids, &metas), store.entry_count());
  for (size_t i = 0; i < sids.size(); ++i) {
    ExpectRowEq(metas[i], store.Resolve(sids[i]),
                "batch sid " + std::to_string(sids[i]));
  }
}

// The store pays 4 bytes per sid in its span plus one row per sid it
// holds: a quarter-populated span must cost far less than the dense
// 49 bytes per sid, and far less than the same span fully populated.
TEST(SidStoreTest, SizeGrowsWithRowsOwnedNotSidSpan) {
  constexpr int64_t kSpan = 40000;
  SidStore sparse;
  SidStore full;
  for (int64_t sid = 0; sid < kSpan; ++sid) {
    if (sid % 4 == 0) sparse.Put(Row(sid, 1));
    full.Put(Row(sid, 1));
  }
  // Vector capacity may run up to twice the length.
  EXPECT_LE(sparse.size_bytes(),
            2 * (kSpan * sizeof(uint32_t) + (kSpan / 4) * sizeof(TweetMeta)));
  EXPECT_LT(sparse.size_bytes(), full.size_bytes() / 2);
  // A reserved bulk load pays exactly 4 bytes per sid plus one row each,
  // against 49 per sid for a dense row table.
  SidStore reserved;
  reserved.Reserve(0, kSpan - 1, kSpan / 4);
  for (int64_t sid = 0; sid < kSpan; sid += 4) reserved.Put(Row(sid, 1));
  EXPECT_EQ(reserved.size_bytes(),
            kSpan * sizeof(uint32_t) + (kSpan / 4) * sizeof(TweetMeta));
  EXPECT_LT(reserved.size_bytes(), kSpan * (sizeof(TweetMeta) + 1) / 3);
  // Adding rows inside the span grows the rows, not the slot index.
  const uint64_t before = sparse.size_bytes();
  for (int64_t sid = 1; sid < kSpan; sid += 4) sparse.Put(Row(sid, 2));
  EXPECT_LE(sparse.size_bytes() - before,
            2 * (kSpan / 4) * sizeof(TweetMeta));
}

TEST(SidStoreTest, SparseFrontShiftAndOverwriteKeepRowsAttached) {
  SidStore store;
  for (int64_t sid = 400; sid < 440; sid += 4) store.Put(Row(sid, sid));
  store.Put(Row(101, 7));              // below base: the slot index shifts
  store.Put(Row(420, 99, 5.0, 6.0));   // overwrite after the shift
  store.Put(Row(101, 8));              // overwrite the shifted-in row
  EXPECT_EQ(store.entry_count(), 11u);
  ExpectRowEq(store.Resolve(101), Row(101, 8), "shifted-in row");
  ExpectRowEq(store.Resolve(420), Row(420, 99, 5.0, 6.0), "overwritten row");
  for (int64_t sid = 400; sid < 440; sid += 4) {
    if (sid == 420) continue;
    ExpectRowEq(store.Resolve(sid), Row(sid, sid),
                "sid " + std::to_string(sid));
  }
  EXPECT_FALSE(store.Resolve(100).has_value());
  EXPECT_FALSE(store.Resolve(102).has_value());
  EXPECT_FALSE(store.Resolve(401).has_value());
}

// sid_store.bin as the dense-slot implementation wrote it (rows 1000,
// 1004, 1008 Put in the order 1004, 1000, 1008): 36-byte header, nine
// 48-byte slots (TweetMeta{} where absent), nine validity bytes.
std::string DenseV1Image() {
  const std::string hex =
    "544c55534452533101000000e803000000000000090000000000000003000000"
    "00000000e8030000000000000500000000000000cdcccccccc8c45c033333333"
    "339365400400000000000000e703000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000ffffffffffffffffffffffff"
    "ffffffff00000000000000000000000000000000000000000000000000000000"
    "00000000ffffffffffffffffffffffffffffffff000000000000000000000000"
    "0000000000000000000000000000000000000000ffffffffffffffffffffffff"
    "ffffffffec030000000000000600000000000000000000000000e03f00000000"
    "0000f4bfffffffffffffffffffffffffffffffff000000000000000000000000"
    "0000000000000000000000000000000000000000ffffffffffffffffffffffff"
    "ffffffff00000000000000000000000000000000000000000000000000000000"
    "00000000ffffffffffffffffffffffffffffffff000000000000000000000000"
    "0000000000000000000000000000000000000000ffffffffffffffffffffffff"
    "fffffffff0030000000000000700000000000000000000000000244000000000"
    "000034400500000000000000e803000000000000010000000100000001";
  std::string bytes;
  for (size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(SidStoreTest, DenseV1ArtifactLoadsAndSavesByteForByte) {
  const std::string image = DenseV1Image();
  ASSERT_EQ(image.size(), 36u + 9 * (sizeof(TweetMeta) + 1));
  std::istringstream in(image, std::ios::binary);
  Result<SidStore> loaded = SidStore::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->entry_count(), 3u);
  ExpectRowEq(loaded->Resolve(1000), Row(1000, 5, -43.1, 172.6, 4, 999),
              "sid 1000");
  ExpectRowEq(loaded->Resolve(1004), Row(1004, 6, 0.5, -1.25), "sid 1004");
  ExpectRowEq(loaded->Resolve(1008), Row(1008, 7, 10.0, 20.0, 5, 1000),
              "sid 1008");
  for (const int64_t absent : {999, 1001, 1003, 1007, 1009}) {
    EXPECT_FALSE(loaded->Resolve(absent).has_value()) << absent;
  }
  std::ostringstream out(std::ios::binary);
  loaded->Save(out);
  EXPECT_EQ(out.str(), image);
  // A store built by Puts in the same order writes the same image.
  SidStore built;
  built.Put(Row(1004, 6, 0.5, -1.25));
  built.Put(Row(1000, 5, -43.1, 172.6, 4, 999));
  built.Put(Row(1008, 7, 10.0, 20.0, 5, 1000));
  std::ostringstream rebuilt(std::ios::binary);
  built.Save(rebuilt);
  EXPECT_EQ(rebuilt.str(), image);
  // So does one reserved for the range first (the Build path).
  SidStore reserved;
  reserved.Reserve(1000, 1008, 3);
  reserved.Put(Row(1004, 6, 0.5, -1.25));
  reserved.Put(Row(1000, 5, -43.1, 172.6, 4, 999));
  reserved.Put(Row(1008, 7, 10.0, 20.0, 5, 1000));
  std::ostringstream from_reserved(std::ios::binary);
  reserved.Save(from_reserved);
  EXPECT_EQ(from_reserved.str(), image);
}

// Row numbers live in uint32 slots: a header declaring more rows than
// that is refused before anything is allocated. (Put CHECK-fails at the
// same limit; reaching it takes ~200 GB of rows, so no test drives it.)
TEST(SidStoreTest, RowCountAboveSlotRangeIsCorruption) {
  std::string image = DenseV1Image();
  const uint64_t too_many = SidStore::kMaxRows + 1;
  std::memcpy(image.data() + 28, &too_many, sizeof(too_many));
  std::istringstream in(image, std::ios::binary);
  Result<SidStore> loaded = SidStore::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------- differential

GeneratedCorpus FuzzWorld(uint64_t seed, size_t tweets) {
  TweetGenerator::Options opts;
  opts.seed = seed;
  opts.num_users = 80;
  opts.num_tweets = tweets;
  opts.num_cities = 2;
  return TweetGenerator::Generate(opts);
}

// Every sid the world contains resolves identically through the store and
// the B+-tree; sids around and between them agree on absence.
void ExpectStoreMatchesDb(TkLusEngine& engine, const Dataset& posts,
                          const std::string& context) {
  const SidStore& store = engine.sid_store();
  MetadataDb& db = engine.metadata_db();
  EXPECT_EQ(store.entry_count(), db.row_count()) << context;
  int64_t min_sid = INT64_MAX, max_sid = INT64_MIN;
  for (const Post& p : posts.posts()) {
    min_sid = std::min(min_sid, p.sid);
    max_sid = std::max(max_sid, p.sid);
    Result<std::optional<TweetMeta>> want = db.SelectBySid(p.sid);
    ASSERT_TRUE(want.ok()) << context;
    ExpectRowEq(store.Resolve(p.sid), *want,
                context + " sid " + std::to_string(p.sid));
  }
  for (const int64_t absent : {min_sid - 1, max_sid + 1, max_sid + 12345}) {
    Result<std::optional<TweetMeta>> want = db.SelectBySid(absent);
    ASSERT_TRUE(want.ok()) << context;
    ExpectRowEq(store.Resolve(absent), *want,
                context + " absent sid " + std::to_string(absent));
  }
}

TEST(SidStoreDifferentialTest, MatchesMetadataDbOverFuzzedWorlds) {
  for (const uint64_t seed : {3u, 17u, 99u}) {
    GeneratedCorpus corpus = FuzzWorld(seed, 600);
    auto engine = TkLusEngine::Build(corpus.dataset);
    ASSERT_TRUE(engine.ok()) << "seed " << seed;
    ExpectStoreMatchesDb(**engine, corpus.dataset,
                         "seed " + std::to_string(seed));
  }
}

TEST(SidStoreDifferentialTest, DeltaOverlayAndFoldStayExact) {
  GeneratedCorpus corpus = FuzzWorld(7, 900);
  Dataset seed_data;
  Dataset appended;
  for (size_t i = 0; i < corpus.dataset.size(); ++i) {
    (i < 600 ? seed_data : appended).Add(corpus.dataset.posts()[i]);
  }
  TkLusEngine::Options opts;
  opts.delta_merge_posts = 0;  // keep the append in the delta until asked
  auto engine = TkLusEngine::Build(seed_data, opts);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AppendBatch(appended).ok());

  // Delta-resident posts are NOT in the store (it mirrors committed DB
  // rows only); queries still see them via the delta overlay, and a
  // steady-state query takes zero B+-tree fallback rows.
  ExpectStoreMatchesDb(**engine, seed_data, "pre-fold");
  for (const Post& p : appended.posts()) {
    EXPECT_FALSE((*engine)->sid_store().Resolve(p.sid).has_value())
        << "delta sid " << p.sid << " leaked into the store";
  }
  TkLusQuery q;
  q.location = corpus.city_centers[0];
  q.radius_km = 15.0;
  q.keywords = {"hotel", "restaurant"};
  q.semantics = Semantics::kOr;
  q.k = 10;
  auto before_fold = (*engine)->Query(q);
  ASSERT_TRUE(before_fold.ok());
  EXPECT_EQ(before_fold->stats.sid_store_fallback_rows, 0u);

  // Fold, then the whole world must be committed and store == DB again —
  // and the results byte-identical to an engine built from everything.
  ASSERT_TRUE((*engine)->MergeNow().ok());
  ExpectStoreMatchesDb(**engine, corpus.dataset, "post-fold");
  auto after_fold = (*engine)->Query(q);
  ASSERT_TRUE(after_fold.ok());
  EXPECT_EQ(after_fold->stats.sid_store_fallback_rows, 0u);
  auto oracle = TkLusEngine::Build(corpus.dataset);
  ASSERT_TRUE(oracle.ok());
  auto want = (*oracle)->Query(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(after_fold->users.size(), want->users.size());
  for (size_t i = 0; i < want->users.size(); ++i) {
    EXPECT_EQ(after_fold->users[i].uid, want->users[i].uid) << "rank " << i;
    EXPECT_NEAR(after_fold->users[i].score, want->users[i].score, 1e-9)
        << "rank " << i;
  }
}

TEST(SidStoreDifferentialTest, PostCrashReplayedStateStaysExact) {
  GeneratedCorpus corpus = FuzzWorld(23, 900);
  Dataset seed_data;
  Dataset appended;
  for (size_t i = 0; i < corpus.dataset.size(); ++i) {
    (i < 700 ? seed_data : appended).Add(corpus.dataset.posts()[i]);
  }
  const fs::path dir = TempDir("crash");
  const fs::path crash = TempDir("crash_image");
  {
    TkLusEngine::Options opts;
    opts.working_dir = dir.string();
    opts.delta_merge_posts = 0;
    auto engine = TkLusEngine::Build(seed_data, opts);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    ASSERT_TRUE((*engine)->AppendBatch(appended).ok());
    CopyDir(dir, crash);  // kill: the append lives only in the WAL
  }
  auto reopened = TkLusEngine::Open(crash.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The store restored from the artifact covers the checkpointed rows;
  // replayed posts serve from the delta overlay.
  ExpectStoreMatchesDb(**reopened, seed_data, "post-crash");
  EXPECT_EQ((*reopened)->delta_index().post_count(), appended.size());
  TkLusQuery q;
  q.location = corpus.city_centers[0];
  q.radius_km = 15.0;
  q.keywords = {"hotel"};
  q.k = 10;
  auto have = (*reopened)->Query(q);
  ASSERT_TRUE(have.ok());
  EXPECT_EQ(have->stats.sid_store_fallback_rows, 0u);
  auto oracle = TkLusEngine::Build(corpus.dataset);
  ASSERT_TRUE(oracle.ok());
  auto want = (*oracle)->Query(q);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(have->users.size(), want->users.size());
  for (size_t i = 0; i < want->users.size(); ++i) {
    EXPECT_EQ(have->users[i].uid, want->users[i].uid) << "rank " << i;
    EXPECT_NEAR(have->users[i].score, want->users[i].score, 1e-9)
        << "rank " << i;
  }
  reopened->reset();
  fs::remove_all(dir);
  fs::remove_all(crash);
}

}  // namespace
}  // namespace tklus
