// Crash-recovery harness for the durable ingestion path (WAL + delta
// index + checkpoint). The tests simulate crashes by copying the working
// directory while the engine is still alive — the copy holds exactly the
// bytes a kill at that instant would leave — then reopening the copy and
// comparing query-visible state against a naive oracle engine built from
// precisely the *acked* appends. The contract under test:
//
//   zero acked loss:  every batch whose AppendBatch returned OK is fully
//                     visible after recovery;
//   no phantoms:      no post from a batch whose AppendBatch failed is
//                     visible after recovery;
//   graceful tails:   torn/bit-flipped WAL tails and half-written
//                     checkpoints truncate/roll back, never fail Open.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/tweet_generator.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace tklus {
namespace {

namespace fs = std::filesystem;
using datagen::GeneratedCorpus;
using datagen::TweetGenerator;

fs::path TempDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("tklus_walrec_" + tag + "_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);
  return dir;
}

void CopyDir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void FlipByte(const fs::path& path, int64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(f.tellg());
  const int64_t pos = offset >= 0 ? offset : size + offset;
  ASSERT_GE(pos, 0);
  ASSERT_LT(pos, size);
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(pos);
  f.write(&byte, 1);
}

// ------------------------------------------------------------- WAL unit

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = TempDir("wal"); }
  void TearDown() override { fs::remove_all(dir_); }
  std::string LogPath() const { return (dir_ / "wal.log").string(); }

  fs::path dir_;
};

TEST_F(WalTest, AppendReopenRoundTrip) {
  const std::vector<std::string> payloads = {"alpha", "", "gamma gamma"};
  {
    auto wal = Wal::Open(LogPath(), Wal::Options{});
    ASSERT_TRUE(wal.ok());
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*wal)->Append(p).ok());
    }
    EXPECT_EQ((*wal)->record_count(), payloads.size());
  }
  auto wal = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->recovery_info().records, payloads.size());
  EXPECT_EQ((*wal)->recovery_info().truncated_bytes, 0u);
  EXPECT_EQ((*wal)->TakeRecoveredRecords(), payloads);
  EXPECT_TRUE((*wal)->TakeRecoveredRecords().empty());  // moved out once
}

TEST_F(WalTest, TruncateEmptiesTheLog) {
  auto wal = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("one").ok());
  ASSERT_TRUE((*wal)->Append("two").ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_EQ((*wal)->record_count(), 0u);
  ASSERT_TRUE((*wal)->Append("three").ok());
  wal->reset();
  auto reopened = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TakeRecoveredRecords(),
            std::vector<std::string>{"three"});
}

TEST_F(WalTest, TornTailIsTruncatedNotFatal) {
  {
    auto wal = Wal::Open(LogPath(), Wal::Options{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("first").ok());
    ASSERT_TRUE((*wal)->Append("second").ok());
  }
  // A crash mid-append leaves a partial frame; recovery must drop exactly
  // the tail and keep every intact record.
  const uintmax_t intact = fs::file_size(LogPath());
  {
    std::ofstream out(LogPath(), std::ios::binary | std::ios::app);
    out.write("\x2a\x00\x00\x00junk", 8);  // half a frame
  }
  auto wal = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->recovery_info().records, 2u);
  EXPECT_EQ((*wal)->recovery_info().truncated_bytes, 8u);
  EXPECT_EQ(fs::file_size(LogPath()), intact);  // tail physically dropped
  const auto records = (*wal)->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(records[1], "second");
}

TEST_F(WalTest, BitFlipEndsTheDurablePrefix) {
  {
    auto wal = Wal::Open(LogPath(), Wal::Options{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("record-one").ok());
    ASSERT_TRUE((*wal)->Append("record-two").ok());
    ASSERT_TRUE((*wal)->Append("record-three").ok());
  }
  // Flip a payload byte of the *second* record: recovery keeps record one
  // only — a record after a damaged one is unreachable by design.
  const uint64_t header = 12, frame = 8;
  FlipByte(LogPath(),
           static_cast<int64_t>(header + frame + strlen("record-one") + frame +
                                2));
  auto wal = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(wal.ok());
  const auto records = (*wal)->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "record-one");
  EXPECT_GT((*wal)->recovery_info().truncated_bytes, 0u);
}

TEST_F(WalTest, DamagedHeaderIsFatal) {
  { ASSERT_TRUE(Wal::Open(LogPath(), Wal::Options{}).ok()); }
  FlipByte(LogPath(), 3);
  auto wal = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, FailedAppendAndFsyncLeaveNoPhantom) {
  FaultInjector faults(7);
  Wal::Options options;
  options.fault_injector = &faults;
  auto wal = Wal::Open(LogPath(), options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("durable").ok());
  faults.FailNext(faults::kWalAppend, FaultKind::kPermanent, 1);
  EXPECT_FALSE((*wal)->Append("lost-before-write").ok());
  faults.FailNext(faults::kWalFsync, FaultKind::kPermanent, 1);
  EXPECT_FALSE((*wal)->Append("lost-before-sync").ok());
  EXPECT_EQ((*wal)->record_count(), 1u);
  wal->reset();
  auto reopened = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(reopened.ok());
  // Neither failed append may ever be replayed.
  EXPECT_EQ((*reopened)->TakeRecoveredRecords(),
            std::vector<std::string>{"durable"});
  EXPECT_EQ((*reopened)->recovery_info().truncated_bytes, 0u);
}

TEST_F(WalTest, TornAppendHealsAndNeverResurfaces) {
  FaultInjector faults(11);
  Wal::Options options;
  options.fault_injector = &faults;
  auto wal = Wal::Open(LogPath(), options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("acked-one").ok());
  faults.FailNext(faults::kWalAppend, FaultKind::kTornWrite, 1);
  EXPECT_FALSE((*wal)->Append("torn-and-lost").ok());
  // Crash image taken right now: the partial frame is on disk.
  const fs::path crash = dir_ / "crash.log";
  fs::copy_file(LogPath(), crash);
  {
    auto recovered = Wal::Open(crash.string(), Wal::Options{});
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ((*recovered)->TakeRecoveredRecords(),
              std::vector<std::string>{"acked-one"});
  }
  // The live WAL heals the dirty tail on the next append.
  ASSERT_TRUE((*wal)->Append("acked-two").ok());
  wal->reset();
  auto reopened = Wal::Open(LogPath(), Wal::Options{});
  ASSERT_TRUE(reopened.ok());
  const auto records = (*reopened)->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "acked-one");
  EXPECT_EQ(records[1], "acked-two");
  EXPECT_EQ((*reopened)->recovery_info().truncated_bytes, 0u);
}

// ------------------------------------------------- engine crash harness

GeneratedCorpus MakeCorpus(size_t tweets = 2400) {
  TweetGenerator::Options opts;
  opts.num_users = 150;
  opts.num_tweets = tweets;
  opts.num_cities = 2;
  return TweetGenerator::Generate(opts);
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset out;
  for (size_t i = begin; i < end && i < all.size(); ++i) {
    out.Add(all.posts()[i]);
  }
  return out;
}

Dataset Concat(const Dataset& a, const Dataset& b) {
  Dataset out = a;
  for (const Post& p : b.posts()) out.Add(p);
  return out;
}

// Query-visible equality against a freshly built oracle: same top-k uids
// and scores for a spread of keywords and both rankings. Pruning is
// disabled on both sides — the hot-term sets were frozen at different
// times, and pruning must anyway never change results.
void ExpectMatchesOracle(TkLusEngine& got, const Dataset& acked,
                         const GeoPoint& center, const std::string& context) {
  auto oracle = TkLusEngine::Build(acked);
  ASSERT_TRUE(oracle.ok()) << context;
  EXPECT_NEAR(got.bounds().global_bound(), (*oracle)->bounds().global_bound(),
              1e-9)
      << context;
  got.processor().mutable_options().enable_pruning = false;
  (*oracle)->processor().mutable_options().enable_pruning = false;
  for (const char* kw : {"hotel", "restaurant", "cafe"}) {
    for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
      TkLusQuery q;
      q.location = center;
      q.radius_km = 15.0;
      q.keywords = {kw};
      q.k = 10;
      q.ranking = ranking;
      auto want = (*oracle)->Query(q);
      auto have = got.Query(q);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(have.ok()) << context;
      ASSERT_EQ(have->users.size(), want->users.size())
          << context << " kw=" << kw;
      for (size_t i = 0; i < want->users.size(); ++i) {
        EXPECT_EQ(have->users[i].uid, want->users[i].uid)
            << context << " kw=" << kw << " rank " << i;
        EXPECT_NEAR(have->users[i].score, want->users[i].score, 1e-9)
            << context << " kw=" << kw << " rank " << i;
      }
    }
  }
}

// No post of an unacked batch may be visible anywhere after recovery.
void ExpectNoPhantoms(TkLusEngine& engine, const Dataset& unacked,
                      const std::string& context) {
  for (const Post& p : unacked.posts()) {
    auto row = engine.metadata_db().SelectBySid(p.sid);
    ASSERT_TRUE(row.ok()) << context;
    EXPECT_FALSE(row->has_value()) << context << " phantom sid " << p.sid;
    EXPECT_EQ(engine.delta_index().FindBySid(p.sid), nullptr)
        << context << " phantom delta sid " << p.sid;
  }
}

class EngineRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeCorpus();
    seed_ = Slice(corpus_.dataset, 0, 1800);
    for (size_t b = 0; b < kBatches; ++b) {
      batches_[b] = Slice(corpus_.dataset, 1800 + b * 150, 1800 + (b + 1) * 150);
    }
  }

  TkLusEngine::Options DurableOptions(const fs::path& dir,
                                      FaultInjector* faults) {
    TkLusEngine::Options opts;
    opts.working_dir = dir.string();
    opts.fault_injector = faults;
    opts.delta_merge_posts = 0;  // merges only where the test asks
    return opts;
  }

  static constexpr size_t kBatches = 4;
  GeneratedCorpus corpus_;
  Dataset seed_;
  Dataset batches_[kBatches];
};

TEST_F(EngineRecoveryTest, AckedAppendsSurviveKillWithoutCheckpoint) {
  const fs::path dir = TempDir("nockpt");
  const fs::path crash = TempDir("nockpt_crash");
  Dataset acked = seed_;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());  // establish checkpoint
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    // Kill: copy the directory while the engine is alive — nothing that
    // only lives in memory (delta, buffer pool) makes it into the image.
    CopyDir(dir, crash);
  }
  auto reopened = TkLusEngine::Open(crash.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->delta_index().post_count(), kBatches * 150);
  ExpectMatchesOracle(**reopened, acked, corpus_.city_centers[0], "kill");
  // And the recovered engine can keep ingesting + folding.
  ASSERT_TRUE((*reopened)->MergeNow().ok());
  EXPECT_TRUE((*reopened)->delta_index().empty());
  ExpectMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                      "kill+merge");
  fs::remove_all(dir);
  fs::remove_all(crash);
}

// The kill-point sweep: a deterministic fault fires at every WAL and
// checkpoint I/O site, mid-run; the crash image must recover to exactly
// the acked prefix, with nothing from the failed batch.
struct KillPoint {
  const char* site;
  FaultKind kind;
  const char* label;
  // Leading bytes of `site`'s address in the build whose test names were
  // recorded (see PrintTo).
  const char* recorded = "";
};

// Prints the name each kill point was first recorded under. With no
// PrintTo, gtest printed the struct's raw bytes, so each test name held the
// address of `site` — cut off by the 100-character name limit of the
// recorded list. Such an address changes with every link; pinning the
// recorded bytes keeps every kill point's name the same in every build.
void PrintTo(const KillPoint& kp, std::ostream* os) {
  *os << "24-byte object <" << kp.recorded;
}

class KillPointSweepTest : public EngineRecoveryTest,
                           public ::testing::WithParamInterface<KillPoint> {};

TEST_P(KillPointSweepTest, RecoversToAckedPrefix) {
  const KillPoint kp = GetParam();
  FaultInjector faults(42);
  const fs::path dir = TempDir(std::string("kp_") + kp.label);
  const fs::path crash = TempDir(std::string("kp_crash_") + kp.label);
  Dataset acked = seed_;
  Dataset unacked;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, &faults));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    ASSERT_TRUE((*engine)->AppendBatch(batches_[0]).ok());
    acked = Concat(acked, batches_[0]);

    // Arm the kill point; it fires inside the next append or merge.
    faults.FailNext(kp.site, kp.kind, 1);
    const Status append_status = (*engine)->AppendBatch(batches_[1]);
    if (append_status.ok()) {
      acked = Concat(acked, batches_[1]);
    } else {
      unacked = Concat(unacked, batches_[1]);
    }
    const Status merge_status = (*engine)->MergeNow();
    // Whether or not the merge survived, later appends must still ack
    // durably on the healed WAL tail.
    const Status tail_status = (*engine)->AppendBatch(batches_[2]);
    if (tail_status.ok()) {
      acked = Concat(acked, batches_[2]);
    } else {
      unacked = Concat(unacked, batches_[2]);
    }
    EXPECT_TRUE(append_status.ok() || !unacked.posts().empty());
    (void)merge_status;  // any outcome is legal; recovery decides below
    CopyDir(dir, crash);
  }
  auto reopened = TkLusEngine::Open(crash.string());
  ASSERT_TRUE(reopened.ok())
      << kp.label << ": " << reopened.status().ToString();
  ExpectMatchesOracle(**reopened, acked, corpus_.city_centers[0], kp.label);
  ExpectNoPhantoms(**reopened, unacked, kp.label);
  fs::remove_all(dir);
  fs::remove_all(crash);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, KillPointSweepTest,
    ::testing::Values(
        KillPoint{faults::kWalAppend, FaultKind::kPermanent, "wal_append",
                  "60-6E 46"},
        KillPoint{faults::kWalAppend, FaultKind::kTornWrite, "wal_torn",
                  "60-6E 46-1"},
        KillPoint{faults::kWalFsync, FaultKind::kPermanent, "wal_fsync",
                  "50-6E 46-"},
        KillPoint{faults::kWalTruncate, FaultKind::kPermanent,
                  "wal_truncate", "40-6E"},
        KillPoint{faults::kFileWrite, FaultKind::kPermanent, "file_write",
                  "30-6E 46"},
        KillPoint{faults::kFileWrite, FaultKind::kTornWrite, "file_torn",
                  "30-6E 46-"},
        KillPoint{faults::kFileRename, FaultKind::kPermanent, "file_rename",
                  "20-6E 4"},
        KillPoint{faults::kDiskWrite, FaultKind::kPermanent, "disk_write",
                  "70-6E 46"},
        KillPoint{faults::kDiskWrite, FaultKind::kTornWrite, "disk_torn",
                  "70-6E 46-"},
        // Crash exactly between index.bin and sid_store.bin: the image
        // holds a folded DB but a stale sid store, which Open's lockstep
        // check must catch and rebuild.
        KillPoint{faults::kSidStoreWrite, FaultKind::kPermanent,
                  "sid_store_write", "10-"}),
    [](const ::testing::TestParamInfo<KillPoint>& info) {
      return info.param.label;
    });

// Every inter-artifact crash window of the checkpoint protocol, built
// deterministically: artifacts are written in the fixed order meta.db ->
// dfs.bin -> index.bin -> sid_store.bin -> engine.bin -> WAL truncate,
// so a crash image with the first j artifacts new, the rest old, and the
// pre-truncate WAL is exactly "the crash hit after artifact j".
TEST_F(EngineRecoveryTest, EveryCheckpointCrashWindowRecovers) {
  const fs::path dir = TempDir("ckptwin");
  Dataset acked = seed_;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    for (size_t b = 0; b < 2; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    const fs::path before = TempDir("ckptwin_before");
    CopyDir(dir, before);  // old artifacts + WAL holding both batches
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    const fs::path after = TempDir("ckptwin_after");
    CopyDir(dir, after);  // new artifacts + truncated WAL

    const char* artifacts[] = {"meta.db", "dfs.bin", "index.bin",
                               "sid_store.bin", "engine.bin"};
    for (size_t j = 0; j <= 5; ++j) {
      const fs::path window = TempDir("ckptwin_" + std::to_string(j));
      CopyDir(before, window);  // start from the pre-checkpoint state
      for (size_t i = 0; i < j; ++i) {
        fs::copy_file(after / artifacts[i], window / artifacts[i],
                      fs::copy_options::overwrite_existing);
      }
      auto reopened = TkLusEngine::Open(window.string());
      ASSERT_TRUE(reopened.ok())
          << "window " << j << ": " << reopened.status().ToString();
      ExpectMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                          "ckpt window " + std::to_string(j));
      reopened->reset();
      fs::remove_all(window);
    }
    fs::remove_all(before);
    fs::remove_all(after);
  }
  fs::remove_all(dir);
}

// The sid-store checkpoint artifact is derived data: byte damage in its
// payload or footer — and outright deletion — must fall back to a full
// rebuild from the B+-tree inside Open. Never fatal, never stale rows.
TEST_F(EngineRecoveryTest, DamagedSidStoreArtifactFallsBackToRebuild) {
  Counter* rebuilds = MetricsRegistry::Global().GetCounter(
      "tklus_sid_store_rebuilds_total",
      "Full sid-store rebuilds from the metadata DB "
      "(missing/torn/stale checkpoint artifact).");
  const fs::path dir = TempDir("sidstore");
  Dataset acked = seed_;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    for (size_t b = 0; b < 2; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    // Fold + re-checkpoint so sid_store.bin covers the appended batches
    // and the WAL is empty — recovery below rides on the artifact alone.
    ASSERT_TRUE((*engine)->MergeNow().ok());
  }
  for (const std::string damage : {"flip_payload", "flip_footer", "delete"}) {
    const fs::path crash = TempDir("sidstore_" + damage);
    CopyDir(dir, crash);
    if (damage == "flip_payload") {
      FlipByte(crash / "sid_store.bin", 64);  // an entry byte: CRC mismatch
    } else if (damage == "flip_footer") {
      FlipByte(crash / "sid_store.bin", -4);  // footer magic: not an artifact
    } else {
      fs::remove(crash / "sid_store.bin");  // kNotFound
    }
    const uint64_t rebuilds_before = rebuilds->Value();
    auto reopened = TkLusEngine::Open(crash.string());
    ASSERT_TRUE(reopened.ok())
        << damage << ": " << reopened.status().ToString();
    EXPECT_EQ(rebuilds->Value() - rebuilds_before, 1u) << damage;
    EXPECT_EQ((*reopened)->sid_store().entry_count(),
              (*reopened)->metadata_db().row_count())
        << damage;
    ExpectMatchesOracle(**reopened, acked, corpus_.city_centers[0], damage);
    // The rebuilt store serves the whole candidate set: no B+-tree
    // fallback rows on a steady-state query.
    TkLusQuery q;
    q.location = corpus_.city_centers[0];
    q.radius_km = 15.0;
    q.keywords = {"hotel"};
    q.k = 10;
    auto result = (*reopened)->Query(q);
    ASSERT_TRUE(result.ok()) << damage;
    EXPECT_GT(result->stats.sid_store_hits, 0u) << damage;
    EXPECT_EQ(result->stats.sid_store_fallback_rows, 0u) << damage;
    reopened->reset();
    fs::remove_all(crash);
  }
  fs::remove_all(dir);
}

// Cut the WAL at every record boundary (and ragged offsets around them):
// recovery must always succeed and always yield an exact *prefix* of the
// appended batches.
TEST_F(EngineRecoveryTest, RecordBoundaryCutsRecoverPrefixes) {
  const fs::path dir = TempDir("cuts");
  Dataset with_batches[kBatches + 1];
  with_batches[0] = seed_;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      with_batches[b + 1] = Concat(with_batches[b], batches_[b]);
    }
    // Parse the frame boundaries out of the log (header 12, frame 8+len).
    const std::string log = ReadAll(dir / "wal.log");
    std::vector<uint64_t> boundaries = {12};
    uint64_t pos = 12;
    while (pos + 8 <= log.size()) {
      uint32_t len = 0;
      std::memcpy(&len, log.data() + pos, 4);
      pos += 8 + len;
      boundaries.push_back(pos);
    }
    ASSERT_EQ(boundaries.size(), kBatches + 1);  // one record per batch
    ASSERT_EQ(pos, log.size());

    for (size_t b = 0; b < boundaries.size(); ++b) {
      for (const int64_t ragged : {int64_t{0}, int64_t{-3}, int64_t{5}}) {
        const int64_t cut = static_cast<int64_t>(boundaries[b]) + ragged;
        if (cut < 12 || cut > static_cast<int64_t>(log.size())) continue;
        // A ragged cut past a boundary keeps only whole records before it;
        // cutting *into* record b's frame keeps b-1 batches.
        const size_t expect_batches =
            (ragged <= 0) ? (b == 0 ? 0 : b - (ragged < 0 ? 1 : 0)) : b;
        const fs::path crash = TempDir("cut_" + std::to_string(b) + "_" +
                                       std::to_string(ragged + 3));
        CopyDir(dir, crash);
        fs::resize_file(crash / "wal.log", static_cast<uintmax_t>(cut));
        auto reopened = TkLusEngine::Open(crash.string());
        ASSERT_TRUE(reopened.ok())
            << "cut@" << cut << ": " << reopened.status().ToString();
        EXPECT_EQ((*reopened)->delta_index().post_count(),
                  expect_batches * 150)
            << "cut@" << cut;
        ExpectMatchesOracle(**reopened, with_batches[expect_batches],
                            corpus_.city_centers[0],
                            "cut@" + std::to_string(cut));
        reopened->reset();
        fs::remove_all(crash);
      }
    }
  }
  fs::remove_all(dir);
}

TEST_F(EngineRecoveryTest, BitFlippedWalTailDropsOnlyTheTail) {
  const fs::path dir = TempDir("flip");
  const fs::path crash = TempDir("flip_crash");
  Dataset first_two = Concat(Concat(seed_, batches_[0]), batches_[1]);
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    for (size_t b = 0; b < 3; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
    }
    CopyDir(dir, crash);
  }
  // Silent media damage in the last record: recovery keeps the first two
  // batches and reports (not fails on) the loss of the third.
  FlipByte(crash / "wal.log", -64);
  auto reopened = TkLusEngine::Open(crash.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->delta_index().post_count(), 2u * 150);
  ExpectMatchesOracle(**reopened, first_two, corpus_.city_centers[0], "flip");
  fs::remove_all(dir);
  fs::remove_all(crash);
}

// --------------------------------------------- sharded engine recovery

// Same query-visible oracle as ExpectMatchesOracle, against the sharded
// scatter-gather path (pruning off at the router's plane).
void ExpectShardedMatchesOracle(ShardedEngine& got, const Dataset& acked,
                                const GeoPoint& center,
                                const std::string& context) {
  auto oracle = TkLusEngine::Build(acked);
  ASSERT_TRUE(oracle.ok()) << context;
  EXPECT_NEAR(got.bounds().global_bound(), (*oracle)->bounds().global_bound(),
              1e-9)
      << context;
  got.plane_processor().mutable_options().enable_pruning = false;
  (*oracle)->processor().mutable_options().enable_pruning = false;
  for (const char* kw : {"hotel", "restaurant", "cafe"}) {
    for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
      TkLusQuery q;
      q.location = center;
      q.radius_km = 15.0;
      q.keywords = {kw};
      q.k = 10;
      q.ranking = ranking;
      auto want = (*oracle)->Query(q);
      auto have = got.Query(q);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(have.ok()) << context << ": " << have.status().ToString();
      ASSERT_FALSE(have->degraded) << context;
      ASSERT_EQ(have->users.size(), want->users.size())
          << context << " kw=" << kw;
      for (size_t i = 0; i < want->users.size(); ++i) {
        EXPECT_EQ(have->users[i].uid, want->users[i].uid)
            << context << " kw=" << kw << " rank " << i;
        EXPECT_NEAR(have->users[i].score, want->users[i].score, 1e-9)
            << context << " kw=" << kw << " rank " << i;
      }
    }
  }
}

ShardedEngine::Options ShardedDurableOptions(const fs::path& dir) {
  ShardedEngine::Options options;
  options.num_shards = 4;
  options.working_dir = dir.string();
  options.shard.delta_merge_posts = 0;  // merges only where the test asks
  return options;
}

// Kill after acked appends, before any checkpoint: every shard replays
// its own WAL independently and Open re-absorbs the recovered deltas
// into the plane past the router.bin watermark.
TEST_F(EngineRecoveryTest, ShardedAckedBatchesSurviveKill) {
  const fs::path dir = TempDir("shard");
  const fs::path crash = TempDir("shard_crash");
  Dataset acked = seed_;
  {
    auto engine = ShardedEngine::Build(seed_, ShardedDurableOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Save().ok());  // establish router.bin + shards
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    CopyDir(dir, crash);  // kill: the batches live only in per-shard WALs
  }
  auto reopened = ShardedEngine::Open(crash.string(), ShardedEngine::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), 4);
  // No shard lost its slice: the deltas partition the appended batches.
  size_t delta_posts = 0;
  for (int s = 0; s < 4; ++s) {
    delta_posts += (*reopened)->shard(s).delta_index().post_count();
  }
  EXPECT_EQ(delta_posts, kBatches * 150);
  ExpectShardedMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                             "sharded kill");
  ASSERT_TRUE((*reopened)->MergeAllNow().ok());
  ExpectShardedMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                             "sharded kill+merge");
  fs::remove_all(dir);
  fs::remove_all(crash);
}

// Kill points inside ONE shard's WAL during a cross-shard append. The
// batch as a whole is not acked; shards ordered before the victim keep
// their durable sub-batches (the documented cross-shard non-atomicity),
// the victim holds no phantom, and the healed tail acks later batches.
// Recovery yields exactly the durable posts — nothing more, nothing less.
TEST_F(EngineRecoveryTest, ShardedWalKillPointsRecoverDurableSubBatches) {
  constexpr int kVictim = 1;
  const KillPoint kill_points[] = {
      {faults::kWalAppend, FaultKind::kPermanent, "wal_append"},
      {faults::kWalAppend, FaultKind::kTornWrite, "wal_torn"},
      {faults::kWalFsync, FaultKind::kPermanent, "wal_fsync"},
  };
  for (const KillPoint& kp : kill_points) {
    FaultInjector faults(42);
    const fs::path dir = TempDir(std::string("shardkp_") + kp.label);
    const fs::path crash = TempDir(std::string("shardkp_crash_") + kp.label);
    Dataset acked = seed_;
    Dataset unacked_victim;
    {
      ShardedEngine::Options options = ShardedDurableOptions(dir);
      options.shard_options_hook = [&faults](int shard,
                                             TkLusEngine::Options* o) {
        if (shard == kVictim) o->fault_injector = &faults;
      };
      auto engine = ShardedEngine::Build(seed_, options);
      ASSERT_TRUE(engine.ok()) << kp.label;
      ASSERT_TRUE((*engine)->Save().ok()) << kp.label;
      ASSERT_TRUE((*engine)->AppendBatch(batches_[0]).ok()) << kp.label;
      acked = Concat(acked, batches_[0]);

      // The fan-out routes sub-batches to shards in shard order and fails
      // fast: exactly the shards before the victim land theirs durably.
      const std::vector<Dataset> parts = (*engine)->router().PartitionPosts(
          batches_[1], (*engine)->options().shard.geohash_length);
      ASSERT_FALSE(parts[kVictim].posts().empty()) << kp.label;

      faults.FailNext(kp.site, kp.kind, 1);
      ASSERT_FALSE((*engine)->AppendBatch(batches_[1]).ok()) << kp.label;
      for (int s = 0; s < kVictim; ++s) acked = Concat(acked, parts[s]);
      unacked_victim = parts[kVictim];

      // The victim's WAL tail heals on the next append; the batch acks.
      ASSERT_TRUE((*engine)->AppendBatch(batches_[2]).ok()) << kp.label;
      acked = Concat(acked, batches_[2]);
      CopyDir(dir, crash);
    }
    auto reopened =
        ShardedEngine::Open(crash.string(), ShardedEngine::Options{});
    ASSERT_TRUE(reopened.ok())
        << kp.label << ": " << reopened.status().ToString();
    ExpectShardedMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                               kp.label);
    // The victim shard holds nothing from the sub-batch that died on it.
    TkLusEngine& victim = (*reopened)->shard(kVictim);
    for (const Post& p : unacked_victim.posts()) {
      auto row = victim.metadata_db().SelectBySid(p.sid);
      ASSERT_TRUE(row.ok()) << kp.label;
      EXPECT_FALSE(row->has_value()) << kp.label << " phantom sid " << p.sid;
      EXPECT_EQ(victim.delta_index().FindBySid(p.sid), nullptr)
          << kp.label << " phantom delta sid " << p.sid;
    }
    fs::remove_all(dir);
    fs::remove_all(crash);
  }
}

// A checkpoint sweep dying on one shard splits the fleet: shards before
// the victim truncated their WALs (their batches now live only in their
// checkpoints) while the victim and later shards still carry theirs.
// router.bin was written *first*, so its watermark covers everything the
// early shards truncated, and Open stitches both halves back together.
TEST_F(EngineRecoveryTest, ShardedSaveFailingMidSweepStillRecovers) {
  constexpr int kVictim = 2;
  FaultInjector faults(7);
  const fs::path dir = TempDir("shardsave");
  const fs::path crash = TempDir("shardsave_crash");
  Dataset acked = seed_;
  {
    ShardedEngine::Options options = ShardedDurableOptions(dir);
    options.shard_options_hook = [&faults](int shard, TkLusEngine::Options* o) {
      if (shard == kVictim) o->fault_injector = &faults;
    };
    auto engine = ShardedEngine::Build(seed_, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Save().ok());
    for (size_t b = 0; b < 2; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    faults.FailNext(faults::kFileWrite, FaultKind::kPermanent, 1);
    EXPECT_FALSE((*engine)->Save().ok());
    // Shards before the victim are checkpointed + truncated.
    for (int s = 0; s < kVictim; ++s) {
      EXPECT_EQ((*engine)->shard(s).wal().record_count(), 0u) << "shard " << s;
    }
    EXPECT_GT((*engine)->shard(kVictim).wal().record_count(), 0u);
    CopyDir(dir, crash);
  }
  auto reopened = ShardedEngine::Open(crash.string(), ShardedEngine::Options{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectShardedMatchesOracle(**reopened, acked, corpus_.city_centers[0],
                             "mid-sweep save");
  fs::remove_all(dir);
  fs::remove_all(crash);
}

TEST_F(EngineRecoveryTest, RecoveryMetricsAndBackgroundMergeCheckpoint) {
  Counter* recovered = MetricsRegistry::Global().GetCounter(
      "tklus_wal_recovered_records_total",
      "Intact WAL records read back during engine recovery.");
  const uint64_t recovered_before = recovered->Value();
  const fs::path dir = TempDir("metrics");
  Dataset acked = seed_;
  {
    auto engine = TkLusEngine::Build(seed_, DurableOptions(dir, nullptr));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Save(dir.string()).ok());
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*engine)->AppendBatch(batches_[b]).ok());
      acked = Concat(acked, batches_[b]);
    }
    EXPECT_EQ((*engine)->wal().record_count(), kBatches);
  }
  auto reopened = TkLusEngine::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(recovered->Value() - recovered_before, kBatches);
  // MergeNow on an opened engine re-checkpoints and truncates the WAL; a
  // second Open replays nothing and still matches the oracle.
  ASSERT_TRUE((*reopened)->MergeNow().ok());
  EXPECT_EQ((*reopened)->wal().record_count(), 0u);
  EXPECT_TRUE((*reopened)->delta_index().empty());
  reopened->reset();
  auto again = TkLusEngine::Open(dir.string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(recovered->Value() - recovered_before, kBatches);  // unchanged
  ExpectMatchesOracle(**again, acked, corpus_.city_centers[0], "post-merge");
  again->reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tklus
