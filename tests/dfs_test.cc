#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "obs/metrics.h"

namespace tklus {
namespace {

TEST(DfsTest, AppendAndReadAll) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("a/b.txt", "hello ").ok());
  ASSERT_TRUE(dfs.Append("a/b.txt", "world").ok());
  Result<std::string> content = dfs.ReadAll("a/b.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello world");
  Result<uint64_t> size = dfs.FileSize("a/b.txt");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
}

TEST(DfsTest, ReadAtOffsets) {
  SimulatedDfs::Options opts;
  opts.block_size = 8;  // force multi-block files
  SimulatedDfs dfs(opts);
  const std::string payload = "0123456789abcdefghijklmnopqrstuvwxyz";
  ASSERT_TRUE(dfs.Append("f", payload).ok());
  std::string out;
  ASSERT_TRUE(dfs.ReadAt("f", 0, 5, &out).ok());
  EXPECT_EQ(out, "01234");
  ASSERT_TRUE(dfs.ReadAt("f", 6, 10, &out).ok());
  EXPECT_EQ(out, payload.substr(6, 10));
  ASSERT_TRUE(dfs.ReadAt("f", 30, 6, &out).ok());
  EXPECT_EQ(out, payload.substr(30, 6));
}

TEST(DfsTest, ReadPastEofRejected) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("f", "abc").ok());
  std::string out;
  EXPECT_EQ(dfs.ReadAt("f", 2, 5, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dfs.ReadAt("missing", 0, 1, &out).code(), StatusCode::kNotFound);
}

TEST(DfsTest, BlocksRoundRobinAcrossNodes) {
  SimulatedDfs::Options opts;
  opts.block_size = 4;
  opts.num_data_nodes = 3;
  SimulatedDfs dfs(opts);
  ASSERT_TRUE(dfs.Append("f", std::string(36, 'x')).ok());  // 9 blocks
  const auto& nodes = dfs.node_stats();
  ASSERT_EQ(nodes.size(), 3u);
  for (const auto& node : nodes) {
    EXPECT_EQ(node.blocks_stored, 3u);
    EXPECT_EQ(node.bytes_stored, 12u);
  }
  EXPECT_EQ(dfs.total_bytes(), 36u);
}

TEST(DfsTest, SeekAccounting) {
  SimulatedDfs::Options opts;
  opts.block_size = 4;
  opts.num_data_nodes = 1;
  SimulatedDfs dfs(opts);
  ASSERT_TRUE(dfs.Append("f", std::string(40, 'y')).ok());
  std::string out;
  // Sequential whole-file read: first block is a seek, the rest are not.
  ASSERT_TRUE(dfs.ReadAt("f", 0, 40, &out).ok());
  EXPECT_EQ(dfs.node_stats()[0].block_reads, 10u);
  EXPECT_EQ(dfs.node_stats()[0].seeks, 1u);
  dfs.ResetStats();
  // Two distant random reads: two seeks.
  ASSERT_TRUE(dfs.ReadAt("f", 0, 2, &out).ok());
  ASSERT_TRUE(dfs.ReadAt("f", 36, 2, &out).ok());
  EXPECT_EQ(dfs.node_stats()[0].seeks, 2u);
}

TEST(DfsTest, ListByPrefix) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("index/part-00000", "a").ok());
  ASSERT_TRUE(dfs.Append("index/part-00001", "b").ok());
  ASSERT_TRUE(dfs.Append("other/file", "c").ok());
  const auto files = dfs.List("index/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "index/part-00000");
  EXPECT_EQ(files[1], "index/part-00001");
  EXPECT_EQ(dfs.List().size(), 3u);
  EXPECT_EQ(dfs.file_count(), 3u);
}

TEST(DfsTest, DeleteReclaimsBytes) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("f", "12345").ok());
  EXPECT_EQ(dfs.total_bytes(), 5u);
  ASSERT_TRUE(dfs.Delete("f").ok());
  EXPECT_EQ(dfs.total_bytes(), 0u);
  EXPECT_FALSE(dfs.Exists("f"));
  EXPECT_EQ(dfs.Delete("f").code(), StatusCode::kNotFound);
}

TEST(DfsTest, EmptyAppendIsNoop) {
  SimulatedDfs dfs;
  ASSERT_TRUE(dfs.Append("f", "").ok());
  // File exists (namespace entry) with zero size.
  EXPECT_TRUE(dfs.Exists("f"));
  Result<uint64_t> size = dfs.FileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

// ---------------------------------------------------------- fault model

TEST(DfsFaultTest, DownNodeMakesItsBlocksUnavailable) {
  SimulatedDfs::Options opts;
  opts.block_size = 4;
  opts.num_data_nodes = 2;
  SimulatedDfs dfs(opts);
  // Blocks alternate node 0, 1, 0, 1: "aaaa" on 0, "bbbb" on 1, ...
  ASSERT_TRUE(dfs.Append("f", "aaaabbbbcccc").ok());

  ASSERT_TRUE(dfs.SetNodeDown(1, true).ok());
  EXPECT_TRUE(dfs.node_is_down(1));
  // A read confined to node-0 blocks still works.
  std::string out;
  EXPECT_TRUE(dfs.ReadAt("f", 0, 4, &out).ok());
  EXPECT_EQ(out, "aaaa");
  // A read touching a node-1 block is unavailable, not an I/O error.
  Status blocked = dfs.ReadAt("f", 4, 4, &out);
  EXPECT_EQ(blocked.code(), StatusCode::kUnavailable);

  // Recovery restores the data unchanged.
  ASSERT_TRUE(dfs.SetNodeDown(1, false).ok());
  ASSERT_TRUE(dfs.ReadAt("f", 0, 12, &out).ok());
  EXPECT_EQ(out, "aaaabbbbcccc");

  EXPECT_FALSE(dfs.SetNodeDown(7, true).ok());  // no such node
}

TEST(DfsFaultTest, AtRestCorruptionFailsChecksum) {
  SimulatedDfs dfs;
  FaultInjector injector(/*seed=*/31);
  dfs.set_fault_injector(&injector);
  ASSERT_TRUE(dfs.Append("f", "some postings bytes").ok());

  std::string out;
  ASSERT_TRUE(dfs.ReadAt("f", 0, 4, &out).ok());

  // Corrupt the stored block: every subsequent read of it fails with
  // kCorruption (the damage is at rest, not transient).
  injector.FailNext(faults::kDfsRead, FaultKind::kCorruption, 1);
  EXPECT_EQ(dfs.ReadAt("f", 0, 4, &out).code(), StatusCode::kCorruption);
  EXPECT_EQ(dfs.ReadAt("f", 0, 4, &out).code(), StatusCode::kCorruption);
}

TEST(DfsFaultTest, InjectedReadFaultsCarryTheirCodes) {
  SimulatedDfs dfs;
  FaultInjector injector(/*seed=*/33);
  dfs.set_fault_injector(&injector);
  ASSERT_TRUE(dfs.Append("f", "payload").ok());

  std::string out;
  injector.FailNext(faults::kDfsRead, FaultKind::kTransient, 1);
  EXPECT_EQ(dfs.ReadAt("f", 0, 7, &out).code(), StatusCode::kUnavailable);
  injector.FailNext(faults::kDfsRead, FaultKind::kPermanent, 1);
  EXPECT_EQ(dfs.ReadAt("f", 0, 7, &out).code(), StatusCode::kIoError);
  EXPECT_TRUE(dfs.ReadAt("f", 0, 7, &out).ok());
  EXPECT_EQ(out, "payload");
}

TEST(DfsFaultTest, LoadResetsDownNodesAndChecksums) {
  SimulatedDfs::Options opts;
  opts.block_size = 8;
  SimulatedDfs dfs(opts);
  ASSERT_TRUE(dfs.Append("f", "0123456789abcdef").ok());
  ASSERT_TRUE(dfs.SetNodeDown(0, true).ok());

  std::stringstream buffer;
  ASSERT_TRUE(dfs.Save(buffer).ok());
  SimulatedDfs restored;
  ASSERT_TRUE(restored.Load(buffer).ok());
  // Node state is runtime-only: a restored DFS starts healthy, and the
  // re-derived block checksums verify.
  for (int n = 0; n < restored.options().num_data_nodes; ++n) {
    EXPECT_FALSE(restored.node_is_down(n));
  }
  std::string out;
  ASSERT_TRUE(restored.ReadAt("f", 0, 16, &out).ok());
  EXPECT_EQ(out, "0123456789abcdef");
}

// ------------------------------------------------------- chunk checksums

constexpr uint64_t kChunk = SimulatedDfs::kBytesPerChecksum;

std::string RandomBytes(Rng& rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.Next());
  return bytes;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name, "")->Value();
}

// Shadow-state oracle: seeded random appends and reads against a plain
// string per file holding what the file must contain. Block sizes below,
// at and between multiples of the chunk size make appends and reads start,
// end and straddle chunk and block boundaries; a Save/Load round trip
// mid-sequence re-derives every chunk CRC from the image.
TEST(DfsChunkTest, RandomOpsMatchShadowAcrossChunksAndBlocks) {
  for (const size_t block_size : {100, 512, 1000, 1536, 4096}) {
    SCOPED_TRACE("block_size " + std::to_string(block_size));
    Rng rng(block_size);
    SimulatedDfs::Options opts;
    opts.block_size = block_size;
    auto dfs = std::make_unique<SimulatedDfs>(opts);
    std::map<std::string, std::string> shadow;
    for (int op = 0; op < 800; ++op) {
      if (op == 400) {
        std::stringstream image;
        ASSERT_TRUE(dfs->Save(image).ok());
        dfs = std::make_unique<SimulatedDfs>();
        ASSERT_TRUE(dfs->Load(image).ok());
        ASSERT_EQ(dfs->options().block_size, block_size);
      }
      const std::string path = rng.Bernoulli(0.5) ? "a" : "b";
      std::string& want = shadow[path];
      if (want.empty() || rng.Bernoulli(0.3)) {
        const std::string bytes =
            RandomBytes(rng, rng.UniformInt(uint64_t{1300}));
        ASSERT_TRUE(dfs->Append(path, bytes).ok());
        want += bytes;
        continue;
      }
      const uint64_t offset = rng.UniformInt(want.size());
      // Mostly postings-sized reads, sometimes long ones.
      const uint64_t max_len = rng.Bernoulli(0.8) ? 160 : want.size();
      const uint64_t length =
          rng.UniformInt(std::min(max_len, want.size() - offset) + 1);
      const uint64_t returned_before =
          CounterValue("tklus_dfs_bytes_returned_total");
      const uint64_t verified_before =
          CounterValue("tklus_dfs_bytes_verified_total");
      std::string out;
      ASSERT_TRUE(dfs->ReadAt(path, offset, length, &out).ok());
      ASSERT_EQ(out, want.substr(offset, length))
          << path << " @" << offset << "+" << length;
      const uint64_t returned =
          CounterValue("tklus_dfs_bytes_returned_total") - returned_before;
      const uint64_t verified =
          CounterValue("tklus_dfs_bytes_verified_total") - verified_before;
      const uint64_t blocks =
          length == 0 ? 0
                      : (offset + length - 1) / block_size -
                            offset / block_size + 1;
      EXPECT_EQ(returned, length);
      // Every returned byte lies in a verified chunk, and at most two
      // partial chunks per block are verified beyond what is returned.
      EXPECT_GE(verified, returned);
      EXPECT_LE(verified, returned + 2 * kChunk * blocks)
          << path << " @" << offset << "+" << length;
    }
  }
}

// A kDfsRead corruption flips a stored byte inside the extent the read
// returns, so the read that drew it fails, and so does every later read
// of the damaged chunk; reads of the other chunks are unaffected.
TEST(DfsChunkTest, ReadFlipFailsThatReadAndEveryLaterReadOfTheChunk) {
  SimulatedDfs::Options opts;
  opts.block_size = 2048;
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SimulatedDfs dfs(opts);
    FaultInjector injector(/*seed=*/trial);
    dfs.set_fault_injector(&injector);
    const std::string payload = RandomBytes(rng, 5000);
    ASSERT_TRUE(dfs.Append("f", payload).ok());

    const uint64_t offset = rng.UniformInt(payload.size());
    const uint64_t length =
        1 + rng.UniformInt(std::min<uint64_t>(700, payload.size() - offset));
    std::string out;
    injector.FailNext(faults::kDfsRead, FaultKind::kCorruption, 1);
    ASSERT_EQ(dfs.ReadAt("f", offset, length, &out).code(),
              StatusCode::kCorruption);
    ASSERT_EQ(injector.injected(faults::kDfsRead), 1u);

    // Exactly one chunk the read overlapped is damaged; every later read
    // of it (whole or one byte) fails, every other chunk reads clean.
    int damaged = 0;
    for (uint64_t begin = 0; begin < payload.size(); begin += kChunk) {
      const uint64_t n = std::min<uint64_t>(kChunk, payload.size() - begin);
      const Status whole = dfs.ReadAt("f", begin, n, &out);
      const bool overlaps = begin < offset + length && offset < begin + n;
      if (!whole.ok()) {
        EXPECT_EQ(whole.code(), StatusCode::kCorruption);
        EXPECT_TRUE(overlaps) << "chunk @" << begin;
        ++damaged;
        EXPECT_EQ(dfs.ReadAt("f", begin + n - 1, 1, &out).code(),
                  StatusCode::kCorruption);
        EXPECT_EQ(dfs.ReadAt("f", begin, n, &out).code(),
                  StatusCode::kCorruption);
      } else {
        EXPECT_EQ(out, payload.substr(begin, n));
      }
    }
    EXPECT_EQ(damaged, 1);
  }
}

// An append into a chunk extends its stored CRC rather than recomputing
// it from the stored bytes, so it cannot launder an earlier at-rest flip.
TEST(DfsChunkTest, AppendDoesNotLaunderADamagedTailChunk) {
  SimulatedDfs dfs;
  FaultInjector injector(/*seed=*/5);
  dfs.set_fault_injector(&injector);
  ASSERT_TRUE(dfs.Append("f", std::string(300, 'p')).ok());
  std::string out;
  injector.FailNext(faults::kDfsRead, FaultKind::kCorruption, 1);
  ASSERT_EQ(dfs.ReadAt("f", 0, 300, &out).code(), StatusCode::kCorruption);
  ASSERT_TRUE(dfs.Append("f", std::string(100, 'q')).ok());
  EXPECT_EQ(dfs.ReadAt("f", 0, 400, &out).code(), StatusCode::kCorruption);
  // Bytes appended into a fresh chunk verify on their own.
  ASSERT_TRUE(dfs.Append("f", std::string(2 * kChunk, 'r')).ok());
  ASSERT_TRUE(dfs.ReadAt("f", kChunk, kChunk, &out).ok());
  EXPECT_EQ(out, std::string(kChunk, 'r'));
}

}  // namespace
}  // namespace tklus
