#ifndef TKLUS_DFS_DFS_H_
#define TKLUS_DFS_DFS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/status.h"

namespace tklus {

// A simulated HDFS (Figure 3): files are split into fixed-size blocks that
// are placed round-robin on named data nodes. The simulation keeps block
// bytes in memory but faithfully models the quantities the paper measures —
// total stored bytes ("index size in HDFS", Fig. 6), per-node placement,
// and the sequential-vs-random read pattern of postings fetches ("random
// access to inverted index in HDFS is disk-based", §VI-B1).
//
// Fault model: every block carries one CRC32 per kBytesPerChecksum-byte
// chunk, and a read verifies the chunks its extent overlaps (at-rest
// corruption surfaces as kCorruption, never as garbage postings); a data
// node can be marked down (reads of its blocks fail with kUnavailable
// until it recovers); and an attached FaultInjector can fail or corrupt
// reads probabilistically or on schedule (site faults::kDfsRead).
class SimulatedDfs {
 public:
  // HDFS's `dfs.bytes-per-checksum`: a short postings read pays for the
  // chunks it touches, not for its whole block.
  static constexpr size_t kBytesPerChecksum = 512;

  struct Options {
    size_t block_size = 64 * 1024;
    int num_data_nodes = 3;  // Table III: one master + two slaves
  };

  struct NodeStats {
    uint64_t blocks_stored = 0;
    uint64_t bytes_stored = 0;
    uint64_t block_reads = 0;
    uint64_t seeks = 0;  // non-sequential block accesses
  };

  explicit SimulatedDfs(Options options);
  SimulatedDfs() : SimulatedDfs(Options{}) {}

  SimulatedDfs(const SimulatedDfs&) = delete;
  SimulatedDfs& operator=(const SimulatedDfs&) = delete;

  // Appends `data` to `path`, creating the file if needed.
  Status Append(const std::string& path, std::string_view data);

  // Reads `length` bytes at `offset` into `out`. Fails past EOF.
  Status ReadAt(const std::string& path, uint64_t offset, uint64_t length,
                std::string* out);

  // Whole-file read.
  Result<std::string> ReadAll(const std::string& path);

  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  Result<uint64_t> FileSize(const std::string& path) const;

  // Paths with the given prefix, sorted (the namespace is a sorted map,
  // like an HDFS directory listing).
  std::vector<std::string> List(const std::string& prefix = "") const;

  // Serializes the whole namespace + contents (options, files, data) so
  // an index built once can be reopened later. Load replaces this DFS's
  // state; block placement and checksums are re-derived deterministically.
  Status Save(std::ostream& out) const;
  Status Load(std::istream& in);

  uint64_t total_bytes() const;
  size_t file_count() const;
  // Consistent snapshot of the per-node placement/read stats, copied under
  // the lock (a reference would race with concurrent appends/reads).
  std::vector<NodeStats> node_stats() const;
  void ResetStats();

  // Marks one data node dead (reads of blocks stored there return
  // kUnavailable) or alive again. Writes still place blocks everywhere —
  // the simulation has no replication, so a down node makes part of the
  // namespace unreadable, exactly the degraded state federation must
  // survive.
  Status SetNodeDown(int node, bool down);
  bool node_is_down(int node) const;

  // Wires a shared fault injector into the read path (site
  // faults::kDfsRead); nullptr detaches. The injector must outlive this
  // DFS.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const;

  const Options& options() const { return options_; }

 private:
  struct Block {
    int node = 0;
    // crc[i] is the CRC32 of data[i * kBytesPerChecksum, +kBytesPerChecksum)
    // (the last chunk may be short). Append extends only the chunks it
    // writes into; ReadAt verifies only the chunks it returns bytes from.
    std::vector<uint32_t> crc;
    std::string data;
  };
  struct File {
    std::vector<Block> blocks;
    uint64_t size = 0;
  };

  Options options_;
  // `mu_` guards the whole namespace: every public entry point takes it
  // before touching any field below, so readers never observe a file with
  // blocks mid-append or stats mid-update.
  mutable Mutex mu_;
  std::map<std::string, File> files_ TKLUS_GUARDED_BY(mu_);
  std::vector<NodeStats> nodes_ TKLUS_GUARDED_BY(mu_);
  std::vector<char> node_down_ TKLUS_GUARDED_BY(mu_);
  int next_node_ TKLUS_GUARDED_BY(mu_) = 0;
  FaultInjector* faults_ TKLUS_GUARDED_BY(mu_) = nullptr;
  // Last block index read per (node) — for seek accounting.
  mutable std::vector<int64_t> last_block_read_ TKLUS_GUARDED_BY(mu_);
};

}  // namespace tklus

#endif  // TKLUS_DFS_DFS_H_
