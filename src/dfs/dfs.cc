#include "dfs/dfs.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/crc32.h"
#include "common/serde.h"
#include "obs/metrics.h"

namespace tklus {

namespace {

// Process-wide DFS counters across every SimulatedDfs instance; the
// per-node breakdown stays on node_stats().
struct DfsMetrics {
  Counter* block_reads;
  Counter* read_faults;
  Counter* bytes_returned;
  Counter* bytes_verified;

  static const DfsMetrics& Get() {
    static const DfsMetrics* metrics = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      auto* m = new DfsMetrics();
      m->block_reads = reg.GetCounter("tklus_dfs_block_reads_total",
                                      "DFS blocks read across all nodes.");
      m->read_faults = reg.GetCounter(
          "tklus_dfs_read_faults_total",
          "DFS reads aborted by an injected transient fault.");
      // verified / returned is the read-amplification of checksumming:
      // at most two partial chunks per block a read touches.
      m->bytes_returned = reg.GetCounter(
          "tklus_dfs_bytes_returned_total",
          "Bytes returned by successful DFS reads.");
      m->bytes_verified = reg.GetCounter(
          "tklus_dfs_bytes_verified_total",
          "Bytes checksummed by successful DFS reads (whole chunks).");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

SimulatedDfs::SimulatedDfs(Options options) : options_(options) {
  if (options_.num_data_nodes < 1) options_.num_data_nodes = 1;
  if (options_.block_size == 0) options_.block_size = 64 * 1024;
  nodes_.resize(options_.num_data_nodes);
  node_down_.assign(options_.num_data_nodes, 0);
  last_block_read_.assign(options_.num_data_nodes, -2);
}

Status SimulatedDfs::Append(const std::string& path, std::string_view data) {
  MutexLock lock(&mu_);
  File& file = files_[path];
  size_t consumed = 0;
  while (consumed < data.size()) {
    if (file.blocks.empty() ||
        file.blocks.back().data.size() >= options_.block_size) {
      Block block;
      block.node = next_node_;
      next_node_ = (next_node_ + 1) % options_.num_data_nodes;
      ++nodes_[block.node].blocks_stored;
      file.blocks.push_back(std::move(block));
    }
    Block& tail = file.blocks.back();
    const size_t room = options_.block_size - tail.data.size();
    const size_t take = std::min(room, data.size() - consumed);
    // Extend the CRC of each chunk the new bytes land in. Stored bytes are
    // never re-checksummed, so an at-rest flip in them stays detectable.
    for (size_t end = consumed + take; consumed < end;) {
      const size_t chunk = tail.data.size() / kBytesPerChecksum;
      const size_t n = std::min(
          end - consumed, (chunk + 1) * kBytesPerChecksum - tail.data.size());
      if (chunk == tail.crc.size()) tail.crc.push_back(0);
      tail.crc[chunk] = Crc32(data.data() + consumed, n, tail.crc[chunk]);
      tail.data.append(data.substr(consumed, n));
      consumed += n;
    }
    nodes_[tail.node].bytes_stored += take;
    file.size += take;
  }
  return Status::Ok();
}

Status SimulatedDfs::ReadAt(const std::string& path, uint64_t offset,
                            uint64_t length, std::string* out) {
  MutexLock lock(&mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  File& file = it->second;
  if (offset + length > file.size) {
    return Status::OutOfRange("read past EOF of " + path);
  }
  if (faults_ != nullptr) {
    Status fault = faults_->MaybeFail(faults::kDfsRead, path);
    if (!fault.ok()) {
      DfsMetrics::Get().read_faults->Increment();
      return fault;
    }
  }
  out->clear();
  out->reserve(length);
  uint64_t block_idx = offset / options_.block_size;
  uint64_t in_block = offset % options_.block_size;
  uint64_t remaining = length;
  uint64_t verified = 0;
  while (remaining > 0) {
    Block& block = file.blocks[block_idx];
    if (node_down_[block.node]) {
      return Status::Unavailable("data node " + std::to_string(block.node) +
                                 " down while reading " + path);
    }
    NodeStats& node = nodes_[block.node];
    ++node.block_reads;
    DfsMetrics::Get().block_reads->Increment();
    // A read is a seek unless it continues right after the previous block
    // read on the same node.
    if (last_block_read_[block.node] + 1 !=
        static_cast<int64_t>(block_idx)) {
      ++node.seeks;
    }
    last_block_read_[block.node] = static_cast<int64_t>(block_idx);
    const uint64_t take =
        std::min<uint64_t>(remaining, block.data.size() - in_block);
    if (faults_ != nullptr) {
      // At-rest corruption of bytes this read returns: the stored bytes
      // themselves are damaged, so the chunk check below (and every later
      // read of that chunk) sees the flip.
      faults_->MaybeCorrupt(faults::kDfsRead, block.data.data() + in_block,
                            take);
    }
    // Verify exactly the chunks [in_block, in_block + take) overlaps.
    for (uint64_t chunk = in_block / kBytesPerChecksum;
         chunk * kBytesPerChecksum < in_block + take; ++chunk) {
      const uint64_t begin = chunk * kBytesPerChecksum;
      const uint64_t n =
          std::min<uint64_t>(kBytesPerChecksum, block.data.size() - begin);
      if (Crc32(block.data.data() + begin, n) != block.crc[chunk]) {
        return Status::Corruption(
            "chunk checksum mismatch in " + path + " (block " +
            std::to_string(block_idx) + " chunk " + std::to_string(chunk) +
            " on node " + std::to_string(block.node) + ")");
      }
      verified += n;
    }
    out->append(block.data, in_block, take);
    remaining -= take;
    in_block = 0;
    ++block_idx;
  }
  DfsMetrics::Get().bytes_returned->Increment(length);
  DfsMetrics::Get().bytes_verified->Increment(verified);
  return Status::Ok();
}

Result<std::string> SimulatedDfs::ReadAll(const std::string& path) {
  uint64_t size = 0;
  {
    MutexLock lock(&mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::NotFound("no such file: " + path);
    }
    size = it->second.size;
  }
  std::string out;
  TKLUS_RETURN_IF_ERROR(ReadAt(path, 0, size, &out));
  return out;
}

bool SimulatedDfs::Exists(const std::string& path) const {
  MutexLock lock(&mu_);
  return files_.count(path) > 0;
}

Status SimulatedDfs::Delete(const std::string& path) {
  MutexLock lock(&mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  for (const Block& block : it->second.blocks) {
    nodes_[block.node].bytes_stored -= block.data.size();
    --nodes_[block.node].blocks_stored;
  }
  files_.erase(it);
  return Status::Ok();
}

Result<uint64_t> SimulatedDfs::FileSize(const std::string& path) const {
  MutexLock lock(&mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + path);
  }
  return it->second.size;
}

std::vector<std::string> SimulatedDfs::List(const std::string& prefix) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

namespace {
constexpr uint64_t kDfsMagic = 0x73666474736b6c54ULL;  // "Tklstfds"
}  // namespace

Status SimulatedDfs::Save(std::ostream& out) const {
  MutexLock lock(&mu_);
  serde::WriteU64(out, kDfsMagic);
  serde::WriteU64(out, options_.block_size);
  serde::WriteU64(out, static_cast<uint64_t>(options_.num_data_nodes));
  serde::WriteU64(out, files_.size());
  for (const auto& [path, file] : files_) {
    serde::WriteString(out, path);
    serde::WriteU64(out, file.size);
    for (const Block& block : file.blocks) {
      out.write(block.data.data(),
                static_cast<std::streamsize>(block.data.size()));
    }
  }
  if (!out) return Status::IoError("short write saving DFS image");
  return Status::Ok();
}

Status SimulatedDfs::Load(std::istream& in) {
  uint64_t magic = 0, block_size = 0, num_nodes = 0, file_count = 0;
  if (!serde::ReadU64(in, &magic) || magic != kDfsMagic) {
    return Status::Corruption("not a DFS image");
  }
  if (!serde::ReadU64(in, &block_size) || !serde::ReadU64(in, &num_nodes) ||
      !serde::ReadU64(in, &file_count)) {
    return Status::Corruption("truncated DFS image header");
  }
  {
    MutexLock lock(&mu_);
    options_.block_size = block_size;
    options_.num_data_nodes = static_cast<int>(num_nodes);
    files_.clear();
    nodes_.assign(options_.num_data_nodes, NodeStats{});
    node_down_.assign(options_.num_data_nodes, 0);
    last_block_read_.assign(options_.num_data_nodes, -2);
    next_node_ = 0;
  }
  std::string content;
  for (uint64_t f = 0; f < file_count; ++f) {
    std::string path;
    uint64_t size = 0;
    if (!serde::ReadString(in, &path) || !serde::ReadU64(in, &size)) {
      return Status::Corruption("truncated DFS image file entry");
    }
    content.resize(size);
    in.read(content.data(), static_cast<std::streamsize>(size));
    if (static_cast<uint64_t>(in.gcount()) != size) {
      return Status::Corruption("truncated DFS image content");
    }
    TKLUS_RETURN_IF_ERROR(Append(path, content));
  }
  return Status::Ok();
}

uint64_t SimulatedDfs::total_bytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const NodeStats& node : nodes_) total += node.bytes_stored;
  return total;
}

size_t SimulatedDfs::file_count() const {
  MutexLock lock(&mu_);
  return files_.size();
}

std::vector<SimulatedDfs::NodeStats> SimulatedDfs::node_stats() const {
  MutexLock lock(&mu_);
  return nodes_;
}

Status SimulatedDfs::SetNodeDown(int node, bool down) {
  MutexLock lock(&mu_);
  if (node < 0 || node >= options_.num_data_nodes) {
    return Status::InvalidArgument("no such data node: " +
                                   std::to_string(node));
  }
  node_down_[node] = down ? 1 : 0;
  return Status::Ok();
}

bool SimulatedDfs::node_is_down(int node) const {
  MutexLock lock(&mu_);
  return node >= 0 && node < options_.num_data_nodes &&
         node_down_[node] != 0;
}

void SimulatedDfs::set_fault_injector(FaultInjector* injector) {
  MutexLock lock(&mu_);
  faults_ = injector;
}

FaultInjector* SimulatedDfs::fault_injector() const {
  MutexLock lock(&mu_);
  return faults_;
}

void SimulatedDfs::ResetStats() {
  MutexLock lock(&mu_);
  for (NodeStats& node : nodes_) {
    node.block_reads = 0;
    node.seeks = 0;
  }
  last_block_read_.assign(options_.num_data_nodes, -2);
}

}  // namespace tklus
