#include "storage/sid_store.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/serde.h"

namespace tklus {

namespace {

constexpr uint64_t kSidStoreMagic = 0x3153524453554c54ull;  // "TLUSDRS1"
constexpr uint32_t kSidStoreVersion = 1;

}  // namespace

void SidStore::Put(const TweetMeta& row) {
  if (slots_.empty()) {
    base_sid_ = row.sid;
    slots_.resize(1, 0);
  } else if (row.sid < base_sid_) {
    // Never hit by the engine (its sids are monotone); kept correct for
    // arbitrary insertion orders (rebuild scans, tests).
    const size_t shift = static_cast<size_t>(base_sid_ - row.sid);
    slots_.insert(slots_.begin(), shift, 0);
    base_sid_ = row.sid;
  } else if (static_cast<uint64_t>(row.sid - base_sid_) >= slots_.size()) {
    slots_.resize(static_cast<size_t>(row.sid - base_sid_) + 1, 0);
  }
  uint32_t& slot = slots_[static_cast<size_t>(row.sid - base_sid_)];
  if (slot != 0) {
    rows_[slot - 1] = row;
    return;
  }
  TKLUS_CHECK(rows_.size() < kMaxRows) << "sid store holds " << kMaxRows
                                       << " rows, its limit";
  rows_.push_back(row);
  slot = static_cast<uint32_t>(rows_.size());
}

void SidStore::Reserve(int64_t min_sid, int64_t max_sid, size_t rows) {
  if (!slots_.empty() || max_sid < min_sid) return;
  base_sid_ = min_sid;
  slots_.assign(static_cast<size_t>(max_sid - min_sid) + 1, 0);
  rows_.reserve(rows);
}

std::optional<TweetMeta> SidStore::Resolve(int64_t sid) const {
  const uint32_t slot = SlotOf(sid);
  if (slot == 0) return std::nullopt;
  return rows_[slot - 1];
}

uint64_t SidStore::ResolveBatch(
    std::span<const int64_t> sids,
    std::vector<std::optional<TweetMeta>>* metas) const {
  uint64_t filled = 0;
  for (size_t i = 0; i < sids.size(); ++i) {
    const uint32_t slot = SlotOf(sids[i]);
    if (slot == 0) continue;
    (*metas)[i] = rows_[slot - 1];
    ++filled;
  }
  return filled;
}

uint64_t SidStore::size_bytes() const {
  return slots_.capacity() * sizeof(uint32_t) +
         rows_.capacity() * sizeof(TweetMeta);
}

void SidStore::Save(std::ostream& out) const {
  serde::WriteU64(out, kSidStoreMagic);
  serde::WriteU32(out, kSidStoreVersion);
  serde::WriteI64(out, base_sid_);
  serde::WriteU64(out, slots_.size());
  serde::WriteU64(out, rows_.size());
  // The dense v1 image, expanded a chunk of slots at a time.
  constexpr size_t kChunk = 4096;
  std::vector<TweetMeta> dense;
  for (size_t begin = 0; begin < slots_.size(); begin += kChunk) {
    const size_t end = std::min(slots_.size(), begin + kChunk);
    dense.assign(end - begin, TweetMeta{});
    for (size_t i = begin; i < end; ++i) {
      if (slots_[i] != 0) dense[i - begin] = rows_[slots_[i] - 1];
    }
    out.write(reinterpret_cast<const char*>(dense.data()),
              static_cast<std::streamsize>(dense.size() * sizeof(TweetMeta)));
  }
  for (const uint32_t slot : slots_) out.put(slot != 0 ? 1 : 0);
}

Result<SidStore> SidStore::Load(std::istream& in) {
  uint64_t magic = 0;
  uint32_t version = 0;
  int64_t base_sid = 0;
  uint64_t slots = 0;
  uint64_t declared_entries = 0;
  if (!serde::ReadU64(in, &magic) || magic != kSidStoreMagic) {
    return Status::Corruption("sid store: bad magic");
  }
  if (!serde::ReadU32(in, &version) || version != kSidStoreVersion) {
    return Status::Corruption("sid store: unsupported version");
  }
  if (!serde::ReadI64(in, &base_sid) || !serde::ReadU64(in, &slots) ||
      !serde::ReadU64(in, &declared_entries)) {
    return Status::Corruption("sid store: truncated header");
  }
  if (declared_entries > kMaxRows) {
    return Status::Corruption("sid store: more rows than a store can hold");
  }
  // Read the dense image, then compact it in place: row i moves to the
  // front once the validity map (which follows the entries) says it is
  // present.
  SidStore store;
  store.base_sid_ = base_sid;
  store.rows_.resize(slots);
  in.read(reinterpret_cast<char*>(store.rows_.data()),
          static_cast<std::streamsize>(slots * sizeof(TweetMeta)));
  if (static_cast<uint64_t>(in.gcount()) != slots * sizeof(TweetMeta)) {
    return Status::Corruption("sid store: truncated entries");
  }
  std::vector<uint8_t> valid(slots);
  in.read(reinterpret_cast<char*>(valid.data()),
          static_cast<std::streamsize>(slots));
  if (static_cast<uint64_t>(in.gcount()) != slots) {
    return Status::Corruption("sid store: truncated validity map");
  }
  const uint64_t rows =
      static_cast<uint64_t>(std::count_if(valid.begin(), valid.end(),
                                          [](uint8_t v) { return v != 0; }));
  if (rows != declared_entries) {
    return Status::Corruption("sid store: entry count mismatch");
  }
  store.slots_.resize(slots, 0);
  uint32_t row = 0;
  for (size_t i = 0; i < slots; ++i) {
    if (valid[i] == 0) continue;
    store.rows_[row++] = store.rows_[i];
    store.slots_[i] = row;
  }
  store.rows_.resize(rows);
  store.rows_.shrink_to_fit();
  return store;
}

Status SidStore::SaveToFile(const std::string& path,
                            FaultInjector* faults) const {
  std::ostringstream payload;
  Save(payload);
  return fileio::WriteFileAtomic(path, payload.str(), faults);
}

Result<SidStore> SidStore::LoadFromFile(const std::string& path) {
  Result<std::string> payload = fileio::ReadFileVerified(path);
  if (!payload.ok()) return payload.status();
  std::istringstream in(*payload);
  return Load(in);
}

Result<SidStore> SidStore::RebuildFromDb(MetadataDb* db) {
  SidStore store;
  TKLUS_RETURN_IF_ERROR(
      db->ScanRows([&store](const TweetMeta& row) { store.Put(row); }));
  return store;
}

}  // namespace tklus
