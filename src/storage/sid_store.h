#ifndef TKLUS_STORAGE_SID_STORE_H_
#define TKLUS_STORAGE_SID_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/status.h"
#include "storage/metadata_db.h"

namespace tklus {

// Denormalized O(1) sid -> TweetMeta resolution table — the read-optimized
// twin of the metadata DB's sid B+-tree. BENCH_query.json localized ~90%
// of query time (and every warm db_page_read) in the sid_resolve stage,
// where each candidate posting paid a root-to-leaf descent to join
// (sid -> uid, lat, lon, ruid, rsid). Sids are dense (timestamps assigned
// sequentially by the generators and appenders), so the join collapses to
// one subtraction and two array loads: a uint32 slot index over
// [base_sid, max_sid] (0 = absent, otherwise row number + 1) points into a
// row array holding only the rows the store has. A geohash shard owns
// roughly every N-th sid of the global range, so it pays 4 bytes per sid
// in its span plus 48 per row it owns (a dense row per sid would cost 49
// per sid in the span).
//
// Write-side contract: the B+-tree/MetadataDb stays the source of truth.
// The store is populated at index build and at delta-merge commit (the
// engine's exclusive-commit window), persisted as a checksummed artifact
// in the checkpoint sequence, and rebuilt wholesale from the B+-tree when
// the artifact is missing, torn, or stale — a damaged store is never
// fatal and never consulted.
//
// Concurrency: externally synchronized, exactly like DeltaIndex — Put and
// the (de)serializers run under the engine's exclusive lock; Resolve /
// ResolveBatch are const and safe for any number of concurrent readers
// between commits.
class SidStore {
 public:
  SidStore() = default;
  SidStore(SidStore&&) = default;
  SidStore& operator=(SidStore&&) = default;
  SidStore(const SidStore&) = delete;
  SidStore& operator=(const SidStore&) = delete;

  // Row numbers are stored + 1 in a uint32 slot, so this is the capacity.
  static constexpr uint64_t kMaxRows = UINT32_MAX;

  // Inserts or overwrites the row for row.sid. Sids far from dense only
  // cost memory (4 bytes per absent slot); sids below the current base
  // trigger an O(span) front-shift of the slot index, which never happens
  // on the engine's append-only (monotone sid) write path. CHECK-fails
  // rather than wrap past kMaxRows rows.
  void Put(const TweetMeta& row);

  // Sizes an empty store for `rows` rows with sids in [min_sid, max_sid],
  // so a bulk load allocates each array once instead of growing it by
  // doubling. A no-op on a non-empty store or an empty range.
  void Reserve(int64_t min_sid, int64_t max_sid, size_t rows);

  // O(1) point lookup; nullopt when the sid has no committed row.
  std::optional<TweetMeta> Resolve(int64_t sid) const;

  // Vectorized lookup: fills metas[i] for every sids[i] present in the
  // store, leaves the rest untouched (so a delta/db overlay can fill the
  // misses), and returns the number of slots filled. metas.size() must
  // equal sids.size().
  uint64_t ResolveBatch(std::span<const int64_t> sids,
                        std::vector<std::optional<TweetMeta>>* metas) const;

  // Rows present (not slot capacity). Matches MetadataDb::row_count()
  // exactly when store and DB were committed together — the staleness
  // check Open() uses.
  uint64_t entry_count() const { return rows_.size(); }
  // Resident bytes of the slot index + row arrays.
  uint64_t size_bytes() const;

  // (De)serialization of the full table (used inside the checkpoint
  // artifact). The stream keeps the original dense v1 layout — one
  // TweetMeta per slot (TweetMeta{} where absent) plus a validity byte per
  // slot — so artifacts stay interchangeable across versions; Load
  // compacts it. Load returns kCorruption on truncation, bad magic or a
  // row count above kMaxRows.
  void Save(std::ostream& out) const;
  static Result<SidStore> Load(std::istream& in);

  // Checkpoint artifact: Save framed by fileio::WriteFileAtomic (payload +
  // CRC32 footer, temp + fsync + rename); LoadFromFile verifies the footer
  // first and returns kNotFound / kCorruption like every other artifact.
  Status SaveToFile(const std::string& path,
                    FaultInjector* faults = nullptr) const;
  static Result<SidStore> LoadFromFile(const std::string& path);

  // Full rebuild from the source of truth: one heap scan over every
  // committed row. The recovery path for a missing/torn/stale artifact.
  static Result<SidStore> RebuildFromDb(MetadataDb* db);

 private:
  // Row number of `sid` plus one, or 0 when the sid has no row. Keeps
  // Resolve branch-light: one subtract + one unsigned compare covers both
  // bounds of the slot index.
  uint32_t SlotOf(int64_t sid) const {
    const uint64_t offset =
        static_cast<uint64_t>(sid) - static_cast<uint64_t>(base_sid_);
    return offset < slots_.size() ? slots_[offset] : 0;
  }

  int64_t base_sid_ = 0;           // sid of slots_[0] (meaningless if empty)
  std::vector<uint32_t> slots_;    // base_sid_ + i -> row number + 1, 0 absent
  std::vector<TweetMeta> rows_;    // present rows, in first-Put order
};

}  // namespace tklus

#endif  // TKLUS_STORAGE_SID_STORE_H_
