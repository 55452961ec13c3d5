#ifndef TKLUS_OBS_SLOW_QUERY_LOG_H_
#define TKLUS_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace tklus {

// One slow query, as retained in the ring. `sequence` is the 1-based
// admission order over the log's whole lifetime, so a dump shows how
// many slow queries were dropped by wraparound (sequence gaps from 1).
struct SlowQueryRecord {
  uint64_t sequence = 0;  // assigned by Record
  std::string summary;    // human-readable query description
  double elapsed_ms = 0.0;
  uint64_t db_page_reads = 0;
  uint64_t dfs_block_reads = 0;
  uint64_t candidates = 0;
  uint64_t threads_built = 0;
  uint64_t popularity_cache_hits = 0;
  uint64_t popularity_cache_misses = 0;
  uint64_t phi_tracker_reads = 0;
};

// A bounded, thread-safe ring of the most recent slow queries. The
// engine records every query whose latency crosses the threshold
// (Options::slow_query_ms); the newest `capacity` records survive.
// DumpJsonLines writes one JSON object per line (JSONL), oldest first —
// grep/jq-friendly, no trailing commas to balance.
class SlowQueryLog {
 public:
  struct Options {
    double threshold_ms = 250.0;  // <= 0 disables recording entirely
    size_t capacity = 128;
  };

  explicit SlowQueryLog(Options options);
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  bool enabled() const { return options_.threshold_ms > 0; }
  bool ShouldRecord(double elapsed_ms) const {
    return enabled() && elapsed_ms >= options_.threshold_ms;
  }

  // Admits `record` (its `sequence` field is assigned here), evicting
  // the oldest entry when full.
  void Record(SlowQueryRecord record) TKLUS_EXCLUDES(mu_);

  // Retained records, oldest first.
  std::vector<SlowQueryRecord> Snapshot() const TKLUS_EXCLUDES(mu_);

  // Every record ever admitted (>= Snapshot().size() after wraparound).
  uint64_t total_recorded() const TKLUS_EXCLUDES(mu_);

  void DumpJsonLines(std::ostream& out) const TKLUS_EXCLUDES(mu_);

  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable Mutex mu_;
  std::vector<SlowQueryRecord> ring_ TKLUS_GUARDED_BY(mu_);
  size_t next_ TKLUS_GUARDED_BY(mu_) = 0;  // ring slot of the next Record
  uint64_t total_ TKLUS_GUARDED_BY(mu_) = 0;
};

}  // namespace tklus

#endif  // TKLUS_OBS_SLOW_QUERY_LOG_H_
