#include "obs/slow_query_log.h"

#include <cstdio>
#include <ostream>

namespace tklus {

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

SlowQueryLog::SlowQueryLog(Options options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  ring_.reserve(options_.capacity);
}

void SlowQueryLog::Record(SlowQueryRecord record) {
  if (!enabled()) return;
  MutexLock lock(&mu_);
  record.sequence = ++total_;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % options_.capacity;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<SlowQueryRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;  // not yet wrapped: ring order is admission order
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % options_.capacity]);
    }
  }
  return out;
}

uint64_t SlowQueryLog::total_recorded() const {
  MutexLock lock(&mu_);
  return total_;
}

void SlowQueryLog::DumpJsonLines(std::ostream& out) const {
  for (const SlowQueryRecord& r : Snapshot()) {
    std::string line = "{\"sequence\": " + std::to_string(r.sequence) +
                       ", \"summary\": ";
    AppendJsonString(&line, r.summary);
    char elapsed[64];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", r.elapsed_ms);
    line += std::string(", \"elapsed_ms\": ") + elapsed +
            ", \"db_page_reads\": " + std::to_string(r.db_page_reads) +
            ", \"dfs_block_reads\": " + std::to_string(r.dfs_block_reads) +
            ", \"candidates\": " + std::to_string(r.candidates) +
            ", \"threads_built\": " + std::to_string(r.threads_built) +
            ", \"popularity_cache_hits\": " +
            std::to_string(r.popularity_cache_hits) +
            ", \"popularity_cache_misses\": " +
            std::to_string(r.popularity_cache_misses) +
            ", \"phi_tracker_reads\": " +
            std::to_string(r.phi_tracker_reads) + "}";
    out << line << "\n";
  }
}

}  // namespace tklus
