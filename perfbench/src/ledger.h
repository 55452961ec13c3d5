#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// The benchmark's result record: named metrics with units, run context,
// and the span folding that turns per-query trace trees into per-layer
// totals. Nothing here reaches into the engine; it only reads what the
// public entry points return.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// A bag of measurements. Quantiles use the nearest-rank rule on the sorted
// values; an empty bag reads 0.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  // Mean of the largest `share` of the values (at least one value).
  double TailMean(double share) const;

 private:
  std::vector<double> values_;
};

// Completion instants of a closed loop. MedianRate is the median rate over
// equal blocks of the measured window, so a short stall of a shared host
// moves one block, not the figure; it suits loops whose work per block is
// stationary. MeanRate suits a loop whose work grows during the window.
class Completions {
 public:
  explicit Completions(Clock::time_point start) : start_(start) {}
  void Add(Clock::time_point done) {
    done_s_.push_back(std::chrono::duration<double>(done - start_).count());
  }
  // Completions per second over the whole window.
  double MeanRate(double window_s) const {
    return window_s > 0 ? static_cast<double>(done_s_.size()) / window_s : 0.0;
  }
  double MedianRate(double window_s, int blocks) const;

 private:
  Clock::time_point start_;
  std::vector<double> done_s_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Ledger {
 public:
  // Records (or overwrites) one metric.
  void Set(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  // Counts attempted operations (queries and appends).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // Marks one attempted operation failed: an error or a wrong answer.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // The one-line JSON record the driver script parses.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
};

// Per-layer totals folded from query traces (TkLusQuery::trace): the root
// "query" span, the five stage spans wherever they sit in the tree (the
// sharded engine nests postings_fetch/sid_resolve under shard_fetch), the
// router's shard_fetch/shard_merge spans, and the root's direct-children
// coverage that certifies the stages tile the query.
class SpanTotals {
 public:
  void Add(const tklus::Trace& trace);
  uint64_t queries() const { return queries_; }
  double RootMillis() const { return static_cast<double>(root_ns_) * 1e-6; }
  double SpanMillis(const std::string& name) const;
  double Coverage() const;
  // stage.<name>_ms (per query) and stage.<name>_ms.share for the five
  // stages, plus stage.coverage.
  void Report(Ledger* ledger) const;

 private:
  uint64_t queries_ = 0;
  uint64_t root_ns_ = 0;
  uint64_t root_children_ns_ = 0;
  std::map<std::string, uint64_t> ns_by_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
