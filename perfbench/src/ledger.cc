#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/query.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

constexpr const char* kStages[] = {
    tklus::stage::kCover, tklus::stage::kPostingsFetch,
    tklus::stage::kSidResolve, tklus::stage::kThreadConstruction,
    tklus::stage::kScoreTopk};

}  // namespace

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::TailMean(double share) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(share * static_cast<double>(sorted.size()))));
  return std::accumulate(sorted.end() - static_cast<std::ptrdiff_t>(n), sorted.end(), 0.0) /
         static_cast<double>(n);
}

double Completions::MedianRate(double window_s, int blocks) const {
  if (window_s <= 0 || blocks < 1) return 0.0;
  // A block's rate is (completions - 1) over the time from its first to
  // its last completion: continuous, where a plain count per block would
  // be quantized to multiples of 1/block length.
  const double block_s = window_s / blocks;
  std::vector<std::vector<double>> in_block(static_cast<size_t>(blocks));
  for (const double t : done_s_) {
    const size_t b = static_cast<size_t>(t / block_s);
    if (b < in_block.size()) in_block[b].push_back(t);
  }
  Samples rates;
  for (const std::vector<double>& times : in_block) {
    if (times.size() < 2) continue;
    const auto [first, last] = std::minmax_element(times.begin(), times.end());
    const double span = *last - *first;
    if (span > 0) rates.Add(static_cast<double>(times.size() - 1) / span);
  }
  // Too few completions per block (a very slow run): the whole window.
  if (rates.size() * 2 < static_cast<size_t>(blocks)) {
    return static_cast<double>(done_s_.size()) / window_s;
  }
  return rates.Median();
}

void Ledger::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Ledger::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, JsonString(value));
}

void Ledger::Context(const std::string& key, double value) {
  context_.emplace_back(key, JsonNumber(value));
}

void Ledger::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

std::string Ledger::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  out += "}, \"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(context_[i].first) + ": " + context_[i].second;
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(failures_[i]);
  }
  return out + "]}";
}

void SpanTotals::Add(const tklus::Trace& trace) {
  if (trace.spans.empty()) return;
  const tklus::TraceSpan& root = trace.spans.front();
  ++queries_;
  root_ns_ += root.duration_ns;
  for (const tklus::TraceSpan& span : trace.spans) {
    if (span.parent == root.id) root_children_ns_ += span.duration_ns;
    if (span.id != root.id) ns_by_name_[span.name] += span.duration_ns;
  }
}

double SpanTotals::SpanMillis(const std::string& name) const {
  const auto it = ns_by_name_.find(name);
  return it == ns_by_name_.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
}

double SpanTotals::Coverage() const {
  return root_ns_ == 0 ? 0.0
                       : static_cast<double>(root_children_ns_) /
                             static_cast<double>(root_ns_);
}

void SpanTotals::Report(Ledger* ledger) const {
  const double n = queries_ == 0 ? 1.0 : static_cast<double>(queries_);
  const double root_ms = RootMillis();
  for (const char* stage : kStages) {
    const std::string name = std::string("stage.") + stage + "_ms";
    const double ms = SpanMillis(stage);
    ledger->Set(name, ms / n, "ms");
    ledger->Set(name + ".share", root_ms > 0 ? ms / root_ms : 0.0, "ratio");
  }
  ledger->Set("stage.coverage", Coverage(), "ratio");
}

}  // namespace perfbench
