#include "workloads.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "baseline/naive_scan.h"
#include "common/rng.h"
#include "core/cover.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/query_workload.h"
#include "datagen/tweet_generator.h"
#include "host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {
namespace {

using tklus::Dataset;
using tklus::QueryStats;
using tklus::RankedUser;
using tklus::ShardedEngine;
using tklus::Status;
using tklus::TkLusEngine;
using tklus::TkLusQuery;
using tklus::datagen::GeneratedCorpus;
namespace server = tklus::server;

// Scoring normalisation the repository's benches calibrate for the
// synthetic corpus (bench/bench_util.h, kBenchNNorm).
constexpr double kNNorm = 4.0;
constexpr int kShards = 4;
// The repository's bench corpus size.
constexpr size_t kBenchTweets = 60000;
// φ-memo capacities. hot_fit keeps the engine default, which holds every
// thread of the 60k corpus. hot_overflow gives the same corpus and query
// cycle a quarter of it, so the cycle's working set overflows the memo
// (and the 32-page pool) as the default memo overflows at ~300k tweets.
constexpr size_t kDefaultMemoEntries = 1 << 16;
constexpr size_t kOverflowMemoEntries = 1 << 14;
// Hot-keyword queries per keyword-count group (the cycle is 3x this).
constexpr int kHotPerGroup = 150;
// The hot workloads measure a working set against a cache, so the working
// set is held fixed: one corpus and one query set for every run (the seeds
// of the repository's benches), with the workload seed permuting the query
// cycle and picking the checked answers. A corpus drawn per seed moved
// the working set, and with it p50 by 12-20% and the tail by 30-50%
// between seeds on hot_overflow.
constexpr uint64_t kHotCorpusSeed = 42;
constexpr uint64_t kHotQuerySeed = 7;
// Distinct queries per group in a §VI-B1 stream (3 groups of this many).
constexpr int kStreamPerGroup = 1000;
// Queries in a set-up warm-up pass.
constexpr size_t kWarmupQueries = 90;
// Blocks a closed loop's measured window is cut into for its median rate.
constexpr int kRateBlocks = 10;
// Answers per in-process run compared with NaiveScanner.
constexpr size_t kOracleSample = 12;
// Minimum length of the tracing-overhead phase of a traced run.
constexpr double kOverheadSeconds = 1.0;
// wire_mix open-loop rate: an absolute rate, so runs of two commits offer
// the same load. The parent commit serves it without backlog.
constexpr double kOpenLoopQps = 20.0;
// Share of wire_mix's measured seconds spent in the open-loop phase; the
// rest is the closed-loop saturation phase.
constexpr double kOpenLoopShare = 0.6;
// ingest_read's paced appends.
constexpr size_t kBatchPosts = 100;
constexpr double kBatchIntervalMs = 9.0;

// Placeholder for a result slot that the timed call fills.
const Status kNotCalled = Status::Internal("not called");

const char* const kHotKeywords[] = {"restaurant", "game",   "cafe", "shop",
                                    "hotel",      "club",   "coffee",
                                    "film",       "pizza",  "mall"};

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Phase marks on stderr, with seconds since the workload started.
void Progress(const std::string& what) {
  static const Clock::time_point t0 = Clock::now();
  std::fprintf(stderr, "perfbench: %7.2fs %s\n", SecondsSince(t0), what.c_str());
}

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(1500, static_cast<size_t>(static_cast<double>(n) * scale));
}

GeneratedCorpus MakeCorpus(size_t tweets, uint64_t seed, double reply_prob) {
  tklus::datagen::TweetGenerator::Options options;
  options.seed = seed;
  options.num_tweets = tweets;
  options.num_users = std::max<size_t>(200, tweets / 40);
  options.num_cities = 8;
  options.experts_per_city = 10;
  options.reply_prob = reply_prob;
  return tklus::datagen::TweetGenerator::Generate(options);
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset out;
  for (size_t i = begin; i < end && i < all.size(); ++i) out.Add(all.posts()[i]);
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  tklus::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.UniformInt(i)]);
  }
}

// The §VI-B1 mix (1/2/3 keywords, 10 km, k=10) with locations drawn from
// the corpus's own spatial distribution, shuffled so the keyword-count
// groups interleave over time.
std::vector<TkLusQuery> MixStream(const GeneratedCorpus& corpus, uint64_t seed) {
  tklus::datagen::WorkloadOptions options;
  options.seed = seed;
  options.queries_per_group = kStreamPerGroup;
  options.radius_km = 10.0;
  options.k = 10;
  std::vector<TkLusQuery> queries = MakeQueryWorkload(corpus, options);
  Shuffle(&queries, seed);
  return queries;
}

// bench_query_throughput's recipe: the §VI-B1 spatial sample at 50 km with
// the Table-II hot keywords cycled across the locations; 450 locations
// rather than 90, so one run's figures do not hinge on a few of them.
std::vector<TkLusQuery> HotQueries(const GeneratedCorpus& corpus, uint64_t seed) {
  tklus::datagen::WorkloadOptions options;
  options.seed = seed;
  options.queries_per_group = kHotPerGroup;
  options.radius_km = 50.0;
  std::vector<TkLusQuery> queries = MakeQueryWorkload(corpus, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].keywords = {kHotKeywords[i % 10]};
  }
  return queries;
}

std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  Shuffle(&all, seed);
  all.resize(std::min(count, n));
  return all;
}

TkLusEngine::Options EngineOptions(size_t memo_entries, const std::string& dir) {
  TkLusEngine::Options options;
  options.working_dir = dir;
  options.buffer_pool_pages = 32;  // bench_query_throughput's pool
  options.popularity_cache_entries = memo_entries;
  options.scoring.n_norm = kNNorm;
  return options;
}

ShardedEngine::Options ShardedOptions(const std::string& dir) {
  ShardedEngine::Options options;
  options.num_shards = kShards;
  options.working_dir = dir;
  options.shard.scoring.n_norm = kNNorm;
  options.shard.buffer_pool_pages = 256;  // bench_server_loadgen's pool
  return options;
}

tklus::NaiveScanner::Options OracleOptions() {
  tklus::NaiveScanner::Options options;
  options.scoring.n_norm = kNNorm;
  return options;
}

// Fresh, empty directory for one engine build.
std::string FreshDir(const std::string& parent, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(parent) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

bool SameUsers(const std::vector<RankedUser>& got,
               const std::vector<RankedUser>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tolerance = 1e-9 * std::max(1.0, std::fabs(want[i].score));
    if (got[i].uid != want[i].uid ||
        std::fabs(got[i].score - want[i].score) > tolerance) {
      return false;
    }
  }
  return true;
}

uint64_t CounterValue(const char* name) {
  return tklus::MetricsRegistry::Global().GetCounter(name, "")->Value();
}

// Process-global counters the ledger reads as deltas around a phase.
struct CounterSnapshot {
  uint64_t pool_hits = CounterValue("tklus_buffer_pool_hits_total");
  uint64_t pool_misses = CounterValue("tklus_buffer_pool_misses_total");
  uint64_t wal_fsyncs = CounterValue("tklus_wal_fsyncs_total");
  uint64_t delta_merges = CounterValue("tklus_delta_merges_total");
  uint64_t task_attempts = CounterValue("tklus_mapreduce_task_attempts_total");
};

// Encoded bytes of every postings list a query's (cover cell, term) pairs
// name in the forward indexes: the bytes a fetch actually needs, against
// which whole-block DFS reads are compared. Quiescent engines only.
uint64_t UsefulListBytes(const std::vector<const tklus::HybridIndex*>& indexes,
                         const std::vector<std::string>& terms,
                         const TkLusQuery& query) {
  if (indexes.empty()) return 0;
  const std::vector<std::string> cells =
      tklus::ComputeCover(query, indexes.front()->geohash_length());
  uint64_t bytes = 0;
  for (const tklus::HybridIndex* index : indexes) {
    for (const std::string& cell : cells) {
      for (const std::string& term : terms) {
        const auto* locations = index->forward_index().Lookup(cell, term);
        if (locations == nullptr) continue;
        for (const tklus::PostingsLocation& loc : *locations) bytes += loc.length;
      }
    }
  }
  return bytes;
}

// Latency split of one request: the engine's own time (its root span, or
// the server's server_ms on the wire) and everything else the caller
// waited for (transport: socket, server queueing and framing on the wire,
// the API boundary in process).
void ReportSplit(const Samples& transport_ms, const Samples& engine_ms, Ledger* ledger) {
  ledger->Set("transport_ms.p50", transport_ms.Quantile(0.50), "ms");
  ledger->Set("transport_ms.p99", transport_ms.Quantile(0.99), "ms");
  ledger->Set("engine_ms.p50", engine_ms.Quantile(0.50), "ms");
  ledger->Set("engine_ms.p99", engine_ms.Quantile(0.99), "ms");
}

// Per-layer accumulation over traced queries.
class QueryLayers {
 public:
  // `call_ms` is the benchmark's own span around the call; the engine's
  // root span comes from the returned trace.
  void Add(const QueryStats& stats, double call_ms, size_t shards_touched) {
    ++queries_;
    double root_ms = stats.elapsed_ms;
    if (stats.trace != nullptr && !stats.trace->spans.empty()) {
      spans_.Add(*stats.trace);
      root_ms = static_cast<double>(stats.trace->spans.front().duration_ns) * 1e-6;
    }
    engine_ms_.Add(root_ms);
    transport_ms_.Add(std::max(0.0, call_ms - root_ms));
    lists_ += stats.postings_lists_fetched;
    candidates_ += stats.candidates;
    dfs_reads_ += stats.dfs_block_reads;
    db_reads_ += stats.db_page_reads;
    phi_hits_ += stats.popularity_cache_hits;
    phi_misses_ += stats.popularity_cache_misses;
    built_ += stats.threads_built;
    pruned_ += stats.threads_pruned;
    fallback_rows_ += stats.sid_store_fallback_rows;
    shards_touched_ += shards_touched;
  }
  void AddUseful(uint64_t bytes, uint64_t block_reads) {
    useful_bytes_ += bytes;
    useful_block_reads_ += block_reads;
  }

  // Every layer metric except the transport/engine split, which the wire
  // workload takes from the wire instead.
  void Report(size_t block_size, bool sharded, Ledger* ledger) const {
    const double n = queries_ == 0 ? 1.0 : static_cast<double>(queries_);
    spans_.Report(ledger);
    if (sharded) {
      ledger->Set("router.shards_touched", static_cast<double>(shards_touched_) / n, "count");
      ledger->Set("router.shard_fetch_ms", spans_.SpanMillis(tklus::stage::kShardFetch) / n, "ms");
      ledger->Set("router.shard_merge_ms", spans_.SpanMillis(tklus::stage::kShardMerge) / n, "ms");
    }
    ledger->Set("index.lists_per_query", static_cast<double>(lists_) / n, "count");
    ledger->Set("index.candidates_per_query", static_cast<double>(candidates_) / n, "count");
    ledger->Set("dfs.block_reads_per_query", static_cast<double>(dfs_reads_) / n, "count");
    ledger->Set("dfs.useful_byte_ratio", UsefulByteRatio(block_size), "ratio");
    ledger->Set("storage.db_page_reads_per_query", static_cast<double>(db_reads_) / n, "count");
    ledger->Set("storage.sid_fallback_rows", static_cast<double>(fallback_rows_), "count");
    const uint64_t phi_total = phi_hits_ + phi_misses_;
    ledger->Set("phi.hit_rate",
                phi_total == 0 ? 1.0
                               : static_cast<double>(phi_hits_) / static_cast<double>(phi_total),
                "ratio");
    ledger->Set("phi.threads_built_per_query", static_cast<double>(built_) / n, "count");
    ledger->Set("phi.threads_pruned_per_query", static_cast<double>(pruned_) / n, "count");
    // Ledger integrity: the stages tile the root span, and SidStore
    // fallbacks are a staleness bug, never a cache miss.
    if (queries_ > 0 && spans_.Coverage() < 0.95) {
      ledger->Fail("stage spans cover less than 0.95 of the query span");
    }
    if (fallback_rows_ != 0) ledger->Fail("sid store fallback rows in steady state");
  }

  // Bytes the queries' postings lists hold over bytes the DFS read for
  // them (whole blocks).
  double UsefulByteRatio(size_t block_size) const {
    return useful_block_reads_ == 0
               ? 1.0
               : static_cast<double>(useful_bytes_) /
                     (static_cast<double>(useful_block_reads_) *
                      static_cast<double>(block_size));
  }
  const Samples& transport_ms() const { return transport_ms_; }
  const Samples& engine_ms() const { return engine_ms_; }

 private:
  uint64_t queries_ = 0;
  Samples engine_ms_;
  Samples transport_ms_;
  SpanTotals spans_;
  uint64_t lists_ = 0, candidates_ = 0, dfs_reads_ = 0, db_reads_ = 0;
  uint64_t phi_hits_ = 0, phi_misses_ = 0, built_ = 0, pruned_ = 0;
  uint64_t fallback_rows_ = 0, shards_touched_ = 0;
  uint64_t useful_bytes_ = 0, useful_block_reads_ = 0;
};

// Runs `call` inside the benchmark's own span and returns its length in
// milliseconds. With tracing off the span is a bare clock read pair.
template <typename Fn>
double TimedCall(bool trace, Fn&& call) {
  if (!trace) {
    const Clock::time_point start = Clock::now();
    call();
    return MillisBetween(start, Clock::now());
  }
  tklus::Trace own;
  tklus::Tracer tracer(&own);
  {
    tklus::Tracer::Span span = tracer.StartSpan("bench.call");
    call();
  }
  return static_cast<double>(own.spans.front().duration_ns) * 1e-6;
}

// Tracing cost, so it is never read as layer cost: rounds over the same
// queries on the already warm engine, untraced and traced in U T T U order
// so drift cancels. `call(query)` returns the call's milliseconds.
template <typename Call>
void ReportTracingOverhead(const std::vector<TkLusQuery>& queries, Call&& call,
                           Ledger* ledger) {
  const size_t n = std::min(queries.size(), kWarmupQueries);
  double ms[2] = {0, 0};
  const Clock::time_point start = Clock::now();
  for (int round = 0; round % 4 != 0 || SecondsSince(start) < kOverheadSeconds; ++round) {
    const bool traced = round % 4 == 1 || round % 4 == 2;
    for (size_t i = 0; i < n; ++i) {
      TkLusQuery q = queries[i];
      q.trace = traced;
      ms[traced ? 1 : 0] += call(q);
    }
  }
  ledger->Set("tracing.overhead", ms[1] > 0 ? 1.0 - ms[0] / ms[1] : 0.0, "ratio");
}

void ReportPoolHitRate(const CounterSnapshot& before, const CounterSnapshot& after,
                       Ledger* ledger) {
  const uint64_t hits = after.pool_hits - before.pool_hits;
  const uint64_t misses = after.pool_misses - before.pool_misses;
  // No page fetched at all means nothing missed: the pool served the
  // phase (reads as 1, not as undefined).
  ledger->Set("storage.buffer_hit_rate",
              hits + misses == 0 ? 1.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(hits + misses),
              "ratio");
}

// The bounded tail is the mean of the slowest 10% of requests. A
// percentile there falls between the modes of a latency distribution
// (wire_mix: one or two 44 ms Nagle stalls; hot_overflow: memo hits and
// misses) and jumps when the mix shifts by a few requests; the tail mean
// moves with the mix smoothly. p90 and p99 are reported alongside.
void ReportLatency(const Samples& latency_ms, double qps, Ledger* ledger) {
  ledger->Set("query_p50_ms", latency_ms.Quantile(0.50), "ms");
  ledger->Set("query_tail10_ms", latency_ms.TailMean(0.10), "ms");
  ledger->Set("query_p90_ms", latency_ms.Quantile(0.90), "ms");
  ledger->Set("query_p99_ms", latency_ms.Quantile(0.99), "ms");
  ledger->Set("query_qps", qps, "1/s");
  ledger->Context("query_samples", static_cast<double>(latency_ms.size()));
}

void ReportErrorRate(Ledger* ledger) {
  ledger->Set("error_rate",
              ledger->attempted() == 0
                  ? 0.0
                  : static_cast<double>(ledger->failed()) /
                        static_cast<double>(ledger->attempted()),
              "ratio");
}

// ---------------------------------------------------------------- hot_*

// hot_fit / hot_overflow: one TkLusEngine, one closed-loop caller cycling
// the hot-keyword queries. `fill_memo` runs one untimed pass over the whole
// cycle before measuring, so a memo that can hold the working set does.
void RunHot(const RunConfig& config, size_t memo_entries, bool fill_memo, Ledger* ledger) {
  const GeneratedCorpus corpus =
      MakeCorpus(Scaled(kBenchTweets, config.scale), kHotCorpusSeed, 0.65);
  std::vector<TkLusQuery> queries = HotQueries(corpus, kHotQuerySeed);
  Shuffle(&queries, config.seed);
  ledger->Context("corpus.tweets", static_cast<double>(corpus.dataset.size()));
  ledger->Context("corpus.queries", static_cast<double>(queries.size()));
  ledger->Context("engine", "TkLusEngine, 32-page buffer pool, " +
                                std::to_string(memo_entries) + "-entry phi-memo");
  Progress("corpus ready");

  // Set-up: Build plus one warm-up pass, repeated; the last one is kept.
  std::unique_ptr<TkLusEngine> engine;
  Samples setup_s;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    engine.reset();
    const std::string dir = FreshDir(config.work_dir, "engine");
    const Clock::time_point start = Clock::now();
    auto built = TkLusEngine::Build(corpus.dataset, EngineOptions(memo_entries, dir));
    if (!built.ok()) {
      ledger->Fail("build: " + built.status().ToString());
      return;
    }
    engine = std::move(*built);
    for (size_t i = 0; i < kWarmupQueries && i < queries.size(); ++i) {
      if (auto r = engine->Query(queries[i]); !r.ok()) {
        ledger->Fail("warm-up query: " + r.status().ToString());
        return;
      }
    }
    setup_s.Add(SecondsSince(start));
  }
  const double rss_after_setup = RssMb();
  if (fill_memo) {
    for (const TkLusQuery& q : queries) {
      if (auto r = engine->Query(q); !r.ok()) {
        ledger->Fail("fill query: " + r.status().ToString());
        return;
      }
    }
  }
  Progress("set-up done");

  // Checked answers come from the head of the cycle, which every run
  // reaches.
  const std::vector<size_t> sample = SampleIndices(
      std::min(kWarmupQueries, queries.size()), kOracleSample, config.seed + 1);
  std::vector<std::optional<std::vector<RankedUser>>> answers(queries.size());
  std::vector<bool> sampled(queries.size(), false);
  for (const size_t i : sample) sampled[i] = true;
  std::vector<std::optional<uint64_t>> useful_bytes(queries.size());
  const std::vector<const tklus::HybridIndex*> indexes = {&engine->index()};

  Samples latency_ms;
  QueryLayers layers;
  const CounterSnapshot before;
  const Clock::time_point start = Clock::now();
  Completions completions(start);
  const Clock::time_point deadline = start + ToDuration(config.seconds);
  for (size_t n = 0; Clock::now() < deadline; ++n) {
    const size_t i = n % queries.size();
    TkLusQuery q = queries[i];
    q.trace = config.trace;
    tklus::Result<tklus::QueryResult> result = kNotCalled;
    const double ms = TimedCall(config.trace, [&] { result = engine->Query(q); });
    completions.Add(Clock::now());
    ledger->Attempt();
    if (!result.ok()) {
      ledger->Fail("query: " + result.status().ToString());
      continue;
    }
    latency_ms.Add(ms);
    if (sampled[i] && !answers[i]) answers[i] = result->users;
    if (config.trace) {
      layers.Add(result->stats, ms, 1);
      if (!useful_bytes[i]) {
        useful_bytes[i] = UsefulListBytes(
            indexes, engine->processor().NormalizeKeywords(q.keywords), q);
      }
      layers.AddUseful(*useful_bytes[i], result->stats.dfs_block_reads);
    }
  }
  const CounterSnapshot after;
  const double peak_rss = PeakRssMb();
  Progress("measured phase done");

  // Answer check against the brute-force oracle on the same corpus.
  const tklus::NaiveScanner oracle(&corpus.dataset, OracleOptions());
  for (const size_t i : sample) {
    if (!answers[i]) continue;
    if (!SameUsers(*answers[i], oracle.Process(queries[i]).users)) {
      ledger->Fail("answer differs from NaiveScanner for query " + std::to_string(i));
    }
  }
  Progress("answers checked");

  if (!config.trace) {
    ledger->Set("setup_s", setup_s.Median(), "s");
    ReportLatency(latency_ms, completions.MedianRate(config.seconds, kRateBlocks), ledger);
    ledger->Set("rss_peak_mb", peak_rss, "MB");
    return;
  }
  ReportSplit(layers.transport_ms(), layers.engine_ms(), ledger);
  layers.Report(engine->dfs().options().block_size, /*sharded=*/false, ledger);
  ReportPoolHitRate(before, after, ledger);
  ledger->Set("mem.rss_after_setup_mb", rss_after_setup, "MB");
  ledger->Set("mem.sid_store_bytes", static_cast<double>(engine->sid_store().size_bytes()),
              "bytes");
  ledger->Set("mem.dfs_bytes", static_cast<double>(engine->dfs().total_bytes()), "bytes");
  ledger->Set("mem.forward_index_bytes",
              static_cast<double>(engine->index().forward_index().ApproxBytes()), "bytes");
  ReportTracingOverhead(
      queries,
      [&](const TkLusQuery& q) {
        tklus::Result<tklus::QueryResult> result = kNotCalled;
        const double ms = TimedCall(q.trace, [&] { result = engine->Query(q); });
        if (!result.ok()) ledger->Fail("overhead query: " + result.status().ToString());
        return ms;
      },
      ledger);
}

// ---------------------------------------------------------------- sharded

void ReportShardedMemory(ShardedEngine& engine, double rss_after_setup, Ledger* ledger) {
  double sid = 0, dfs = 0, forward = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    sid += static_cast<double>(engine.shard(s).sid_store().size_bytes());
    dfs += static_cast<double>(engine.shard(s).dfs().total_bytes());
    forward += static_cast<double>(engine.shard(s).index().forward_index().ApproxBytes());
  }
  ledger->Set("mem.rss_after_setup_mb", rss_after_setup, "MB");
  ledger->Set("mem.sid_store_bytes", sid, "bytes");
  ledger->Set("mem.dfs_bytes", dfs, "bytes");
  ledger->Set("mem.forward_index_bytes", forward, "bytes");
}

std::vector<const tklus::HybridIndex*> ShardIndexes(ShardedEngine& engine) {
  std::vector<const tklus::HybridIndex*> indexes;
  for (int s = 0; s < engine.num_shards(); ++s) indexes.push_back(&engine.shard(s).index());
  return indexes;
}

size_t ShardBlockSize(ShardedEngine& engine) {
  return engine.shard(0).dfs().options().block_size;
}

// One in-process sharded query inside the benchmark's span; traced runs
// fold it into `layers` (nullptr: not recorded).
double ShardedCall(ShardedEngine& engine, const TkLusQuery& q, QueryLayers* layers,
                   std::optional<std::vector<RankedUser>>* users, Ledger* ledger) {
  tklus::Result<tklus::ShardedQueryResult> result = kNotCalled;
  const double ms = TimedCall(q.trace, [&] { result = engine.Query(q); });
  if (!result.ok()) {
    ledger->Fail("in-process query: " + result.status().ToString());
    return ms;
  }
  if (users != nullptr) *users = result->users;
  if (layers != nullptr && q.trace) {
    layers->Add(result->stats, ms, result->outcomes.size());
    layers->AddUseful(
        UsefulListBytes(ShardIndexes(engine),
                        engine.plane_processor().NormalizeKeywords(q.keywords), q),
        result->stats.dfs_block_reads);
  }
  return ms;
}

// Sends every frame on one connection, then reads every response: a
// pipelined pass, so warm-up does not pay one round trip per query.
Status PipelinedPass(int port, const std::vector<std::string>& frames) {
  auto fd = server::Connect(port);
  if (!fd.ok()) return fd.status();
  Status status = Status::Ok();
  for (const std::string& frame : frames) {
    status = server::WriteFrame(*fd, frame);
    if (!status.ok()) break;
  }
  for (size_t i = 0; status.ok() && i < frames.size(); ++i) {
    std::string payload;
    bool eof = false;
    status = server::ReadFrame(*fd, 1 << 20, &payload, &eof);
    if (status.ok() && eof) status = Status::IoError("server closed early");
    server::WireResponse response;
    if (status.ok()) status = server::DecodeResponse(payload, &response);
    if (status.ok() && response.code != 0) status = Status::Internal(response.message);
  }
  ::close(*fd);
  return status;
}

// ---------------------------------------------------------------- wire_mix

struct WireSample {
  size_t query = 0;
  bool ok = false;
  double latency_ms = 0;  // from the scheduled (open) or send (closed) instant
  double rtt_ms = 0;
  double server_ms = 0;
  Clock::time_point received;
  std::vector<server::WireUser> users;
};

// One loopback connection. Requests are pipelined: the sender queues a
// request before writing it, and the connection's reader matches responses
// to requests in order (the protocol answers in order per connection).
struct Connection {
  struct Inflight {
    size_t query = 0;
    Clock::time_point scheduled;
    Clock::time_point sent;
  };
  int fd = -1;
  std::mutex mu;
  std::deque<Inflight> inflight;
  std::vector<WireSample> samples;
};

// Reads the connection's next response and pairs it with the oldest
// request in flight.
WireSample ReadResponse(Connection& conn) {
  std::string payload;
  bool eof = false;
  const Status read = server::ReadFrame(conn.fd, 1 << 20, &payload, &eof);
  WireSample sample;
  sample.received = Clock::now();
  Connection::Inflight request;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.inflight.empty()) return sample;  // not ok: nothing was sent
    request = conn.inflight.front();
    conn.inflight.pop_front();
  }
  sample.query = request.query;
  server::WireResponse response;
  sample.ok = read.ok() && !eof && server::DecodeResponse(payload, &response).ok() &&
              response.code == 0 && !response.degraded;
  sample.latency_ms = MillisBetween(request.scheduled, sample.received);
  sample.rtt_ms = MillisBetween(request.sent, sample.received);
  sample.server_ms = response.server_ms;
  sample.users = std::move(response.users);
  return sample;
}

std::vector<WireSample> DrainSamples(std::vector<std::unique_ptr<Connection>>& conns) {
  std::vector<WireSample> all;
  for (auto& conn : conns) {
    all.insert(all.end(), std::make_move_iterator(conn->samples.begin()),
               std::make_move_iterator(conn->samples.end()));
    conn->samples.clear();
  }
  return all;
}

void RunWireMix(const RunConfig& config, Ledger* ledger) {
  const GeneratedCorpus corpus =
      MakeCorpus(Scaled(kBenchTweets, config.scale), config.seed, 0.5);
  const std::vector<TkLusQuery> stream = MixStream(corpus, config.seed);
  std::vector<std::string> frames;
  for (const TkLusQuery& q : stream) {
    server::WireRequest request;
    request.query = q;
    frames.push_back(server::EncodeRequest(request));
  }
  const std::vector<std::string> warmup(frames.end() - kWarmupQueries, frames.end());
  // One sender (this thread) plus one reader per connection stay within
  // the host's CPU count.
  const int connections = std::max(1, std::min(4, OnlineCpus() - 1));
  ledger->Context("corpus.tweets", static_cast<double>(corpus.dataset.size()));
  ledger->Context("corpus.queries", static_cast<double>(stream.size()));
  ledger->Context("engine", "ShardedEngine N=4 behind RequestServer (default options)");
  ledger->Context("loadgen.connections", connections);
  Progress("corpus ready");

  // Set-up: Build, server start and one pipelined warm-up pass, repeated.
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<server::RequestServer> srv;
  Samples setup_s;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    srv.reset();
    engine.reset();
    const std::string dir = FreshDir(config.work_dir, "sharded");
    const Clock::time_point start = Clock::now();
    auto built = ShardedEngine::Build(corpus.dataset, ShardedOptions(dir));
    if (!built.ok()) {
      ledger->Fail("build: " + built.status().ToString());
      return;
    }
    engine = std::move(*built);
    auto started = server::RequestServer::Start(engine.get(), {});
    if (!started.ok()) {
      ledger->Fail("server start: " + started.status().ToString());
      return;
    }
    srv = std::move(*started);
    if (const Status st = PipelinedPass(srv->port(), warmup); !st.ok()) {
      ledger->Fail("warm-up: " + st.ToString());
      return;
    }
    setup_s.Add(SecondsSince(start));
  }
  const double rss_after_setup = RssMb();
  Progress("set-up done");

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < connections; ++c) {
    auto fd = server::Connect(srv->port());
    if (!fd.ok()) {
      ledger->Fail("connect: " + fd.status().ToString());
      return;
    }
    conns.push_back(std::make_unique<Connection>());
    conns.back()->fd = *fd;
  }

  // Open-loop phase: a Poisson schedule at a fixed absolute rate. This
  // thread writes each request at its instant, never waiting for replies;
  // one reader per connection collects the responses.
  const double open_s = config.seconds * kOpenLoopShare;
  std::vector<double> arrivals;
  tklus::Rng arrival_rng(config.seed * 7919 + 17);
  for (double t = 0;;) {
    t += -std::log(1.0 - arrival_rng.NextDouble()) / kOpenLoopQps;
    if (t >= open_s) break;
    arrivals.push_back(t);
  }
  std::vector<size_t> expected(conns.size(), 0);
  for (size_t i = 0; i < arrivals.size(); ++i) ++expected[i % conns.size()];
  std::vector<std::thread> readers;
  for (size_t c = 0; c < conns.size(); ++c) {
    readers.emplace_back([&conn = *conns[c], n = expected[c]] {
      for (size_t k = 0; k < n; ++k) {
        conn.samples.push_back(ReadResponse(conn));
        if (!conn.samples.back().ok) return;  // connection unusable
      }
    });
  }
  Samples lateness_ms;
  const Clock::time_point open_start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Connection& conn = *conns[i % conns.size()];
    const Clock::time_point scheduled = open_start + ToDuration(arrivals[i]);
    std::this_thread::sleep_until(scheduled);
    const Connection::Inflight request{i % stream.size(), scheduled, Clock::now()};
    lateness_ms.Add(MillisBetween(scheduled, request.sent));
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.inflight.push_back(request);
    }
    if (!server::WriteFrame(conn.fd, frames[request.query]).ok()) {
      // Unblock the reader; its missing responses count as failures.
      ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  for (std::thread& r : readers) r.join();
  readers.clear();
  const std::vector<WireSample> open_samples = DrainSamples(conns);
  const Clock::time_point open_end = open_start + ToDuration(open_s);

  // Closed-loop phase on the same connections: each connection's caller
  // sends its next request as soon as the previous response is in.
  const double closed_s = config.seconds - open_s;
  std::atomic<size_t> next{arrivals.size()};
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_deadline = closed_start + ToDuration(closed_s);
  for (auto& conn_ptr : conns) {
    readers.emplace_back([&, &conn = *conn_ptr] {
      while (Clock::now() < closed_deadline) {
        const size_t q = next.fetch_add(1) % stream.size();
        const Clock::time_point sent = Clock::now();
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          conn.inflight.push_back({q, sent, sent});
        }
        if (!server::WriteFrame(conn.fd, frames[q]).ok()) {
          WireSample failed;
          failed.query = q;
          conn.samples.push_back(std::move(failed));
          return;
        }
        conn.samples.push_back(ReadResponse(conn));
        if (!conn.samples.back().ok) return;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  const std::vector<WireSample> closed_samples = DrainSamples(conns);
  for (auto& conn : conns) ::close(conn->fd);
  const double peak_rss = PeakRssMb();
  Progress("load phases done");

  // Every response is checked against the in-process answer for the same
  // query, one in-process call per distinct query; in a traced run these
  // calls are traced and supply the stage ledger.
  ledger->Attempt(arrivals.size() + closed_samples.size());
  std::vector<bool> needed(stream.size(), false);
  for (const WireSample& s : open_samples) needed[s.query] = true;
  for (const WireSample& s : closed_samples) needed[s.query] = true;
  std::vector<std::optional<std::vector<RankedUser>>> reference(stream.size());
  QueryLayers layers;
  const CounterSnapshot before;
  for (size_t q = 0; q < stream.size(); ++q) {
    if (!needed[q]) continue;
    TkLusQuery query = stream[q];
    query.trace = config.trace;
    ShardedCall(*engine, query, &layers, &reference[q], ledger);
  }
  const CounterSnapshot after;
  auto check = [&](const WireSample& s) {
    if (!s.ok) {
      ledger->Fail("wire request failed for query " + std::to_string(s.query));
      return;
    }
    std::vector<RankedUser> got;
    for (const server::WireUser& u : s.users) got.push_back(RankedUser{u.uid, u.score, {}});
    if (!reference[s.query] || got != *reference[s.query]) {
      ledger->Fail("wire answer differs from in-process for query " + std::to_string(s.query));
    }
  };
  for (const WireSample& s : open_samples) check(s);
  for (const WireSample& s : closed_samples) check(s);
  for (size_t i = open_samples.size(); i < arrivals.size(); ++i) {
    ledger->Fail("open-loop response missing");
  }
  Progress("answers checked");

  Samples latency_ms, transport_ms, engine_ms;
  size_t completed_in_window = 0;
  for (const WireSample& s : open_samples) {
    if (!s.ok) continue;
    latency_ms.Add(s.latency_ms);
    transport_ms.Add(std::max(0.0, s.rtt_ms - s.server_ms));
    engine_ms.Add(s.server_ms);
    if (s.received <= open_end) ++completed_in_window;
  }
  Completions completions(closed_start);
  for (const WireSample& s : closed_samples) {
    if (s.ok) completions.Add(s.received);
  }
  ledger->Context("loadgen.offered_qps", static_cast<double>(arrivals.size()) / open_s);
  if (!config.trace) {
    ledger->Set("setup_s", setup_s.Median(), "s");
    ReportLatency(latency_ms, completions.MedianRate(closed_s, kRateBlocks), ledger);
    ledger->Set("rss_peak_mb", peak_rss, "MB");
    // Counted over the send window only, so the drain does not dilute it.
    ledger->Set("loadgen.achieved_qps", static_cast<double>(completed_in_window) / open_s,
                "1/s");
  } else {
    ReportSplit(transport_ms, engine_ms, ledger);
    ledger->Set("loadgen.lateness_ms.p99", lateness_ms.Quantile(0.99), "ms");
    layers.Report(ShardBlockSize(*engine), /*sharded=*/true, ledger);
    ReportPoolHitRate(before, after, ledger);
    ReportShardedMemory(*engine, rss_after_setup, ledger);
    ReportTracingOverhead(
        stream,
        [&](const TkLusQuery& q) { return ShardedCall(*engine, q, nullptr, nullptr, ledger); },
        ledger);
  }
  srv->Stop();
}

// ---------------------------------------------------------------- ingest_read

void RunIngestRead(const RunConfig& config, Ledger* ledger) {
  const size_t seed_tweets = Scaled(kBenchTweets, config.scale);
  const size_t max_batches =
      static_cast<size_t>(std::ceil(config.seconds * 1000.0 / kBatchIntervalMs)) + 1;
  const GeneratedCorpus corpus =
      MakeCorpus(seed_tweets + max_batches * kBatchPosts, config.seed, 0.5);
  const std::vector<TkLusQuery> stream = MixStream(corpus, config.seed);
  const Dataset seed_part = Slice(corpus.dataset, 0, seed_tweets);
  std::vector<Dataset> batches;
  for (size_t at = seed_tweets; at < corpus.dataset.size(); at += kBatchPosts) {
    batches.push_back(Slice(corpus.dataset, at, at + kBatchPosts));
  }
  ledger->Context("corpus.tweets", static_cast<double>(corpus.dataset.size()));
  ledger->Context("corpus.seed_tweets", static_cast<double>(seed_tweets));
  ledger->Context("corpus.queries", static_cast<double>(stream.size()));
  ledger->Context("engine", "ShardedEngine N=4, in process");
  ledger->Context("ingest.batch_posts", static_cast<double>(kBatchPosts));
  ledger->Context("ingest.batch_interval_ms", kBatchIntervalMs);
  Progress("corpus ready");

  std::unique_ptr<ShardedEngine> engine;
  Samples setup_s;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    engine.reset();
    const std::string dir = FreshDir(config.work_dir, "sharded");
    const Clock::time_point start = Clock::now();
    auto built = ShardedEngine::Build(seed_part, ShardedOptions(dir));
    if (!built.ok()) {
      ledger->Fail("build: " + built.status().ToString());
      return;
    }
    engine = std::move(*built);
    for (size_t i = 0; i < kWarmupQueries && i < stream.size(); ++i) {
      if (auto r = engine->Query(stream[i]); !r.ok()) {
        ledger->Fail("warm-up query: " + r.status().ToString());
        return;
      }
    }
    setup_s.Add(SecondsSince(start));
  }
  const double rss_after_setup = RssMb();
  uint64_t wal_bytes_before = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    wal_bytes_before += engine->shard(s).wal().size_bytes();
  }
  Progress("set-up done");

  // Measured phase: paced appends on this thread, one closed-loop reader
  // beside them.
  std::atomic<bool> stop{false};
  Samples read_ms;
  QueryLayers layers;
  uint64_t reads = 0;
  uint64_t read_failures = 0;
  const CounterSnapshot before;
  const Clock::time_point start = Clock::now();
  Completions completions(start);
  std::thread reader([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      TkLusQuery q = stream[i % stream.size()];
      q.trace = config.trace;
      tklus::Result<tklus::ShardedQueryResult> result = kNotCalled;
      const double ms = TimedCall(config.trace, [&] { result = engine->Query(q); });
      ++reads;
      if (!result.ok()) {
        ++read_failures;
        continue;
      }
      read_ms.Add(ms);
      completions.Add(Clock::now());
      if (config.trace) layers.Add(result->stats, ms, result->outcomes.size());
    }
  });
  Samples append_ms, append_lateness_ms;
  size_t acked = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const double due_s = static_cast<double>(b) * kBatchIntervalMs / 1000.0;
    if (due_s >= config.seconds) break;
    const Clock::time_point scheduled = start + ToDuration(due_s);
    std::this_thread::sleep_until(scheduled);
    const Clock::time_point call = Clock::now();
    const Status st = engine->AppendBatch(batches[b]);
    append_ms.Add(MillisBetween(call, Clock::now()));
    append_lateness_ms.Add(MillisBetween(scheduled, call));
    ledger->Attempt();
    if (!st.ok()) {
      ledger->Fail("append: " + st.ToString());
      break;  // later batches would break the sid watermark contract
    }
    ++acked;
  }
  stop.store(true);
  reader.join();
  const CounterSnapshot after;
  const double peak_rss = PeakRssMb();
  ledger->Attempt(reads);
  for (uint64_t i = 0; i < read_failures; ++i) ledger->Fail("reader query failed");
  uint64_t wal_bytes_after = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    wal_bytes_after += engine->shard(s).wal().size_bytes();
  }
  Progress("measured phase done");

  // Final state after the last ack, against the oracle over exactly the
  // acknowledged prefix. The traced run also measures the DFS useful-byte
  // ratio here, where the engine is quiescent.
  const Dataset final_data = Slice(corpus.dataset, 0, seed_tweets + acked * kBatchPosts);
  const tklus::NaiveScanner oracle(&final_data, OracleOptions());
  QueryLayers final_layers;
  for (const size_t i : SampleIndices(stream.size(), kOracleSample, config.seed + 2)) {
    TkLusQuery q = stream[i];
    q.trace = config.trace;
    std::optional<std::vector<RankedUser>> users;
    ledger->Attempt();
    ShardedCall(*engine, q, &final_layers, &users, ledger);
    if (users && !SameUsers(*users, oracle.Process(stream[i]).users)) {
      ledger->Fail("final-state answer differs from NaiveScanner for query " +
                   std::to_string(i));
    }
  }
  Progress("answers checked");

  ledger->Context("ingest.acks", static_cast<double>(acked));
  if (!config.trace) {
    ledger->Set("setup_s", setup_s.Median(), "s");
    // The corpus grows during the run, so each block does more work than
    // the last: the whole-window rate, not a block median.
    ReportLatency(read_ms, completions.MeanRate(config.seconds), ledger);
    ledger->Set("rss_peak_mb", peak_rss, "MB");
    ledger->Set("append_p50_ms", append_ms.Quantile(0.50), "ms");
    ledger->Set("append_p99_ms", append_ms.Quantile(0.99), "ms");
    return;
  }
  ReportSplit(layers.transport_ms(), layers.engine_ms(), ledger);
  layers.Report(ShardBlockSize(*engine), /*sharded=*/true, ledger);
  // The reader ran during ingest, when the forward indexes may not be
  // read; the useful-byte ratio comes from the quiescent final state.
  layers.Report(ShardBlockSize(*engine), /*sharded=*/true, ledger);
  ledger->Set("dfs.useful_byte_ratio", final_layers.UsefulByteRatio(ShardBlockSize(*engine)),
              "ratio");
  ReportPoolHitRate(before, after, ledger);
  ReportShardedMemory(*engine, rss_after_setup, ledger);
  const double acks = acked == 0 ? 1.0 : static_cast<double>(acked);
  ledger->Set("wal.fsyncs_per_append",
              static_cast<double>(after.wal_fsyncs - before.wal_fsyncs) / acks, "count");
  ledger->Set("wal.bytes_per_post",
              static_cast<double>(wal_bytes_after - wal_bytes_before) /
                  (acks * static_cast<double>(kBatchPosts)),
              "bytes");
  ledger->Set("delta.folds", static_cast<double>(after.delta_merges - before.delta_merges),
              "count");
  ledger->Set("mapreduce.task_attempts",
              static_cast<double>(after.task_attempts - before.task_attempts), "count");
  ledger->Set("loadgen.lateness_ms.p99", append_lateness_ms.Quantile(0.99), "ms");
  ReportTracingOverhead(
      stream,
      [&](const TkLusQuery& q) { return ShardedCall(*engine, q, nullptr, nullptr, ledger); },
      ledger);
}

}  // namespace

bool RunWorkload(const RunConfig& config, Ledger* ledger) {
  Progress("start " + config.workload);
  ledger->Context("workload", config.workload);
  ledger->Context("seed", static_cast<double>(config.seed));
  ledger->Context("seconds", config.seconds);
  ledger->Context("trace", config.trace ? 1.0 : 0.0);
  ledger->Context("scale", config.scale);
  RecordHostContext(config.work_dir, ledger);
  const double effective_cores = EffectiveCores(OnlineCpus());
  ledger->Context("host.effective_cores", effective_cores);
  if (config.trace) ledger->Set("host.effective_cores", effective_cores, "cores");

  if (config.workload == "wire_mix") {
    RunWireMix(config, ledger);
  } else if (config.workload == "hot_fit") {
    RunHot(config, kDefaultMemoEntries, /*fill_memo=*/true, ledger);
  } else if (config.workload == "hot_overflow") {
    RunHot(config, kOverflowMemoEntries, /*fill_memo=*/false, ledger);
  } else if (config.workload == "ingest_read") {
    RunIngestRead(config, ledger);
  } else {
    return false;
  }
  ReportErrorRate(ledger);
  return true;
}

}  // namespace perfbench
