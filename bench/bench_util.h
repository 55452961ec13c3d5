#ifndef TKLUS_BENCH_BENCH_UTIL_H_
#define TKLUS_BENCH_BENCH_UTIL_H_

// Shared harness for the per-figure/table benchmark binaries. Each binary
// regenerates one table or figure of the paper's §VI evaluation on a
// synthetic corpus (see DESIGN.md §2 for the dataset substitution) and
// prints the same rows/series the paper reports.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "datagen/query_workload.h"
#include "datagen/tweet_generator.h"

namespace tklus {
namespace bench {

// Benchmark corpus scale. Override with TKLUS_BENCH_TWEETS (and the other
// parameters scale proportionally) to run larger sweeps.
struct Scale {
  size_t tweets = 60000;
  size_t users = 1500;
  int cities = 8;
};

inline Scale ScaleFromEnv() {
  Scale scale;
  if (const char* env = std::getenv("TKLUS_BENCH_TWEETS")) {
    const long long n = std::atoll(env);
    if (n > 0) {
      scale.tweets = static_cast<size_t>(n);
      scale.users = std::max<size_t>(200, scale.tweets / 40);
    }
  }
  return scale;
}

inline datagen::TweetGenerator::Options CorpusOptions(const Scale& scale,
                                                      uint64_t seed = 42) {
  datagen::TweetGenerator::Options opts;
  opts.seed = seed;
  opts.num_tweets = scale.tweets;
  opts.num_users = scale.users;
  opts.num_cities = scale.cities;
  opts.experts_per_city = 10;
  return opts;
}

inline datagen::GeneratedCorpus MakeCorpus(const Scale& scale,
                                           uint64_t seed = 42) {
  return datagen::TweetGenerator::Generate(CorpusOptions(scale, seed));
}

// The paper sets N "empirically ... such that keyword relevance score is
// comparable to the distance score" for its corpus (§III-B). For the
// synthetic benchmark corpus the same calibration lands near 4 (typical
// hot-topic thread popularity ~3-25, tf 1-3, distance scores ~0.4-0.9).
inline constexpr double kBenchNNorm = 4.0;

// Builds a bench engine in the Alg. 1 mode: the figure benches measure
// the paper's thread construction (threads built, DB page reads), which
// the default ingest-time φ path does not perform.
inline std::unique_ptr<TkLusEngine> MakeEngine(
    const Dataset& dataset, TkLusEngine::Options options = {}) {
  options.alg1_thread_construction = true;
  if (options.scoring.n_norm == ScoringParams{}.n_norm) {
    options.scoring.n_norm = kBenchNNorm;
  }
  if (options.buffer_pool_pages == TkLusEngine::Options{}.buffer_pool_pages) {
    // Keep the pool well below the database size so thread construction
    // pays real page I/O, as in the paper's disk-resident setting.
    options.buffer_pool_pages = 256;
  }
  auto engine = TkLusEngine::Build(dataset, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*engine);
}

// Prints the figure banner with the paper's qualitative claim, so the
// output is self-describing when collected into bench_output.txt.
inline void Banner(const char* figure, const char* claim) {
  std::printf("\n==== %s ====\n", figure);
  std::printf("paper: %s\n\n", claim);
}

struct RunStats {
  double mean_ms = 0;
  double mean_threads_built = 0;
  double mean_threads_pruned = 0;
  double mean_db_reads = 0;
  double mean_candidates = 0;
};

// Runs every query and averages the execution statistics. Exits on error
// (benchmarks have no recovery path worth writing).
inline RunStats RunQueries(TkLusEngine& engine,
                           const std::vector<TkLusQuery>& queries) {
  RunStats stats;
  if (queries.empty()) return stats;
  for (const TkLusQuery& q : queries) {
    auto result = engine.Query(q);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    stats.mean_ms += result->stats.elapsed_ms;
    stats.mean_threads_built += static_cast<double>(
        result->stats.threads_built);
    stats.mean_threads_pruned += static_cast<double>(
        result->stats.threads_pruned);
    stats.mean_db_reads += static_cast<double>(result->stats.db_page_reads);
    stats.mean_candidates += static_cast<double>(result->stats.candidates);
  }
  const double n = static_cast<double>(queries.size());
  stats.mean_ms /= n;
  stats.mean_threads_built /= n;
  stats.mean_threads_pruned /= n;
  stats.mean_db_reads /= n;
  stats.mean_candidates /= n;
  return stats;
}

// Applies radius / k / semantics / ranking onto a copy of the workload.
inline std::vector<TkLusQuery> With(std::vector<TkLusQuery> queries,
                                    double radius_km, int k,
                                    Semantics semantics, Ranking ranking) {
  for (TkLusQuery& q : queries) {
    q.radius_km = radius_km;
    q.k = k;
    q.semantics = semantics;
    q.ranking = ranking;
  }
  return queries;
}

}  // namespace bench
}  // namespace tklus

#endif  // TKLUS_BENCH_BENCH_UTIL_H_
