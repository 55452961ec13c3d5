// tklus_cli — command-line front end for the library, covering the whole
// lifecycle a downstream user needs:
//
//   tklus_cli generate --tweets 50000 --out corpus.tsv
//   tklus_cli build    --corpus corpus.tsv --out /tmp/engine
//   tklus_cli query    --engine /tmp/engine --lat 43.68 --lon -79.37
//                      --radius 10 --keywords hotel,luxury --k 5 --ranking max
//   tklus_cli stats    --engine /tmp/engine
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "datagen/tweet_generator.h"
#include "model/dataset.h"

namespace {

using tklus::Dataset;
using tklus::GeoPoint;
using tklus::TkLusEngine;
using tklus::TkLusQuery;

// name -> value for "--name value" pairs.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", arg);
      std::exit(2);
    }
    flags[arg + 2] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

int Generate(const std::map<std::string, std::string>& flags) {
  tklus::datagen::TweetGenerator::Options opts;
  opts.num_tweets = std::stoull(FlagOr(flags, "tweets", "50000"));
  opts.num_users = std::stoull(
      FlagOr(flags, "users", std::to_string(opts.num_tweets / 40)));
  opts.num_cities = std::stoi(FlagOr(flags, "cities", "8"));
  opts.seed = std::stoull(FlagOr(flags, "seed", "42"));
  opts.untagged_frac = std::stod(FlagOr(flags, "untagged", "0"));
  const std::string out = FlagOr(flags, "out", "corpus.tsv");

  std::printf("generating %zu tweets / %zu users across %d cities...\n",
              opts.num_tweets, opts.num_users, opts.num_cities);
  const auto corpus = tklus::datagen::TweetGenerator::Generate(opts);
  const tklus::Status st = corpus.dataset.SaveTsv(out);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu posts to %s\n", corpus.dataset.size(), out.c_str());
  return 0;
}

int Build(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = FlagOr(flags, "corpus", "corpus.tsv");
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "build requires --out <engine dir>\n");
    return 2;
  }
  auto dataset = Dataset::LoadTsv(corpus_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  TkLusEngine::Options opts;
  opts.geohash_length = std::stoi(FlagOr(flags, "geohash-length", "4"));
  opts.scoring.n_norm = std::stod(FlagOr(flags, "n-norm", "40"));
  opts.scoring.alpha = std::stod(FlagOr(flags, "alpha", "0.5"));
  std::printf("building engine over %zu posts...\n", dataset->size());
  auto engine = TkLusEngine::Build(*dataset, opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const tklus::Status st = (*engine)->Save(out);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const auto& stats = (*engine)->index().build_stats();
  std::printf("engine saved to %s (%llu postings lists, %s inverted)\n",
              out.c_str(),
              static_cast<unsigned long long>(stats.postings_lists),
              tklus::HumanBytes(stats.inverted_bytes).c_str());
  return 0;
}

int Query(const std::map<std::string, std::string>& flags) {
  const std::string engine_dir = FlagOr(flags, "engine", "");
  if (engine_dir.empty() || !flags.count("lat") || !flags.count("lon") ||
      !flags.count("keywords")) {
    std::fprintf(stderr,
                 "query requires --engine --lat --lon --keywords a,b,...\n");
    return 2;
  }
  auto engine = TkLusEngine::Open(engine_dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  TkLusQuery q;
  q.location = GeoPoint{std::stod(flags.at("lat")),
                        std::stod(flags.at("lon"))};
  q.radius_km = std::stod(FlagOr(flags, "radius", "10"));
  q.k = std::stoi(FlagOr(flags, "k", "10"));
  for (const std::string& kw :
       tklus::StrSplit(flags.at("keywords"), ',')) {
    if (!kw.empty()) q.keywords.push_back(kw);
  }
  q.ranking = FlagOr(flags, "ranking", "sum") == "max"
                  ? tklus::Ranking::kMax
                  : tklus::Ranking::kSum;
  q.semantics = FlagOr(flags, "semantics", "or") == "and"
                    ? tklus::Semantics::kAnd
                    : tklus::Semantics::kOr;

  if (FlagOr(flags, "tweets", "no") == "yes") {
    auto result = (*engine)->QueryTweets(q);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6s %-12s %-10s %-10s %s\n", "rank", "tweet", "user",
                "score", "km");
    int rank = 1;
    for (const auto& t : result->tweets) {
      std::printf("%-6d %-12lld %-10lld %-10.4f %.2f\n", rank++,
                  static_cast<long long>(t.sid),
                  static_cast<long long>(t.uid), t.score, t.distance_km);
    }
    std::printf("(%zu candidates, %.2f ms)\n", result->stats.candidates,
                result->stats.elapsed_ms);
    return 0;
  }

  auto result = (*engine)->Query(q);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%-6s %-10s %s\n", "rank", "user", "score");
  int rank = 1;
  for (const auto& user : result->users) {
    std::printf("%-6d %-10lld %.4f\n", rank++,
                static_cast<long long>(user.uid), user.score);
  }
  std::printf(
      "(%zu cells, %zu candidates, %llu phi reads, %zu threads built, "
      "%zu pruned, %.2f ms)\n",
      result->stats.cover_cells, result->stats.candidates,
      static_cast<unsigned long long>(result->stats.phi_tracker_reads),
      result->stats.threads_built, result->stats.threads_pruned,
      result->stats.elapsed_ms);
  return 0;
}

int Stats(const std::map<std::string, std::string>& flags) {
  const std::string engine_dir = FlagOr(flags, "engine", "");
  if (engine_dir.empty()) {
    std::fprintf(stderr, "stats requires --engine <dir>\n");
    return 2;
  }
  auto engine = TkLusEngine::Open(engine_dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const auto& index_stats = (*engine)->index().build_stats();
  std::printf("metadata rows:   %llu\n",
              static_cast<unsigned long long>(
                  (*engine)->metadata_db().row_count()));
  std::printf("postings lists:  %llu (%llu postings, %s)\n",
              static_cast<unsigned long long>(index_stats.postings_lists),
              static_cast<unsigned long long>(index_stats.postings_entries),
              tklus::HumanBytes(index_stats.inverted_bytes).c_str());
  std::printf("forward index:   %zu entries (%s)\n",
              (*engine)->index().forward_index().size(),
              tklus::HumanBytes(index_stats.forward_bytes).c_str());
  std::printf("global bound:    %.3f\n", (*engine)->bounds().global_bound());
  std::printf("top terms:\n");
  for (const auto& [term, freq] : (*engine)->vocabulary().TopTerms(10)) {
    std::printf("  %-14s %llu\n", term.c_str(),
                static_cast<unsigned long long>(freq));
  }
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: tklus_cli <command> [--flag value ...]\n"
      "  generate --tweets N [--users N] [--cities N] [--seed S]\n"
      "           [--untagged F] --out corpus.tsv\n"
      "  build    --corpus corpus.tsv --out <engine dir>\n"
      "           [--geohash-length L] [--n-norm N] [--alpha A]\n"
      "  query    --engine <dir> --lat LAT --lon LON --keywords a,b\n"
      "           [--radius KM] [--k K] [--ranking sum|max]\n"
      "           [--semantics or|and] [--tweets yes]\n"
      "  stats    --engine <dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "generate") return Generate(flags);
  if (command == "build") return Build(flags);
  if (command == "query") return Query(flags);
  if (command == "stats") return Stats(flags);
  Usage();
  return 2;
}
