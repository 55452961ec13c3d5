// Quickstart: build a TkLusEngine over a handful of tweets and run one
// top-k local user search. Mirrors the README's 5-minute tour.
#include <cstdio>

#include "core/engine.h"
#include "model/dataset.h"

using tklus::Dataset;
using tklus::GeoPoint;
using tklus::Post;
using tklus::TkLusEngine;
using tklus::TkLusQuery;

int main() {
  // 1. Assemble a dataset: (sid, uid, location, text [, reply linkage]).
  Dataset tweets;
  const auto add = [&tweets](int64_t sid, int64_t uid, double lat, double lon,
                             const char* text, int64_t rsid = tklus::kNoId,
                             int64_t ruid = tklus::kNoId) {
    Post p;
    p.sid = sid;
    p.uid = uid;
    p.location = GeoPoint{lat, lon};
    p.text = text;
    p.rsid = rsid;
    p.ruid = ruid;
    tweets.Add(std::move(p));
  };
  add(1, 101, 43.6839, -79.3736, "amazing espresso at this little cafe");
  add(2, 102, 43.6901, -79.3821, "best cafe in the city, trust me");
  add(3, 103, 43.6510, -79.3470, "cafe closed today, sad");
  add(4, 201, 43.6845, -79.3750, "so true!", /*rsid=*/2, /*ruid=*/102);
  add(5, 202, 43.6850, -79.3730, "agree, love that cafe", 2, 102);
  add(6, 104, 40.7128, -74.0060, "new york cafe crawl");  // out of range

  // 2. Build the engine: metadata DB + B+-trees, MapReduce-built hybrid
  //    geohash/keyword index in a simulated DFS, offline score bounds.
  auto engine = TkLusEngine::Build(tweets);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // 3. Ask: who are the top-2 local users for "cafe" within 10 km of
  //    downtown Toronto?
  TkLusQuery query;
  query.location = GeoPoint{43.6839128037, -79.37356590};
  query.radius_km = 10.0;
  query.keywords = {"cafe"};
  query.k = 2;
  query.ranking = tklus::Ranking::kSum;

  auto result = (*engine)->Query(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("top-%d local users for \"cafe\" near downtown Toronto:\n",
              query.k);
  for (const auto& user : result->users) {
    std::printf("  user %lld  score %.4f\n",
                static_cast<long long>(user.uid), user.score);
  }
  std::printf(
      "stats: %zu cover cells, %zu candidates, %llu phi reads, "
      "%.2f ms\n",
      result->stats.cover_cells, result->stats.candidates,
      static_cast<unsigned long long>(result->stats.phi_tracker_reads),
      result->stats.elapsed_ms);
  return 0;
}
