#ifndef TKLUS_CORE_QUERY_H_
#define TKLUS_CORE_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/point.h"
#include "model/post.h"

namespace tklus {

struct Trace;  // obs/trace.h; include it to inspect QueryStats::trace

// Span and counter names the query processor records when
// TkLusQuery::trace is set. The five stage spans tile the root "query"
// span, and every stage carries kCounterDbPageReads/kCounterDfsBlockReads
// deltas, so per-stage I/O counters sum to the whole-query totals.
namespace stage {
inline constexpr char kQuery[] = "query";
inline constexpr char kCover[] = "cover";
inline constexpr char kPostingsFetch[] = "postings_fetch";
inline constexpr char kSidResolve[] = "sid_resolve";
inline constexpr char kThreadConstruction[] = "thread_construction";
inline constexpr char kScoreTopk[] = "score_topk";
// Sharded-query spans (ShardedEngine): one kShardFetch per shard the
// cover touches (wrapping that shard's kPostingsFetch/kSidResolve), then
// one kShardMerge for the tid-ordered candidate merge. The ranking stages
// above follow under the same root span.
inline constexpr char kShardFetch[] = "shard_fetch";
inline constexpr char kShardMerge[] = "shard_merge";

inline constexpr char kCounterDbPageReads[] = "db_page_reads";
inline constexpr char kCounterDfsBlockReads[] = "dfs_block_reads";
}  // namespace stage

// Multi-keyword matching semantics (§V-A): AND requires all keywords in a
// candidate tweet, OR any of them.
enum class Semantics { kAnd, kOr };

// User ranking method: Sum Score (Def. 7, Alg. 4) or Maximum Score
// (Def. 8, Alg. 5 with upper-bound pruning).
enum class Ranking { kSum, kMax };

// Temporal extension of TkLUS (§VIII future work): "we can define a query
// for a particular period of time and only search the tweets that are
// posted in that period. Also, we can ... give priority to more recent
// tweets (and their users) in ranking." Tweet ids are timestamps (§IV-A),
// so the window filters directly on posting-list entries.
struct TemporalOptions {
  // Closed interval on tweet timestamps; unset bounds are open.
  std::optional<int64_t> begin;
  std::optional<int64_t> end;
  // Recency weighting: each tweet's keyword relevance is multiplied by
  // 0.5^((reference - sid) / half_life). Requires `reference` when set.
  std::optional<double> half_life;
  std::optional<int64_t> reference;

  bool Active() const {
    return begin.has_value() || end.has_value() || half_life.has_value();
  }
  bool InWindow(int64_t sid) const {
    if (begin && sid < *begin) return false;
    if (end && sid > *end) return false;
    return true;
  }
};

// A top-k local user search q(l, r, W) (§II-B).
struct TkLusQuery {
  GeoPoint location;
  double radius_km = 10.0;
  std::vector<std::string> keywords;  // raw; normalized by the processor
  int k = 10;
  Semantics semantics = Semantics::kOr;
  Ranking ranking = Ranking::kSum;
  TemporalOptions temporal;
  // Attach a UserScoreBreakdown to every returned user.
  bool explain = false;
  // Record a per-stage span tree into QueryStats::trace (obs/trace.h).
  bool trace = false;
};

// Per-user score evidence, filled when TkLusQuery::explain is set: how
// the Def. 10 mix decomposes and which tweet carried the user.
struct UserScoreBreakdown {
  double rho = 0.0;             // keyword part (rho_s or rho_m)
  double delta = 0.0;           // Def. 9 user distance score
  size_t matched_tweets = 0;    // candidate tweets within the radius
  TweetId best_tweet = 0;       // tweet with the highest rho(p, q)
  double best_tweet_rho = 0.0;
};

struct RankedUser {
  UserId uid = 0;
  double score = 0.0;
  std::optional<UserScoreBreakdown> why;  // set when query.explain

  friend bool operator==(const RankedUser& a, const RankedUser& b) {
    return a.uid == b.uid && a.score == b.score;
  }
};

// Per-query execution statistics, the quantities behind Figures 7-12.
struct QueryStats {
  size_t cover_cells = 0;
  size_t postings_lists_fetched = 0;
  size_t candidates = 0;        // postings after AND/OR combination
  size_t within_radius = 0;
  size_t threads_built = 0;
  size_t threads_pruned = 0;    // Alg. 5 line 19 skips
  // Engine popularity-cache traffic for this query (Alg. 1 mode): hits
  // are candidates whose φ(p) was served memoized (no thread
  // construction, no rsid descents); misses were computed and installed.
  // Both zero when the cache is disabled or φ comes from the tracker.
  uint64_t popularity_cache_hits = 0;
  uint64_t popularity_cache_misses = 0;
  // Candidates whose φ(p) was read from the ingest-time ThreadTracker (the
  // default φ source; zero in the Alg. 1 mode, where threads_built and the
  // cache counters above account for φ instead).
  uint64_t phi_tracker_reads = 0;
  // sid_resolve traffic split: candidates served by the O(1) SidStore vs
  // rows that had to fall back to the metadata DB's B+-tree (neither the
  // store nor the delta overlay held the sid). Fallback rows are zero in
  // steady state — nonzero means the store is stale relative to the DB.
  uint64_t sid_store_hits = 0;
  uint64_t sid_store_fallback_rows = 0;
  uint64_t db_page_reads = 0;   // metadata DB physical reads
  uint64_t dfs_block_reads = 0; // postings fetch reads
  // Fault-tolerance accounting: DFS reads re-issued after a transient
  // fault, and faults the injector raised during this query (both zero
  // outside fault-injection runs).
  uint64_t dfs_read_retries = 0;
  uint64_t injected_faults = 0;
  double elapsed_ms = 0.0;
  // Stage span tree, set only when TkLusQuery::trace was requested.
  // Shared (not owned) so results stay cheap to copy.
  std::shared_ptr<const Trace> trace;

  // Both query entry points (Process and ProcessTweets) start from this
  // one reset, so every counter — including the I/O deltas that
  // ProcessTweets historically left at zero — is accounted identically.
  void Reset() { *this = QueryStats(); }
};

struct QueryResult {
  std::vector<RankedUser> users;  // descending score, at most k
  QueryStats stats;

  std::vector<UserId> UserIds() const {
    std::vector<UserId> ids;
    ids.reserve(users.size());
    for (const RankedUser& u : users) ids.push_back(u.uid);
    return ids;
  }
};

// Tweet-level spatial-keyword search: the "straightforward approach" the
// paper's introduction contrasts TkLUS against ("directly retrieve tweets
// based on query keywords ... can return too many original tweets").
// Tweets are ranked by alpha * rho(p,q) + (1-alpha) * delta(p,q).
struct RankedTweet {
  TweetId sid = 0;
  UserId uid = 0;
  double score = 0.0;
  double distance_km = 0.0;
};

struct TweetQueryResult {
  std::vector<RankedTweet> tweets;  // descending score, at most k
  QueryStats stats;
};

}  // namespace tklus

#endif  // TKLUS_CORE_QUERY_H_
