#ifndef TKLUS_CORE_QUERY_PROCESSOR_H_
#define TKLUS_CORE_QUERY_PROCESSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/bounds.h"
#include "core/query.h"
#include "core/scoring.h"
#include "core/thread_tracker.h"
#include "geo/point.h"
#include "index/delta_index.h"
#include "index/hybrid_index.h"
#include "social/popularity_cache.h"
#include "social/thread_builder.h"
#include "storage/metadata_db.h"
#include "storage/sid_store.h"
#include "text/tokenizer.h"

namespace tklus {

class Tracer;  // obs/trace.h

// One combined-postings candidate zipped with its resolved metadata row.
// The fetch half of the pipeline (FetchCandidates) produces these sorted
// by tid; the ranking half (RankUsers/RankTweets) consumes them — possibly
// after a cross-shard merge of several disjoint streams.
struct ResolvedCandidate {
  Posting posting;
  TweetMeta meta;
};

// Executes TkLUS queries against the hybrid index + metadata database:
// Algorithm 4 (sum-score ranking) and Algorithm 5 (max-score ranking with
// upper-bound pruning and optional hot-keyword bounds).
//
// Thread safety: Process/ProcessTweets are safe for concurrent callers as
// long as no engine mutation (AppendBatch/Save, or the test-only
// mutable_options) runs concurrently — the engine's reader-writer lock
// provides exactly that. The processor itself holds no per-query state.
class QueryProcessor {
 public:
  struct Options {
    ScoringParams scoring;
    int thread_depth = 6;          // d of Alg. 1
    bool enable_pruning = true;    // Alg. 5 lines 18-19 (kMax only)
    bool use_hot_bounds = true;    // §VI-B5 specific bounds
  };

  // All pointers must outlive the processor. `user_locations` is the
  // offline per-user location profile backing the Def. 9 user distance
  // score (the average of delta(p, q) over *all* of u's posts).
  // `index` and `db` may both be nullptr for a ranking-only processor
  // (the ShardedEngine plane): Process/ProcessTweets/FetchCandidates are
  // then off-limits, RankUsers/RankTweets fully functional with φ read
  // from the attached thread tracker.
  QueryProcessor(const HybridIndex* index, MetadataDb* db,
                 const UpperBoundRegistry* bounds,
                 const std::unordered_map<UserId, std::vector<GeoPoint>>*
                     user_locations,
                 Tokenizer tokenizer, Options options)
      : index_(index),
        db_(db),
        bounds_(bounds),
        user_locations_(user_locations),
        tokenizer_(std::move(tokenizer)),
        options_(options) {}

  // Runs the query with the ranking method it selects.
  Result<QueryResult> Process(const TkLusQuery& query);

  // Tweet-level top-k spatial-keyword search over the same index: ranks
  // individual tweets by alpha * rho(p,q) + (1-alpha) * delta(p,q). The
  // `ranking` field of the query is ignored (there is no user
  // aggregation); semantics and temporal options apply.
  Result<TweetQueryResult> ProcessTweets(const TkLusQuery& query);

  // Parameter validation shared by Process, ProcessTweets and the sharded
  // router. `tweet_query` selects the (historically laxer) ProcessTweets
  // checks, which accept a non-positive half_life.
  static Status ValidateQuery(const TkLusQuery& query, bool tweet_query);

  // The candidate-fetch half of Process/ProcessTweets (Alg. 4/5 lines
  // 4-14 plus sid resolution): per-(cell, term) postings fetch with the
  // delta overlay, AND/OR combination, temporal-window filter, and
  // metadata resolution. Candidates come back sorted by tid. Requires a
  // processor wired with an index and a DB. `count_postings_lists` keeps
  // the Process/ProcessTweets asymmetry (only user queries count fetched
  // postings lists). With `account_io` the engine-level I/O deltas for
  // this call (db_page_reads/dfs_block_reads/retries/faults) are also
  // added into `stats` — the sharded mode, where no outer Process wraps
  // the call and accounts them.
  Result<std::vector<ResolvedCandidate>> FetchCandidates(
      const TkLusQuery& query, const std::vector<std::string>& terms,
      const std::vector<std::string>& cells, bool count_postings_lists,
      bool account_io, Tracer& tracer, QueryStats* stats);

  // The user-ranking half (Alg. 4/5 lines 16-29): distance filter, thread
  // popularity, per-user aggregation with Alg. 5 pruning, final sort and
  // top-k cut. Touches only bounds_/user_locations_ and the φ source (the
  // thread tracker, or Alg. 1 over the DB/delta behind the popularity
  // cache), so a processor wired with a null index and DB and a tracker —
  // the ShardedEngine's ranking plane — can run it over candidates merged
  // from many shards. Appends into `users` and accumulates into `stats`.
  // Fails with InvalidArgument when options().thread_depth differs from
  // the attached tracker's depth cap.
  Status RankUsers(const TkLusQuery& query,
                   const std::vector<std::string>& terms,
                   const std::vector<ResolvedCandidate>& candidates,
                   Tracer& tracer, std::vector<RankedUser>* users,
                   QueryStats* stats);

  // Tweet-flavor ranking half: per-tweet scores, sort, top-k cut.
  Status RankTweets(const TkLusQuery& query,
                    const std::vector<ResolvedCandidate>& candidates,
                    Tracer& tracer, std::vector<RankedTweet>* tweets,
                    QueryStats* stats);

  // Normalizes raw query keywords the same way indexed text is processed
  // (lowercase, stem, drop stop words); deduplicates.
  std::vector<std::string> NormalizeKeywords(
      const std::vector<std::string>& keywords) const;

  const Options& options() const { return options_; }
  Options& mutable_options() { return options_; }

  // Attaches the owner's ingest-time φ source (nullptr detaches). When set,
  // thread popularity is an array read from the tracker with this
  // processor's ε, and Alg. 1 (ThreadBuilder, the popularity cache) is not
  // used; a query whose thread_depth differs from the tracker's depth cap
  // fails with InvalidArgument rather than answer for another d.
  void set_thread_tracker(const ThreadTracker* tracker) { tracker_ = tracker; }

  // Attaches the engine-owned φ(p) memo for Alg. 1 (nullptr detaches: every
  // thread is rebuilt). Unused while a thread tracker is attached. The
  // cache must outlive the processor.
  void set_popularity_cache(PopularityCache* cache) { popularity_cache_ = cache; }
  PopularityCache* popularity_cache() const { return popularity_cache_; }

  // Attaches the engine-owned delta index (nullptr detaches). When set,
  // queries read base ⊎ delta: per-term postings merge with the delta's
  // lists (base wins on duplicate tids), metadata-DB misses resolve
  // through delta-resident posts, and thread traversal sees delta replies.
  // The engine's shared lock covers the delta for the whole query.
  void set_delta_index(const DeltaIndex* delta) { delta_ = delta; }
  const DeltaIndex* delta_index() const { return delta_; }

  // Attaches the engine-owned denormalized sid table (nullptr detaches:
  // every candidate resolves through the metadata DB again). When set,
  // the sid_resolve stage reads SidStore first, overlays the delta on the
  // misses, and touches the B+-tree only for rows neither holds — zero DB
  // page reads on the common path.
  void set_sid_store(const SidStore* store) { sid_store_ = store; }
  const SidStore* sid_store() const { return sid_store_; }

 private:
  struct UserState {
    double delta_user = 0.0;  // Def. 9 user distance score (query-fixed)
    double rho_sum = 0.0;     // Def. 7 accumulator
    double rho_max = 0.0;     // Def. 8 accumulator
    size_t matched = 0;       // candidates within radius
    TweetId best_tweet = 0;   // argmax rho(p, q)
  };

  // The shared sid_resolve stage of Process/ProcessTweets: opens the
  // kSidResolve span and resolves every candidate posting to its metadata
  // row — SidStore first (O(1), no I/O), delta overlay on the misses
  // (db-wins semantics preserved: the store carries exactly the DB's
  // committed state), metadata-DB batch lookup only for rows neither
  // holds. One entry per candidate, in order (nullopt where the sid is
  // unknown everywhere). Scratch vectors are thread_local: the processor
  // stays free of per-query state under concurrent callers.
  Result<std::vector<std::optional<TweetMeta>>> ResolveCandidates(
      const std::vector<Posting>& candidates, Tracer& tracer,
      QueryStats* stats);

  // Def. 9: average distance score of all the user's posts.
  double UserDistanceScore(UserId uid, const TkLusQuery& query) const;
  double FinalScore(const UserState& state, Ranking ranking) const;

  // φ(root_sid): from the thread tracker when attached (counting
  // phi_tracker_reads), else Alg. 1 through the cache when attached
  // (counting hits/misses and threads_built into `stats`), else straight
  // through `builder`.
  Result<double> Popularity(TweetId root_sid, ThreadBuilder& builder,
                            QueryStats& stats);

  // InvalidArgument when a tracker is attached whose depth cap is not
  // options_.thread_depth.
  Status CheckTrackerDepth() const;

  // Alg. 1 builder for the ranking half, with the delta index wired in as
  // a reply-children source when it holds posts.
  ThreadBuilder MakeThreadBuilder() const;

  const HybridIndex* index_;
  MetadataDb* db_;
  const UpperBoundRegistry* bounds_;
  const std::unordered_map<UserId, std::vector<GeoPoint>>* user_locations_;
  Tokenizer tokenizer_;
  Options options_;
  const ThreadTracker* tracker_ = nullptr;        // optional, owner-owned
  PopularityCache* popularity_cache_ = nullptr;  // optional, engine-owned
  const DeltaIndex* delta_ = nullptr;            // optional, engine-owned
  const SidStore* sid_store_ = nullptr;          // optional, engine-owned
};

}  // namespace tklus

#endif  // TKLUS_CORE_QUERY_PROCESSOR_H_
