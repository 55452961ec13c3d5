#include "core/query_processor.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

#include "core/cover.h"
#include "geo/distance.h"
#include "index/postings_ops.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace tklus {

namespace {

// Running top-k score threshold: the paper's topKUser priority queue
// (Alg. 5 line 3). Scores only grow during a scan (every contribution is
// non-negative), so the peek value is monotone and pruning stays valid.
//
// Only the k largest current scores are materialized (`topk_`), so Peek is
// the multiset minimum — O(1) — instead of an O(k) std::advance over every
// user's score on every candidate. Score monotonicity makes the bounded
// set maintainable: a user's new score can only move it further into the
// top k, never out of it.
class TopKTracker {
 public:
  explicit TopKTracker(int k) : k_(k) {}

  // Updates user's current score (must be >= its previous score).
  void Update(UserId uid, double score) {
    double old_score = 0.0;
    bool had_old = false;
    const auto it = current_.find(uid);
    if (it != current_.end()) {
      old_score = it->second;
      had_old = true;
      it->second = score;
    } else {
      current_.emplace(uid, score);
    }
    if (had_old) {
      // Scores are compared by value: if several users share old_score,
      // evicting any one copy keeps topk_ the correct value-multiset.
      const auto pos = topk_.find(old_score);
      if (pos != topk_.end()) {
        topk_.erase(pos);
        topk_.insert(score);
        return;
      }
    }
    if (static_cast<int>(topk_.size()) < k_) {
      topk_.insert(score);
    } else if (score > *topk_.begin()) {
      topk_.erase(topk_.begin());
      topk_.insert(score);
    }
  }

  bool Full() const { return static_cast<int>(current_.size()) >= k_; }

  // k-th largest current score — topKUser.peek(). Only valid when Full().
  double Peek() const { return *topk_.begin(); }

 private:
  int k_;
  std::unordered_map<UserId, double> current_;
  std::multiset<double> topk_;  // the k largest current scores
};

uint64_t DfsBlockReads(const SimulatedDfs* dfs) {
  uint64_t reads = 0;
  for (const auto& node : dfs->node_stats()) reads += node.block_reads;
  return reads;
}

uint64_t InjectedFaults(const SimulatedDfs* dfs) {
  const FaultInjector* injector = dfs->fault_injector();
  return injector == nullptr ? 0 : injector->total_injected();
}

// I/O counters captured at query entry and diffed into QueryStats at the
// end. One shared helper so Process and ProcessTweets account identically
// (ProcessTweets used to skip the DB/DFS baselines, reporting zero reads).
struct IoBaselines {
  uint64_t db_page_reads = 0;
  uint64_t dfs_block_reads = 0;
  uint64_t fetch_retries = 0;
  uint64_t injected_faults = 0;

  static IoBaselines Capture(MetadataDb* db, const HybridIndex* index) {
    IoBaselines b;
    b.db_page_reads = db->disk().stats().page_reads;
    b.dfs_block_reads = DfsBlockReads(index->dfs());
    b.fetch_retries = index->fetch_retries();
    b.injected_faults = InjectedFaults(index->dfs());
    return b;
  }

  // Accumulates (rather than assigns) so the sharded router can sum the
  // per-shard FetchCandidates deltas into one QueryStats; the single-engine
  // path starts from a Reset() so the behavior there is unchanged.
  void Finish(MetadataDb* db, const HybridIndex* index,
              QueryStats& stats) const {
    stats.db_page_reads += db->disk().stats().page_reads - db_page_reads;
    stats.dfs_block_reads += DfsBlockReads(index->dfs()) - dfs_block_reads;
    stats.dfs_read_retries += index->fetch_retries() - fetch_retries;
    stats.injected_faults += InjectedFaults(index->dfs()) - injected_faults;
  }
};

// One processing stage: a trace span plus the per-stage I/O read deltas.
// Every stage records stage::kCounterDbPageReads/kCounterDfsBlockReads
// (even when zero), and the stages tile the candidate-to-result path, so
// summing a counter over stage spans reproduces the QueryStats total.
// Tolerates null db/index (the ShardedEngine's ranking plane has neither;
// its stages perform no direct I/O, so the counters record zero).
class StageScope {
 public:
  StageScope(Tracer& tracer, std::string_view name, MetadataDb* db,
             const HybridIndex* index)
      : db_(db), index_(index), span_(tracer.StartSpan(name)) {
    if (span_.active()) {
      db_reads_before_ =
          db_ == nullptr ? 0 : db_->disk().stats().page_reads.load();
      dfs_reads_before_ = index_ == nullptr ? 0 : DfsBlockReads(index_->dfs());
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  ~StageScope() { End(); }

  Tracer::Span& span() { return span_; }

  void End() {
    if (span_.active()) {
      const uint64_t db_reads =
          db_ == nullptr ? 0 : db_->disk().stats().page_reads.load();
      const uint64_t dfs_reads =
          index_ == nullptr ? 0 : DfsBlockReads(index_->dfs());
      span_.AddCounter(stage::kCounterDbPageReads, db_reads - db_reads_before_);
      span_.AddCounter(stage::kCounterDfsBlockReads,
                       dfs_reads - dfs_reads_before_);
    }
    span_.End();
  }

 private:
  MetadataDb* db_;
  const HybridIndex* index_;
  Tracer::Span span_;
  uint64_t db_reads_before_ = 0;
  uint64_t dfs_reads_before_ = 0;
};

// Resolves metadata misses through delta-resident posts: a candidate tid
// that the metadata DB has no row for yet (its batch is durable in the WAL
// but not folded) materializes from the delta instead. A tid in neither
// place remains nullopt and is reported as corruption by the caller.
void FillMetasFromDelta(const DeltaIndex* delta,
                        const std::vector<int64_t>& sids,
                        std::vector<std::optional<TweetMeta>>* metas) {
  if (delta == nullptr || delta->empty()) return;
  for (size_t i = 0; i < sids.size(); ++i) {
    if ((*metas)[i].has_value()) continue;
    const Post* post = delta->FindBySid(sids[i]);
    if (post == nullptr) continue;
    (*metas)[i] = TweetMeta{post->sid,          post->uid,
                            post->location.lat, post->location.lon,
                            post->ruid,         post->rsid};
  }
}

}  // namespace

ThreadBuilder QueryProcessor::MakeThreadBuilder() const {
  ThreadBuilder builder(
      db_, ThreadBuilder::Options{options_.thread_depth,
                                  options_.scoring.epsilon});
  // Hook the builder only when the delta can actually contribute:
  // attaching a source turns on per-level dedup, and the no-delta path
  // keeps its historical (hook-free) traversal byte-for-byte.
  if (delta_ != nullptr && !delta_->empty()) {
    const DeltaIndex* delta = delta_;
    builder.set_extra_children([delta](TweetId sid, std::vector<TweetId>* out) {
      delta->AppendChildren(sid, out);
    });
  }
  return builder;
}

Status QueryProcessor::CheckTrackerDepth() const {
  if (tracker_ == nullptr ||
      tracker_->options().max_depth == options_.thread_depth) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "thread_depth " + std::to_string(options_.thread_depth) +
      " differs from the thread tracker's depth cap " +
      std::to_string(tracker_->options().max_depth) +
      " (φ is maintained at ingest for one depth)");
}

Status QueryProcessor::ValidateQuery(const TkLusQuery& query,
                                     bool tweet_query) {
  if (query.k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (query.radius_km <= 0) {
    return Status::InvalidArgument("radius must be positive");
  }
  if (query.temporal.half_life.has_value()) {
    if (!query.temporal.reference.has_value()) {
      return Status::InvalidArgument(
          "temporal.half_life requires temporal.reference");
    }
    if (!tweet_query && *query.temporal.half_life <= 0) {
      return Status::InvalidArgument("temporal.half_life must be positive");
    }
  }
  return Status::Ok();
}

std::vector<std::string> QueryProcessor::NormalizeKeywords(
    const std::vector<std::string>& keywords) const {
  std::vector<std::string> terms;
  std::unordered_set<std::string> seen;
  for (const std::string& keyword : keywords) {
    for (std::string& term : tokenizer_.Tokenize(keyword)) {
      if (!seen.insert(term).second) continue;  // O(1) dedup, order kept
      terms.push_back(std::move(term));
    }
  }
  return terms;
}

Result<std::vector<std::optional<TweetMeta>>> QueryProcessor::ResolveCandidates(
    const std::vector<Posting>& candidates, Tracer& tracer,
    QueryStats* stats) {
  StageScope resolve_stage(tracer, stage::kSidResolve, db_, index_);
  // Scratch is thread_local, not a member: the processor is shared by
  // concurrent query threads, and hoisting the buffers out of the per-query
  // scope drops two allocations per query once each thread is warm.
  static thread_local std::vector<int64_t> candidate_sids;
  candidate_sids.clear();
  candidate_sids.reserve(candidates.size());
  for (const Posting& posting : candidates) {
    candidate_sids.push_back(posting.tid);
  }

  std::vector<std::optional<TweetMeta>> metas(candidates.size());
  uint64_t store_hits = 0;
  if (sid_store_ != nullptr) {
    store_hits = sid_store_->ResolveBatch(candidate_sids, &metas);
  }
  // Overlay order is equivalent to the historical db-then-delta join: the
  // store carries exactly the DB's committed rows, and a sid present in
  // both (the crash-recovery double-apply window) carries an identical row
  // in both, so base-wins semantics are unchanged.
  FillMetasFromDelta(delta_, candidate_sids, &metas);

  // B+-tree fallback for rows neither the store nor the delta held —
  // empty in steady state (the exclusive-commit window keeps the store in
  // lockstep with the DB), non-empty only when the store is detached or
  // stale, where correctness beats the extra descents.
  static thread_local std::vector<int64_t> missing_sids;
  static thread_local std::vector<size_t> missing_slots;
  missing_sids.clear();
  missing_slots.clear();
  for (size_t i = 0; i < metas.size(); ++i) {
    if (metas[i].has_value()) continue;
    missing_sids.push_back(candidate_sids[i]);
    missing_slots.push_back(i);
  }
  if (!missing_sids.empty()) {
    Result<std::vector<std::optional<TweetMeta>>> rows =
        db_->SelectBySidBatch(missing_sids);
    if (!rows.ok()) return rows.status();
    for (size_t j = 0; j < missing_slots.size(); ++j) {
      metas[missing_slots[j]] = (*rows)[j];
    }
    stats->sid_store_fallback_rows += missing_sids.size();
  }
  stats->sid_store_hits += store_hits;

  resolve_stage.span().AddCounter("rows_resolved", metas.size());
  resolve_stage.span().AddCounter("sid_store_hits", store_hits);
  resolve_stage.span().AddCounter("sid_store_fallback_rows",
                                  missing_sids.size());
  resolve_stage.End();
  return metas;
}

Result<std::vector<ResolvedCandidate>> QueryProcessor::FetchCandidates(
    const TkLusQuery& query, const std::vector<std::string>& terms,
    const std::vector<std::string>& cells, bool count_postings_lists,
    bool account_io, Tracer& tracer, QueryStats* stats) {
  std::optional<IoBaselines> io;
  if (account_io) io = IoBaselines::Capture(db_, index_);

  // Lines 4-7: fetch postings lists per (cell, term).
  StageScope fetch_stage(tracer, stage::kPostingsFetch, db_, index_);
  std::vector<std::vector<Posting>> term_lists;
  term_lists.reserve(terms.size());
  for (const std::string& term : terms) {
    if (count_postings_lists) {
      for (const std::string& cell : cells) {
        if (index_->forward_index().Lookup(cell, term) != nullptr) {
          ++stats->postings_lists_fetched;
        }
      }
    }
    Result<std::vector<Posting>> list = index_->FetchTermPostings(cells, term);
    if (!list.ok()) return list.status();
    if (delta_ != nullptr && !delta_->empty()) {
      *list = MergeDeltaPostings(*list, delta_->FetchTermPostings(cells, term));
    }
    term_lists.push_back(std::move(*list));
  }

  // Lines 9-14: AND intersects, OR unions.
  std::vector<Posting> candidates = query.semantics == Semantics::kAnd
                                        ? IntersectPostings(term_lists)
                                        : UnionPostings(term_lists);
  stats->candidates += candidates.size();
  term_lists.clear();

  // Temporal window (§VIII extension): tweet ids are timestamps, so the
  // period filter applies directly to the combined postings, before any
  // metadata I/O is spent.
  if (query.temporal.begin || query.temporal.end) {
    std::erase_if(candidates, [&query](const Posting& p) {
      return !query.temporal.InWindow(p.tid);
    });
  }
  if (count_postings_lists) {
    fetch_stage.span().AddCounter("postings_lists",
                                  stats->postings_lists_fetched);
  }
  fetch_stage.span().AddCounter("candidates", candidates.size());
  fetch_stage.End();

  // Line 20 (Alg. 4) / line 22 (Alg. 5): resolve every candidate's user
  // and location — O(1) through the SidStore, with the delta overlay and
  // the B+-tree fallback behind it (see ResolveCandidates).
  Result<std::vector<std::optional<TweetMeta>>> metas =
      ResolveCandidates(candidates, tracer, stats);
  if (!metas.ok()) return metas.status();

  std::vector<ResolvedCandidate> resolved;
  resolved.reserve(candidates.size());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (!(*metas)[ci].has_value()) {
      return Status::Corruption("indexed tweet missing from metadata DB: " +
                                std::to_string(candidates[ci].tid));
    }
    resolved.push_back(ResolvedCandidate{candidates[ci], *(*metas)[ci]});
  }
  if (io.has_value()) io->Finish(db_, index_, *stats);
  return resolved;
}

double QueryProcessor::UserDistanceScore(UserId uid,
                                         const TkLusQuery& query) const {
  const auto it = user_locations_->find(uid);
  if (it == user_locations_->end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const GeoPoint& location : it->second) {
    sum += DistanceScore(location, query.location, query.radius_km);
  }
  return sum / static_cast<double>(it->second.size());
}

double QueryProcessor::FinalScore(const UserState& state,
                                  Ranking ranking) const {
  const double rho =
      ranking == Ranking::kSum ? state.rho_sum : state.rho_max;
  return UserScore(rho, state.delta_user, options_.scoring);
}

Result<double> QueryProcessor::Popularity(TweetId root_sid,
                                          ThreadBuilder& builder,
                                          QueryStats& stats) {
  if (tracker_ != nullptr) {
    ++stats.phi_tracker_reads;
    return tracker_->Popularity(root_sid, options_.scoring.epsilon);
  }
  if (popularity_cache_ != nullptr) {
    const std::optional<double> cached = popularity_cache_->Get(
        root_sid, options_.thread_depth, options_.scoring.epsilon);
    if (cached.has_value()) {
      ++stats.popularity_cache_hits;
      return *cached;
    }
  }
  // Capture the epoch before the rsid descents so a φ computed against a
  // pre-append thread can never be installed into a post-append cache.
  const uint64_t generation =
      popularity_cache_ != nullptr ? popularity_cache_->generation() : 0;
  Result<double> popularity = builder.Popularity(root_sid);
  if (!popularity.ok()) return popularity;
  ++stats.threads_built;
  if (popularity_cache_ != nullptr) {
    ++stats.popularity_cache_misses;
    popularity_cache_->Put(root_sid, options_.thread_depth,
                           options_.scoring.epsilon, generation, *popularity);
  }
  return popularity;
}

Status QueryProcessor::RankUsers(const TkLusQuery& query,
                                 const std::vector<std::string>& terms,
                                 const std::vector<ResolvedCandidate>& candidates,
                                 Tracer& tracer,
                                 std::vector<RankedUser>* out_users,
                                 QueryStats* stats) {
  TKLUS_RETURN_IF_ERROR(CheckTrackerDepth());
  ThreadBuilder thread_builder = MakeThreadBuilder();
  const bool pruned_mode =
      query.ranking == Ranking::kMax && options_.enable_pruning;
  const double bound_popularity = bounds_->QueryBound(
      terms, query.semantics == Semantics::kAnd, options_.use_hot_bounds);

  std::unordered_map<UserId, UserState> users;
  TopKTracker tracker(query.k);

  StageScope thread_stage(tracer, stage::kThreadConstruction, db_, index_);
  for (const ResolvedCandidate& candidate : candidates) {
    const Posting& posting = candidate.posting;
    const TweetMeta& row = candidate.meta;
    // Lines 16-17: distance filter (cells overhang the circle).
    const double dist = EuclideanKm(GeoPoint{row.lat, row.lon},
                                    query.location);
    if (dist > query.radius_km) continue;
    ++stats->within_radius;

    const auto [user_it, inserted] = users.try_emplace(row.uid);
    UserState& state = user_it->second;
    if (inserted) {
      // Def. 9 is fixed per (user, query); computed once from the offline
      // user location profile on first encounter.
      state.delta_user = UserDistanceScore(row.uid, query);
    }
    ++state.matched;

    // Alg. 5 lines 18-19: skip thread construction when even an optimal
    // thread could not lift this tweet past the current k-th user.
    bool prune = false;
    if (pruned_mode && tracker.Full()) {
      const double upper = TweetUpperBoundScore(posting.tf, bound_popularity,
                                                options_.scoring);
      prune = upper < tracker.Peek();
    }
    if (prune) {
      ++stats->threads_pruned;
    } else {
      Result<double> popularity = Popularity(posting.tid, thread_builder,
                                             *stats);
      if (!popularity.ok()) return popularity.status();
      double rho = KeywordRelevance(posting.tf, *popularity, options_.scoring);
      if (query.temporal.half_life.has_value()) {
        // Recency decay <= 1, so the Alg. 5 bound stays admissible.
        rho *= RecencyWeight(posting.tid, *query.temporal.reference,
                             *query.temporal.half_life);
      }
      state.rho_sum += rho;
      if (rho > state.rho_max) {
        state.rho_max = rho;
        state.best_tweet = posting.tid;
      }
    }
    if (pruned_mode) {
      tracker.Update(row.uid, FinalScore(state, query.ranking));
    }
  }
  thread_stage.span().AddCounter("within_radius", stats->within_radius);
  thread_stage.span().AddCounter("threads_built", stats->threads_built);
  thread_stage.span().AddCounter("threads_pruned", stats->threads_pruned);
  thread_stage.span().AddCounter("phi_tracker_reads",
                                 stats->phi_tracker_reads);
  thread_stage.span().AddCounter("popularity_cache_hits",
                                 stats->popularity_cache_hits);
  thread_stage.span().AddCounter("popularity_cache_misses",
                                 stats->popularity_cache_misses);
  thread_stage.End();

  // Lines 25-29: final user scores, sort, top k.
  StageScope score_stage(tracer, stage::kScoreTopk, db_, index_);
  std::vector<RankedUser> ranked;
  ranked.reserve(users.size());
  for (const auto& [uid, state] : users) {
    RankedUser user;
    user.uid = uid;
    user.score = FinalScore(state, query.ranking);
    if (query.explain) {
      user.why = UserScoreBreakdown{
          query.ranking == Ranking::kSum ? state.rho_sum : state.rho_max,
          state.delta_user, state.matched, state.best_tweet,
          state.rho_max};
    }
    ranked.push_back(std::move(user));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedUser& a, const RankedUser& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.uid < b.uid;
            });
  if (static_cast<int>(ranked.size()) > query.k) {
    ranked.resize(query.k);
  }
  score_stage.span().AddCounter("users_ranked", users.size());
  *out_users = std::move(ranked);
  score_stage.End();
  return Status::Ok();
}

Result<QueryResult> QueryProcessor::Process(const TkLusQuery& query) {
  TKLUS_RETURN_IF_ERROR(ValidateQuery(query, /*tweet_query=*/false));
  Stopwatch timer;
  QueryResult result;
  QueryStats& stats = result.stats;
  stats.Reset();
  const IoBaselines io = IoBaselines::Capture(db_, index_);
  std::shared_ptr<Trace> trace;
  if (query.trace) trace = std::make_shared<Trace>();
  Tracer tracer(trace.get());
  Tracer::Span root = tracer.StartSpan(stage::kQuery);

  // Line 1: the geohash cells covering the query circle.
  StageScope cover_stage(tracer, stage::kCover, db_, index_);
  const std::vector<std::string> cells =
      ComputeCover(query, index_->geohash_length());
  stats.cover_cells = cells.size();
  cover_stage.span().AddCounter("cover_cells", cells.size());

  const std::vector<std::string> terms = NormalizeKeywords(query.keywords);
  cover_stage.End();
  if (terms.empty()) {
    root.End();
    io.Finish(db_, index_, stats);
    stats.elapsed_ms = timer.ElapsedMillis();
    stats.trace = std::move(trace);
    return result;
  }

  Result<std::vector<ResolvedCandidate>> candidates = FetchCandidates(
      query, terms, cells, /*count_postings_lists=*/true,
      /*account_io=*/false, tracer, &stats);
  if (!candidates.ok()) return candidates.status();
  TKLUS_RETURN_IF_ERROR(
      RankUsers(query, terms, *candidates, tracer, &result.users, &stats));
  root.End();
  io.Finish(db_, index_, stats);
  stats.elapsed_ms = timer.ElapsedMillis();
  stats.trace = std::move(trace);
  return result;
}

Status QueryProcessor::RankTweets(const TkLusQuery& query,
                                  const std::vector<ResolvedCandidate>& candidates,
                                  Tracer& tracer,
                                  std::vector<RankedTweet>* out_tweets,
                                  QueryStats* stats) {
  TKLUS_RETURN_IF_ERROR(CheckTrackerDepth());
  ThreadBuilder thread_builder = MakeThreadBuilder();
  StageScope thread_stage(tracer, stage::kThreadConstruction, db_, index_);
  for (const ResolvedCandidate& candidate : candidates) {
    const Posting& posting = candidate.posting;
    const TweetMeta& row = candidate.meta;
    const double dist =
        EuclideanKm(GeoPoint{row.lat, row.lon}, query.location);
    if (dist > query.radius_km) continue;
    ++stats->within_radius;
    Result<double> popularity = Popularity(posting.tid, thread_builder,
                                           *stats);
    if (!popularity.ok()) return popularity.status();
    double rho = KeywordRelevance(posting.tf, *popularity, options_.scoring);
    if (query.temporal.half_life.has_value()) {
      rho *= RecencyWeight(posting.tid, *query.temporal.reference,
                           *query.temporal.half_life);
    }
    const double score = UserScore(
        rho, DistanceScore(dist, query.radius_km), options_.scoring);
    out_tweets->push_back(RankedTweet{posting.tid, row.uid, score, dist});
  }
  thread_stage.span().AddCounter("within_radius", stats->within_radius);
  thread_stage.span().AddCounter("threads_built", stats->threads_built);
  thread_stage.span().AddCounter("phi_tracker_reads",
                                 stats->phi_tracker_reads);
  thread_stage.span().AddCounter("popularity_cache_hits",
                                 stats->popularity_cache_hits);
  thread_stage.span().AddCounter("popularity_cache_misses",
                                 stats->popularity_cache_misses);
  thread_stage.End();

  StageScope score_stage(tracer, stage::kScoreTopk, db_, index_);
  std::sort(out_tweets->begin(), out_tweets->end(),
            [](const RankedTweet& a, const RankedTweet& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.sid < b.sid;
            });
  if (static_cast<int>(out_tweets->size()) > query.k) {
    out_tweets->resize(query.k);
  }
  score_stage.End();
  return Status::Ok();
}

Result<TweetQueryResult> QueryProcessor::ProcessTweets(
    const TkLusQuery& query) {
  TKLUS_RETURN_IF_ERROR(ValidateQuery(query, /*tweet_query=*/true));
  Stopwatch timer;
  TweetQueryResult result;
  QueryStats& stats = result.stats;
  stats.Reset();
  const IoBaselines io = IoBaselines::Capture(db_, index_);
  std::shared_ptr<Trace> trace;
  if (query.trace) trace = std::make_shared<Trace>();
  Tracer tracer(trace.get());
  Tracer::Span root = tracer.StartSpan(stage::kQuery);

  StageScope cover_stage(tracer, stage::kCover, db_, index_);
  const std::vector<std::string> cells =
      ComputeCover(query, index_->geohash_length());
  stats.cover_cells = cells.size();
  cover_stage.span().AddCounter("cover_cells", cells.size());
  const std::vector<std::string> terms = NormalizeKeywords(query.keywords);
  cover_stage.End();
  if (terms.empty()) {
    root.End();
    io.Finish(db_, index_, stats);
    stats.elapsed_ms = timer.ElapsedMillis();
    stats.trace = std::move(trace);
    return result;
  }

  Result<std::vector<ResolvedCandidate>> candidates = FetchCandidates(
      query, terms, cells, /*count_postings_lists=*/false,
      /*account_io=*/false, tracer, &stats);
  if (!candidates.ok()) return candidates.status();
  TKLUS_RETURN_IF_ERROR(
      RankTweets(query, *candidates, tracer, &result.tweets, &stats));
  root.End();
  io.Finish(db_, index_, stats);
  stats.elapsed_ms = timer.ElapsedMillis();
  stats.trace = std::move(trace);
  return result;
}

}  // namespace tklus
