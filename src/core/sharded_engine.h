#ifndef TKLUS_CORE_SHARDED_ENGINE_H_
#define TKLUS_CORE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/lock_ranks.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "core/shard_router.h"
#include "core/thread_tracker.h"
#include "model/dataset.h"
#include "obs/metrics.h"
#include "text/vocabulary.h"

namespace tklus {

// Outcome of one shard's fetch during a scatter-gather query. Only shards
// the query cover actually touched appear in a result's outcome list.
struct ShardOutcome {
  int shard = 0;
  Status status = Status::Ok();
};

struct ShardedQueryResult {
  std::vector<RankedUser> users;  // descending score, at most k
  QueryStats stats;               // per-shard fetch stats summed + ranking
  // One entry per shard the cover touched, in shard order.
  std::vector<ShardOutcome> outcomes;
  // True when at least one touched shard failed and Options::strict was
  // off: `users` ranks only the surviving shards' candidates.
  bool degraded = false;
};

struct ShardedTweetQueryResult {
  std::vector<RankedTweet> tweets;
  QueryStats stats;
  std::vector<ShardOutcome> outcomes;
  bool degraded = false;
};

// N independent TkLusEngine shards behind one scatter-gather router —
// the horizontal scale-out step of the ROADMAP (DESIGN.md §16).
//
// Sharding model. The shard key is the geohash cell (§VI-B2, the paper's
// own spatial partition unit): every cell is owned by exactly one shard
// (ShardRouter, FNV-1a mod N), and a post lives in the shard owning its
// cell, so each shard is a complete, self-contained TkLusEngine over its
// slice — own metadata DB + buffer pool, own hybrid index + DFS, own
// WAL + delta index, own SidStore and SharedMutex.
// Appends route sub-batches to owning shards and ack only after every
// owning shard's WAL fsync; queries compute the circle's cover once (the
// same ComputeCover as the single engine), fan out only to shards owning
// cover cells, and merge the returned candidate streams.
//
// Exactness. The router does NOT merge per-shard top-k user lists — a
// user's score aggregates tweets that may span shards, so merging ranked
// lists is unsound in general. Instead the fan-out returns per-shard
// *candidate* streams (tid-sorted, disjoint because each post has one
// owning cell), the router merges them into the exact global candidate
// sequence, and the single engine's own ranking loop (QueryProcessor::
// RankUsers, with the Alg. 5 bound pruning driven by this router's global
// UpperBoundRegistry) runs over it at the router's "plane". The plane
// mirrors the global social state the ranking needs — thread tracker (φ
// and exact bounds), user location profiles (Def. 9), vocabulary and sid
// watermark — maintained on every append exactly like a single engine's.
// φ is read from the plane's tracker; the Alg. 1 mode
// (TkLusEngine::Options::alg1_thread_construction) is rejected with
// InvalidArgument, since the plane holds no metadata DB to descend.
// Differential oracle + the golden corpus pin ShardedEngine(N) ≡
// TkLusEngine byte-for-byte for N ∈ {1,2,4,8}.
//
// Append visibility: the whole absorb (plane, then every owning shard)
// holds plane_mu_ exclusively while queries hold it shared across their
// entire scatter-gather, so a batch becomes visible atomically — readers
// only ever observe complete batch prefixes, never a torn cross-shard
// state. Within the window the plane absorbs *before* any shard:
// bounds/tracker lead candidate visibility, so even a batch that fails
// partway (leaving the plane ahead of some shards) leaves upper bounds
// at least as large as every visible candidate's thread — Alg. 5 pruning
// stays admissible. Unlike the single engine, readers do not overlap the
// shard WAL fsyncs (atomic cross-shard visibility costs reader overlap).
// Cross-shard appends are not atomic under failure: if a shard's WAL
// append fails mid-batch, earlier shards keep their acked sub-batches,
// the call returns the error, and the batch as a whole is not acked.
//
// Durability. Shards run with Options::auto_checkpoint=false: their
// background folds never truncate their WALs on their own. Save()
// persists the plane (router.bin, watermark M) *first*, then checkpoints
// every shard — so any WAL record a shard truncates is ≤ M and inside the
// plane image. Open() restores router.bin, opens every shard (per-shard
// WAL replay, fully independent), and re-absorbs shard delta posts with
// sid > M into the plane in global sid order.
//
// Failure semantics (queries): per-shard fetch failures follow the
// FederatedEngine degraded-mode pattern. Default (strict=false): failed
// shards are skipped, the result carries degraded=true and per-shard
// outcomes, and `tklus_shard_failures_total` counts the failures; all
// touched shards failing yields kUnavailable. strict=true fails closed on
// the first shard error.
//
// Lock order: ingest_mu_ (rank 4) -> plane_mu_ (rank 6) -> per-shard
// engine locks (ranks 10..40); see core/lock_ranks.h.
class ShardedEngine {
 public:
  struct Options {
    int num_shards = 4;
    // Parent directory holding router.bin + one shard_<i>/ per shard.
    // Empty -> unique temp directory (removed on destruction).
    std::string working_dir;
    // Fail closed on any shard fetch failure instead of degrading.
    bool strict = false;
    // Template for every shard engine. working_dir is overridden per
    // shard; auto_checkpoint is forced off.
    TkLusEngine::Options shard;
    // Test hook: tweak one shard's options (e.g. wire a FaultInjector
    // into shard 2 only) after the template is applied.
    std::function<void(int shard, TkLusEngine::Options*)> shard_options_hook;
  };

  static Result<std::unique_ptr<ShardedEngine>> Build(const Dataset& dataset,
                                                      Options options);
  static Result<std::unique_ptr<ShardedEngine>> Open(const std::string& dir,
                                                     Options options);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Routes the batch to owning shards. Acks (returns OK) only once every
  // owning shard's WAL fsynced its sub-batch. Same batch contract as
  // TkLusEngine::AppendBatch: sids sorted, strictly above the watermark.
  Status AppendBatch(const Dataset& batch)
      TKLUS_EXCLUDES(ingest_mu_, plane_mu_);

  // Checkpoints the plane (router.bin) and then every shard into the
  // working directory, truncating the shards' WALs.
  Status Save() TKLUS_EXCLUDES(ingest_mu_, plane_mu_);

  // Folds every shard's delta into its base index (no checkpoints).
  // Deterministic merge point for tests and benchmarks.
  Status MergeAllNow() TKLUS_EXCLUDES(ingest_mu_, plane_mu_);

  Result<ShardedQueryResult> Query(const TkLusQuery& query)
      TKLUS_EXCLUDES(plane_mu_);
  Result<ShardedTweetQueryResult> QueryTweets(const TkLusQuery& query)
      TKLUS_EXCLUDES(plane_mu_);

  int num_shards() const { return options_.num_shards; }
  const Options& options() const { return options_; }
  // Component access for tests/benchmarks on a quiescent engine.
  TkLusEngine& shard(int i) { return *shards_[i]; }
  const ShardRouter& router() const { return router_; }
  // The plane's ranking processor — tests tweak scoring/pruning here the
  // same way they use TkLusEngine::processor() (shard-side fetch has no
  // scoring options to mirror).
  QueryProcessor& plane_processor() { return *processor_; }
  const UpperBoundRegistry& bounds() const TKLUS_NO_THREAD_SAFETY_ANALYSIS {
    return bounds_;
  }

 private:
  ShardedEngine() : router_(1) {}

  // Shared tail of Build/Open: plane processor + metrics.
  void FinishConstruction() TKLUS_REQUIRES(plane_mu_);
  // Absorbs one post into every plane structure except bounds (the caller
  // recomputes bounds_ once per batch).
  void AbsorbPostLocked(const Post& post, const Tokenizer& tokenizer)
      TKLUS_REQUIRES(plane_mu_);

  std::string ShardDir(int shard) const;
  Status SerializePlane(std::string* payload) const
      TKLUS_EXCLUDES(plane_mu_);

  Options options_;
  bool owns_working_dir_ = false;
  ShardRouter router_;
  std::vector<std::unique_ptr<TkLusEngine>> shards_;

  // Serializes appenders and Save against each other (rank below every
  // shard lock: held across the per-shard AppendBatch/Save fan-out).
  Mutex ingest_mu_{lockrank::kShardedIngestMu, "ingest_mu_"};
  // Reader-writer lock over the plane state below; queries hold it shared
  // across the whole scatter-gather + ranking, appends take it exclusive
  // for the in-memory absorb (before any shard sees the batch).
  mutable SharedMutex plane_mu_{lockrank::kShardedPlaneMu, "plane_mu_"};

  // Global social plane: what RankUsers needs beyond the candidates.
  ThreadTracker tracker_ TKLUS_GUARDED_BY(plane_mu_);
  UpperBoundRegistry bounds_ TKLUS_GUARDED_BY(plane_mu_);
  Vocabulary vocabulary_ TKLUS_GUARDED_BY(plane_mu_);
  std::unordered_map<UserId, std::vector<GeoPoint>> user_locations_
      TKLUS_GUARDED_BY(plane_mu_);
  int64_t max_sid_ TKLUS_GUARDED_BY(plane_mu_) = INT64_MIN;

  std::unique_ptr<QueryProcessor> processor_;

  // Cached metric handles (process-global families).
  Counter* sharded_queries_total_ = nullptr;
  Counter* shard_failures_total_ = nullptr;
};

}  // namespace tklus

#endif  // TKLUS_CORE_SHARDED_ENGINE_H_
