#ifndef TKLUS_CORE_ENGINE_H_
#define TKLUS_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/bounds.h"
#include "core/lock_ranks.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "core/thread_tracker.h"
#include "dfs/dfs.h"
#include "index/delta_index.h"
#include "index/hybrid_index.h"
#include "model/dataset.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "social/popularity_cache.h"
#include "storage/metadata_db.h"
#include "storage/sid_store.h"
#include "storage/wal.h"
#include "text/vocabulary.h"

namespace tklus {

// The public entry point of the library: builds the whole Figure-3 stack
// from a dataset (metadata DB with B+-trees, MapReduce-constructed hybrid
// index in the simulated DFS, thread tracker, upper-bound registry) and
// answers TkLUS queries.
//
//   Dataset tweets = ...;
//   auto engine = TkLusEngine::Build(tweets, TkLusEngine::Options{});
//   TkLusQuery q{.location = {43.68, -79.37}, .radius_km = 10,
//                .keywords = {"hotel"}, .k = 5};
//   auto result = (*engine)->Query(q);
//
// Write path (durable, LSM-style): AppendBatch appends the serialized
// batch to a write-ahead log and fsyncs *before* acking, then absorbs the
// posts into an in-memory delta index under a brief exclusive lock.
// Queries read base ⊎ delta. A background merge folds the delta into the
// hybrid index (MapReduce + metadata rows) off the appenders' lock path
// and, once the engine has an established checkpoint (a Save into its
// working directory, or having been Open()ed), re-checkpoints and
// truncates the WAL. TkLusEngine::Open replays the WAL tail past the last
// checkpoint, truncating torn/corrupt tail records rather than failing.
//
// Ack contract: once AppendBatch returns OK, the batch survives any crash
// — provided a checkpoint was ever established in the working directory
// (Open() recovers checkpoint + WAL tail). A batch whose AppendBatch
// returned an error is never visible after recovery (no phantoms).
//
// Concurrency contract: Query and QueryTweets take the engine lock in
// shared mode and may run concurrently with each other from any number of
// threads. AppendBatch serializes against other appenders on its own lock
// and takes the engine lock exclusively only for the in-memory absorb, so
// readers overlap the WAL write/fsync. Save/MergeNow serialize with
// appenders and the background merge; their expensive phases (MapReduce
// fold, artifact file writes) run off the engine lock. This is sound
// because the whole read path is re-entrant under a quiescent writer: the
// metadata DB's buffer pool is internally latched, page *contents* are
// read-only between folds (Insert — the only mutator — runs under the
// exclusive lock during a fold commit), the hybrid index snapshots its
// forward-index state under its own lock, the DFS has its own mutex, the
// thread tracker changes only under the exclusive lock, and the Alg. 1
// mode's popularity cache is sharded-lock thread-safe with generation-
// based invalidation on append. The component accessors (index(),
// metadata_db(), dfs(), ...) bypass the lock and are for benchmarks/tests
// on a quiescent engine only.
//
// Lock order (outer to inner): append_mu_ -> merge_mu_ -> mu_, with
// merge_wake_mu_ nesting only under append_mu_. The order is declared in
// tools/analyze/lockorder.conf (checked lexically by tklus_analyze's
// lock-order rule) and mirrored as ranks in core/lock_ranks.h (checked
// at runtime by the deadlock witness when built with
// -DTKLUS_DEADLOCK_DEBUG=ON).
class TkLusEngine {
 public:
  struct Options {
    // Directory for the metadata DB file + WAL. Empty -> unique temp
    // directory (removed when the engine is destroyed).
    std::string working_dir;
    int geohash_length = 4;       // §VI-B2's choice
    int mapreduce_workers = 3;    // Table III cluster
    int reduce_tasks = 8;
    size_t buffer_pool_pages = 1024;
    int thread_depth = 6;         // d in Alg. 1
    size_t num_hot_keywords = 10; // Table II
    ScoringParams scoring;
    SimulatedDfs::Options dfs;
    TokenizerOptions tokenizer;
    // Fault tolerance. The injector (optional, must outlive the engine) is
    // wired into every I/O layer: DFS block reads, metadata-DB page I/O,
    // MapReduce tasks, the WAL and artifact writes. Transient DFS faults
    // during postings fetches are absorbed by `dfs_retry`; failed
    // MapReduce task attempts are re-run up to `max_task_attempts` times.
    FaultInjector* fault_injector = nullptr;
    RetryPolicy dfs_retry;
    int max_task_attempts = 4;
    // Where queries take thread popularity φ (Def. 4) from. Off (the
    // default): the ThreadTracker maintains φ for every post at ingest,
    // and ranking reads it per candidate — no thread construction, no
    // metadata-DB I/O. On: Algorithm 1 — each candidate's thread is
    // rebuilt by rsid descents through the metadata DB (and the delta),
    // behind the φ memo below. The paper-figure benches (Figs. 8-12
    // measure Alg. 1's I/O) and the test oracles turn it on; both modes
    // return bit-identical φ. ShardedEngine rejects it.
    bool alg1_thread_construction = false;
    // Capacity (entries) of the Alg. 1 mode's φ(p) memo, shared across
    // queries; AppendBatch invalidates it wholesale via a generation
    // bump. 0 disables the cache (every query rebuilds every thread).
    // Unused when alg1_thread_construction is off.
    size_t popularity_cache_entries = 1 << 16;
    // Observability: queries slower than `slow_query_ms` land in the
    // engine's slow-query ring (slow_query_log()); <= 0 disables it.
    double slow_query_ms = 250.0;
    size_t slow_query_log_entries = 128;
    // The background merge folds the delta index into the hybrid index
    // once it holds at least this many posts (and re-checkpoints + WAL-
    // truncates when a checkpoint is established). 0 disables the
    // background merge: the delta grows until Save()/MergeNow() folds it.
    size_t delta_merge_posts = 4096;
    // When false, folds never checkpoint or truncate the WAL on their own
    // — only an explicit Save(dir) does. The ShardedEngine runs its shards
    // this way: a shard checkpoint is only safe after the router has
    // persisted its own plane watermark, so checkpoint timing must be
    // coordinated above the shard.
    bool auto_checkpoint = true;
  };

  // Builds every subsystem from `dataset`. The dataset is not retained.
  static Result<std::unique_ptr<TkLusEngine>> Build(const Dataset& dataset,
                                                    Options options);
  static Result<std::unique_ptr<TkLusEngine>> Build(const Dataset& dataset) {
    return Build(dataset, Options{});
  }

  // Appends a new batch of posts — the paper's periodic-batch setting
  // (§IV-A) made durable and non-blocking: the batch is WAL-logged and
  // fsynced (the ack barrier), then absorbed into the delta index, user
  // profiles, vocabulary and the exact score bounds. Queries see the batch
  // as soon as this returns; the hybrid index catches up via the
  // background merge. Batch sids must be sorted and strictly greater than
  // everything already indexed (sids are timestamps).
  Status AppendBatch(const Dataset& batch)
      TKLUS_EXCLUDES(append_mu_, merge_mu_, mu_);

  // Checkpoints every artifact (metadata DB image, DFS image with the
  // inverted index, forward index, score bounds, user location profiles,
  // vocabulary) into `dir`, from which Open can restore the engine without
  // the original dataset. The delta index is folded first, so the
  // checkpoint is self-contained. Each artifact is written crash-safely
  // (temp file + fsync + rename) with a CRC32 footer; a crash mid-save
  // never leaves a half-written artifact under its final name. When `dir`
  // is the engine's own working directory the WAL is truncated afterwards
  // (the records are all inside the checkpoint) and the background merge
  // starts re-checkpointing on every fold.
  Status Save(const std::string& dir)
      TKLUS_EXCLUDES(append_mu_, merge_mu_, mu_);

  // Synchronously folds the delta index into the hybrid index and, when a
  // checkpoint is established, re-checkpoints the working directory and
  // truncates the WAL. What the background merge runs; exposed for tests
  // and benchmarks that need a deterministic merge point.
  Status MergeNow() TKLUS_EXCLUDES(append_mu_, merge_mu_, mu_);

  // Restores an engine saved with Save, then replays the WAL tail: torn
  // or checksum-damaged tail records are truncated (with a warning), and
  // every intact record past the checkpoint watermark is re-absorbed into
  // the delta index. Artifacts are checksum-verified before
  // deserialization: byte-level damage yields kCorruption, never garbage
  // state.
  static Result<std::unique_ptr<TkLusEngine>> Open(const std::string& dir,
                                                   Options options);
  static Result<std::unique_ptr<TkLusEngine>> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  ~TkLusEngine();
  TkLusEngine(const TkLusEngine&) = delete;
  TkLusEngine& operator=(const TkLusEngine&) = delete;

  // Answers one TkLUS query with its selected semantics/ranking.
  Result<QueryResult> Query(const TkLusQuery& query) TKLUS_EXCLUDES(mu_);

  // Tweet-level top-k spatial-keyword search (the intro's "directly
  // retrieve tweets" alternative): ranks tweets, not users.
  Result<TweetQueryResult> QueryTweets(const TkLusQuery& query)
      TKLUS_EXCLUDES(mu_);

  // The fetch half of a query against this engine's slice of the data:
  // postings for `cells` ∩ `terms` (base ⊎ delta), combined, temporally
  // filtered and resolved to metadata rows, under the engine's shared
  // lock. The ShardedEngine's scatter phase — each shard is handed only
  // the cover cells it owns and returns a tid-sorted candidate stream;
  // ranking happens above, at the router's plane. I/O deltas for the call
  // are accumulated into `stats`. `tracer` may be null;
  // `count_postings_lists` keeps the user-query/tweet-query stats
  // asymmetry (see QueryProcessor::FetchCandidates).
  Result<std::vector<ResolvedCandidate>> FetchCandidates(
      const TkLusQuery& query, const std::vector<std::string>& terms,
      const std::vector<std::string>& cells, bool count_postings_lists,
      Tracer* tracer, QueryStats* stats) TKLUS_EXCLUDES(mu_);

  // Component access for benchmarks, ablations and tests. These bypass
  // mu_ (hence the analysis opt-outs): callers must ensure no concurrent
  // AppendBatch/Query is in flight.
  const ThreadTracker& thread_tracker() const TKLUS_NO_THREAD_SAFETY_ANALYSIS {
    return tracker_;
  }
  const HybridIndex& index() const { return *index_; }
  MetadataDb& metadata_db() { return *db_; }
  const UpperBoundRegistry& bounds() const TKLUS_NO_THREAD_SAFETY_ANALYSIS {
    return bounds_;
  }
  const Vocabulary& vocabulary() const TKLUS_NO_THREAD_SAFETY_ANALYSIS {
    return vocabulary_;
  }
  SimulatedDfs& dfs() { return *dfs_; }
  QueryProcessor& processor() { return *processor_; }
  const DeltaIndex& delta_index() const { return *delta_; }
  // Denormalized O(1) sid -> row table the sid_resolve stage reads instead
  // of the B+-tree; populated at build and at every delta-merge commit,
  // checkpointed as sid_store.bin, rebuilt from the DB when the artifact
  // is missing/torn/stale.
  const SidStore& sid_store() const { return *sid_store_; }
  const Wal& wal() const { return *wal_; }
  // Slow-query ring buffer (internally thread-safe; always constructed,
  // disabled when Options::slow_query_ms <= 0).
  const SlowQueryLog& slow_query_log() const { return *slow_log_; }
  // Offline per-user location profile (all post locations per user),
  // backing the Def. 9 user distance score.
  const std::unordered_map<UserId, std::vector<GeoPoint>>& user_locations()
      const TKLUS_NO_THREAD_SAFETY_ANALYSIS {
    return user_locations_;
  }
  const Options& options() const { return options_; }

 private:
  TkLusEngine() = default;

  // Post-query accounting (process metrics + slow-query log); called
  // outside mu_ — the log and registry are internally thread-safe.
  void RecordQueryObservability(const char* kind, const TkLusQuery& query,
                                const QueryStats& stats) const;

  // Shared tail of Build/Open: processor + caches + delta wiring + merge
  // thread. Called with the engine fields initialized, under the
  // (uncontended) construction-time exclusive lock.
  void FinishConstruction() TKLUS_REQUIRES(mu_);

  // Absorbs one post into the delta index and every derived in-memory
  // structure (tracker, vocabulary, profiles, watermark). The caller
  // recomputes bounds_ once per batch.
  void ApplyPostLocked(const Post& post, const Tokenizer& tokenizer)
      TKLUS_REQUIRES(mu_);

  // Folds the current delta into the hybrid index + metadata DB; on
  // return the folded posts serve from the base index. Idempotent against
  // crash-recovery double-application: rows already in the DB are not
  // re-inserted, and postings merges prefer base over delta.
  Status FoldDeltaLocked() TKLUS_REQUIRES(merge_mu_) TKLUS_EXCLUDES(mu_);

  // Save's body: fold + write artifacts to `dir` + (same-dir) truncate.
  Status CheckpointLocked(const std::string& dir)
      TKLUS_REQUIRES(append_mu_, merge_mu_) TKLUS_EXCLUDES(mu_);

  void StartMergeThread();
  void StopMergeThread();
  void MergeLoop();
  void UpdateDeltaGaugesLocked() TKLUS_REQUIRES_SHARED(mu_);

  Options options_;
  bool owns_working_dir_ = false;
  // Engine-wide reader-writer lock (see the class comment). The
  // unique_ptr components below are wired once during Build/Open and
  // never reseated, so the pointers themselves need no guard; their
  // pointees are protected by the shared/exclusive discipline of the
  // public entry points (DFS, buffer pool, WAL and the popularity cache
  // are additionally synchronized internally or by append_mu_).
  mutable SharedMutex mu_{lockrank::kEngineMu, "mu_"};
  // Serializes appenders (WAL appends + validation) without blocking
  // readers; also held across checkpoint truncation so an acked record
  // can never be erased before its batch is inside a checkpoint.
  Mutex append_mu_{lockrank::kAppendMu, "append_mu_"};
  // Serializes delta folds and checkpoints (the background merge vs
  // Save/MergeNow).
  Mutex merge_mu_{lockrank::kMergeMu, "merge_mu_"};
  std::unique_ptr<SimulatedDfs> dfs_;
  std::unique_ptr<MetadataDb> db_;
  std::unique_ptr<HybridIndex> index_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<DeltaIndex> delta_;  // guarded by mu_ like the fields below
  // Read-optimized twin of db_'s committed rows (see storage/sid_store.h):
  // mutated only inside fold commits / construction (exclusive lock), read
  // lock-free by concurrent queries like the other mu_-disciplined state.
  std::unique_ptr<SidStore> sid_store_;
  UpperBoundRegistry bounds_ TKLUS_GUARDED_BY(mu_);
  Vocabulary vocabulary_ TKLUS_GUARDED_BY(mu_);
  ThreadTracker tracker_ TKLUS_GUARDED_BY(mu_);
  int64_t max_sid_ TKLUS_GUARDED_BY(mu_) = INT64_MIN;
  std::unordered_map<UserId, std::vector<GeoPoint>> user_locations_
      TKLUS_GUARDED_BY(mu_);
  // Alg. 1 mode's φ(p) memo shared by all concurrent queries; internally
  // thread-safe (sharded locks), invalidated by AppendBatch's generation
  // bump. Null unless Options::alg1_thread_construction is on and
  // Options::popularity_cache_entries > 0.
  std::unique_ptr<PopularityCache> popularity_cache_;
  std::unique_ptr<QueryProcessor> processor_;
  // Internally mutexed; recorded to outside mu_ after each query.
  std::unique_ptr<SlowQueryLog> slow_log_;

  // True once `working_dir` holds a complete checkpoint (Open(), or a
  // Save() into the working dir): only then may the merge truncate the
  // WAL — truncating without a checkpoint would erase acked batches.
  std::atomic<bool> has_checkpoint_{false};

  // Background merge thread: woken by AppendBatch when the delta crosses
  // Options::delta_merge_posts, stopped by the destructor.
  Mutex merge_wake_mu_{lockrank::kMergeWakeMu, "merge_wake_mu_"};
  CondVar merge_wake_cv_;
  bool merge_requested_ TKLUS_GUARDED_BY(merge_wake_mu_) = false;
  bool stop_merge_ TKLUS_GUARDED_BY(merge_wake_mu_) = false;
  std::thread merge_thread_;

  // Cached metric handles (process-global families).
  Gauge* delta_posts_gauge_ = nullptr;
  Gauge* delta_bytes_gauge_ = nullptr;
  Counter* delta_merges_total_ = nullptr;
  Gauge* sid_store_entries_gauge_ = nullptr;
  Gauge* sid_store_bytes_gauge_ = nullptr;
  Gauge* tracker_bytes_gauge_ = nullptr;
};

}  // namespace tklus

#endif  // TKLUS_CORE_ENGINE_H_
