#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <utility>

#include "common/file_io.h"
#include "common/serde.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tklus {

namespace {

// Process-wide query metrics, resolved once. Queries of both flavors feed
// one latency histogram; the per-flavor counters separate the mix.
struct QueryMetricFamilies {
  Counter* user_queries;
  Counter* tweet_queries;
  Counter* slow_queries;
  Counter* sid_store_hits;
  Counter* sid_store_fallback_rows;
  Histogram* latency_ms;

  static const QueryMetricFamilies& Get() {
    static const QueryMetricFamilies* families = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      auto* f = new QueryMetricFamilies();
      f->user_queries = reg.GetCounter(
          "tklus_queries_total", "TkLUS user queries answered successfully.");
      f->tweet_queries = reg.GetCounter(
          "tklus_tweet_queries_total",
          "Tweet-level queries answered successfully.");
      f->slow_queries = reg.GetCounter(
          "tklus_slow_queries_total",
          "Queries admitted to the slow-query log.");
      f->sid_store_hits = reg.GetCounter(
          "tklus_sid_store_hits_total",
          "Candidate rows resolved O(1) by the denormalized sid store.");
      f->sid_store_fallback_rows = reg.GetCounter(
          "tklus_sid_store_fallback_rows_total",
          "Candidate rows that fell back to the metadata DB B+-tree "
          "(sid store detached or stale).");
      f->latency_ms = reg.GetHistogram(
          "tklus_query_latency_ms", "End-to-end query latency (ms).",
          {0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500});
      return f;
    }();
    return *families;
  }
};

std::string SummarizeQuery(const char* kind, const TkLusQuery& query) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "%s(lat=%.4f lon=%.4f r=%.1fkm k=%d %s %s W=[", kind,
                query.location.lat, query.location.lon, query.radius_km,
                query.k, query.semantics == Semantics::kAnd ? "AND" : "OR",
                query.ranking == Ranking::kSum ? "Sum" : "Max");
  std::string out = head;
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    if (i > 0) out += ' ';
    out += query.keywords[i];
  }
  out += "])";
  return out;
}

std::string MakeTempWorkingDir() {
  static std::atomic<uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tklus_engine_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir.string();
}

bool SamePath(const std::string& a, const std::string& b) {
  return std::filesystem::absolute(a) == std::filesystem::absolute(b);
}

constexpr uint64_t kEngineMagic = 0x32656e69676e6554ULL;    // format v2
constexpr uint64_t kMetaBlobMagic = 0x62644d7375754b54ULL;  // "TkLusMdb"

// The flushed live DB + page-CRC sidecar, bundled into one atomically
// written, footer-checksummed checkpoint artifact. The live file itself is
// scratch state: Open regenerates it from this blob, so it needs no crash
// safety of its own.
constexpr char kLiveDbFile[] = "/meta.live.db";
constexpr char kDbBlobFile[] = "/meta.db";
constexpr char kSidStoreFile[] = "/sid_store.bin";
constexpr char kWalFile[] = "/wal.log";

TweetMeta ToMeta(const Post& p) {
  return TweetMeta{p.sid, p.uid, p.location.lat, p.location.lon, p.ruid,
                   p.rsid};
}

// WAL record payload: one appended batch. Framing (length + CRC32) is the
// WAL's job; this codec only needs to round-trip every Post field.
std::string EncodeBatch(const Dataset& batch) {
  std::ostringstream out(std::ios::binary);
  serde::WriteU64(out, batch.size());
  for (const Post& p : batch.posts()) {
    serde::WriteI64(out, p.sid);
    serde::WriteI64(out, p.uid);
    serde::WriteDouble(out, p.location.lat);
    serde::WriteDouble(out, p.location.lon);
    serde::WriteI64(out, p.ruid);
    serde::WriteI64(out, p.rsid);
    serde::WriteU32(out, static_cast<uint32_t>(p.is_forward ? 1 : 0) |
                             (static_cast<uint32_t>(p.geo_source) << 1));
    serde::WriteString(out, p.text);
  }
  return out.str();
}

Result<Dataset> DecodeBatch(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  uint64_t count = 0;
  if (!serde::ReadU64(in, &count)) {
    return Status::Corruption("truncated WAL batch header");
  }
  Dataset batch;
  for (uint64_t i = 0; i < count; ++i) {
    Post p;
    uint32_t flags = 0;
    if (!serde::ReadI64(in, &p.sid) || !serde::ReadI64(in, &p.uid) ||
        !serde::ReadDouble(in, &p.location.lat) ||
        !serde::ReadDouble(in, &p.location.lon) ||
        !serde::ReadI64(in, &p.ruid) || !serde::ReadI64(in, &p.rsid) ||
        !serde::ReadU32(in, &flags) || !serde::ReadString(in, &p.text)) {
      return Status::Corruption("truncated WAL batch record");
    }
    if ((flags >> 1) > static_cast<uint32_t>(GeoSource::kNone)) {
      return Status::Corruption("bad geo source in WAL batch record");
    }
    p.is_forward = (flags & 1) != 0;
    p.geo_source = static_cast<GeoSource>(flags >> 1);
    batch.Add(std::move(p));
  }
  return batch;
}

}  // namespace

Result<std::unique_ptr<TkLusEngine>> TkLusEngine::Build(
    const Dataset& dataset, Options options) {
  auto engine = std::unique_ptr<TkLusEngine>(new TkLusEngine());
  if (options.working_dir.empty()) {
    options.working_dir = MakeTempWorkingDir();
    engine->owns_working_dir_ = true;
  } else {
    std::filesystem::create_directories(options.working_dir);
  }
  engine->options_ = options;
  engine->slow_log_ = std::make_unique<SlowQueryLog>(SlowQueryLog::Options{
      options.slow_query_ms, options.slow_query_log_entries});

  // Centralized metadata DB (Figure 3): one row per tweet, B+-trees on sid
  // and rsid.
  MetadataDb::Options db_options;
  db_options.buffer_pool_pages = options.buffer_pool_pages;
  db_options.fault_injector = options.fault_injector;
  auto db =
      MetadataDb::Create(options.working_dir + kLiveDbFile, db_options);
  if (!db.ok()) return db.status();
  engine->db_ = std::move(*db);
  // The denormalized sid table is populated in lockstep with the DB from
  // the start: every committed row lands in both.
  engine->sid_store_ = std::make_unique<SidStore>();
  if (dataset.size() > 0) {
    const auto [lo, hi] = std::minmax_element(
        dataset.posts().begin(), dataset.posts().end(),
        [](const Post& a, const Post& b) { return a.sid < b.sid; });
    engine->sid_store_->Reserve(lo->sid, hi->sid, dataset.size());
  }
  for (const Post& p : dataset.posts()) {
    const TweetMeta row = ToMeta(p);
    TKLUS_RETURN_IF_ERROR(engine->db_->Insert(row));
    engine->sid_store_->Put(row);
  }

  // Hybrid index built with MapReduce into the simulated DFS.
  engine->dfs_ = std::make_unique<SimulatedDfs>(options.dfs);
  engine->dfs_->set_fault_injector(options.fault_injector);
  HybridIndex::Options index_options;
  index_options.geohash_length = options.geohash_length;
  index_options.mapreduce_workers = options.mapreduce_workers;
  index_options.reduce_tasks = options.reduce_tasks;
  index_options.tokenizer = options.tokenizer;
  index_options.retry = options.dfs_retry;
  index_options.max_task_attempts = options.max_task_attempts;
  index_options.fault_injector = options.fault_injector;
  auto index = HybridIndex::Build(dataset, engine->dfs_.get(), index_options);
  if (!index.ok()) return index.status();
  engine->index_ = std::move(*index);

  // Fresh WAL: a stale wal.log in a reused working dir belongs to a
  // previous engine whose checkpoint this Build replaces.
  {
    std::error_code ec;
    std::filesystem::remove(options.working_dir + kWalFile, ec);
  }
  Wal::Options wal_options;
  wal_options.fault_injector = options.fault_injector;
  auto wal = Wal::Open(options.working_dir + kWalFile, wal_options);
  if (!wal.ok()) return wal.status();
  engine->wal_ = std::move(*wal);

  // Offline artifacts: corpus vocabulary, exact upper bounds (maintained
  // incrementally by the thread tracker so later AppendBatch calls stay
  // O(1) per post), per-user location profiles (Def. 9). The engine is not
  // yet published, but the fields are lock-annotated, so initialize them
  // under the (uncontended) lock.
  WriterMutexLock lock(&engine->mu_);
  const Tokenizer tokenizer(options.tokenizer);
  engine->delta_ = std::make_unique<DeltaIndex>(
      DeltaIndex::Options{options.geohash_length, options.tokenizer});
  engine->vocabulary_ = dataset.BuildVocabulary(tokenizer);
  engine->tracker_ = ThreadTracker(ThreadTracker::Options{
      options.thread_depth, options.scoring.epsilon});
  std::vector<std::string> hot_stems;
  for (const auto& [term, freq] :
       engine->vocabulary_.TopTerms(options.num_hot_keywords)) {
    hot_stems.push_back(term);
  }
  engine->tracker_.SetHotTerms(hot_stems);
  engine->tracker_.Reserve(dataset.size());
  // Track posts in timestamp order (parents precede replies).
  std::vector<const Post*> ordered;
  ordered.reserve(dataset.size());
  for (const Post& p : dataset.posts()) ordered.push_back(&p);
  std::sort(ordered.begin(), ordered.end(),
            [](const Post* a, const Post* b) { return a->sid < b->sid; });
  for (const Post* p : ordered) {
    engine->tracker_.AddPost(*p, tokenizer.Tokenize(p->text));
    engine->max_sid_ = std::max(engine->max_sid_, p->sid);
    // Untagged posts carry no usable location; they still count for
    // thread popularity, but not for Def. 9.
    if (p->HasLocation()) {
      engine->user_locations_[p->uid].push_back(p->location);
    }
  }
  engine->bounds_ = UpperBoundRegistry::FromParts(
      engine->tracker_.global_bound(), engine->tracker_.HotBounds());

  engine->FinishConstruction();
  return engine;
}

TkLusEngine::~TkLusEngine() {
  StopMergeThread();
  // Release the WAL and DB file handles before removing the directory.
  wal_.reset();
  db_.reset();
  if (owns_working_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(options_.working_dir, ec);
    if (ec) {
      TKLUS_LOG(Warning) << "failed to remove working dir "
                         << options_.working_dir << ": " << ec.message();
    }
  }
}

void TkLusEngine::FinishConstruction() {
  QueryProcessor::Options proc_options;
  proc_options.scoring = options_.scoring;
  proc_options.thread_depth = options_.thread_depth;
  processor_ = std::make_unique<QueryProcessor>(
      index_.get(), db_.get(), &bounds_, &user_locations_,
      Tokenizer(options_.tokenizer), proc_options);
  if (!options_.alg1_thread_construction) {
    processor_->set_thread_tracker(&tracker_);
  } else if (options_.popularity_cache_entries > 0) {
    popularity_cache_ = std::make_unique<PopularityCache>(
        PopularityCache::Options{options_.popularity_cache_entries});
    processor_->set_popularity_cache(popularity_cache_.get());
  }
  processor_->set_delta_index(delta_.get());
  processor_->set_sid_store(sid_store_.get());

  MetricsRegistry& reg = MetricsRegistry::Global();
  delta_posts_gauge_ = reg.GetGauge(
      "tklus_delta_index_posts",
      "Posts resident in the in-memory delta index (awaiting a merge).");
  delta_bytes_gauge_ = reg.GetGauge(
      "tklus_delta_index_bytes",
      "Approximate heap footprint of the in-memory delta index.");
  delta_merges_total_ = reg.GetCounter(
      "tklus_delta_merges_total",
      "Delta-index folds into the hybrid index (background or explicit).");
  sid_store_entries_gauge_ = reg.GetGauge(
      "tklus_sid_store_entries",
      "Rows resident in the denormalized sid store (== committed DB rows).");
  sid_store_bytes_gauge_ = reg.GetGauge(
      "tklus_sid_store_bytes",
      "Resident bytes of the denormalized sid store's slot arrays.");
  tracker_bytes_gauge_ = reg.GetGauge(
      "tklus_thread_tracker_bytes",
      "Resident bytes of the thread tracker's per-post columns (parent, "
      "hot mask, per-level reply counts).");
  UpdateDeltaGaugesLocked();
  StartMergeThread();
}

void TkLusEngine::ApplyPostLocked(const Post& post,
                                  const Tokenizer& tokenizer) {
  delta_->Apply(post);
  const std::vector<std::string> terms = tokenizer.Tokenize(post.text);
  tracker_.AddPost(post, terms);
  for (const std::string& term : terms) {
    vocabulary_.Add(term);
  }
  if (post.HasLocation()) {
    user_locations_[post.uid].push_back(post.location);
  }
  max_sid_ = std::max(max_sid_, post.sid);
}

void TkLusEngine::UpdateDeltaGaugesLocked() {
  if (delta_posts_gauge_ == nullptr) return;
  delta_posts_gauge_->Set(static_cast<int64_t>(delta_->post_count()));
  delta_bytes_gauge_->Set(static_cast<int64_t>(delta_->approx_bytes()));
  sid_store_entries_gauge_->Set(
      static_cast<int64_t>(sid_store_->entry_count()));
  sid_store_bytes_gauge_->Set(static_cast<int64_t>(sid_store_->size_bytes()));
  tracker_bytes_gauge_->Set(static_cast<int64_t>(tracker_.size_bytes()));
}

Status TkLusEngine::AppendBatch(const Dataset& batch) {
  if (batch.size() == 0) return Status::Ok();
  MutexLock append_lock(&append_mu_);
  {
    ReaderMutexLock lock(&mu_);
    int64_t previous = max_sid_;
    for (const Post& p : batch.posts()) {
      if (p.sid <= previous) {
        return Status::InvalidArgument(
            "batch posts must be sorted with sids greater than all indexed "
            "posts (sid " + std::to_string(p.sid) + " after " +
            std::to_string(previous) + ")");
      }
      previous = p.sid;
    }
  }
  // Ack barrier: the batch is appended + fsynced before any in-memory
  // state changes. An error return leaves the engine (and, courtesy of
  // the WAL's tail restore, the log) exactly as before — no phantoms; an
  // OK return means the batch survives a crash.
  TKLUS_RETURN_IF_ERROR(wal_->Append(EncodeBatch(batch)));
  const Tokenizer tokenizer(options_.tokenizer);
  size_t pending = 0;
  {
    WriterMutexLock lock(&mu_);
    // Bump the φ(p) memo generation before touching any state: memoized
    // popularities can span reply chains the batch extends.
    if (popularity_cache_) popularity_cache_->Invalidate();
    for (const Post& p : batch.posts()) {
      ApplyPostLocked(p, tokenizer);
    }
    bounds_ = UpperBoundRegistry::FromParts(tracker_.global_bound(),
                                            tracker_.HotBounds());
    UpdateDeltaGaugesLocked();
    pending = delta_->post_count();
  }
  if (options_.delta_merge_posts > 0 &&
      pending >= options_.delta_merge_posts && merge_thread_.joinable()) {
    MutexLock wake(&merge_wake_mu_);
    merge_requested_ = true;
    merge_wake_cv_.Signal();
  }
  return Status::Ok();
}

Status TkLusEngine::FoldDeltaLocked() {
  Dataset batch;
  TweetId watermark = kNoId;
  {
    ReaderMutexLock lock(&mu_);
    if (delta_->empty()) return Status::Ok();
    batch = delta_->Snapshot();
    watermark = delta_->max_sid();
  }
  // Rows the DB already holds must not be re-inserted: recovery re-absorbs
  // posts into the delta that an earlier fold had committed when the crash
  // hit between that fold and its checkpoint. Reading here is safe —
  // merge_mu_ excludes the only DB mutator (a fold commit).
  std::vector<int64_t> sids;
  sids.reserve(batch.size());
  for (const Post& p : batch.posts()) sids.push_back(p.sid);
  Result<std::vector<std::optional<TweetMeta>>> existing =
      db_->SelectBySidBatch(std::span<const int64_t>(sids));
  if (!existing.ok()) return existing.status();
  // MapReduce + DFS part writes run off the engine lock: the new index
  // generation is invisible until CommitAppend installs its forward
  // entries. A failure here orphans at most some DFS part files.
  Result<HybridIndex::PreparedAppend> prepared = index_->PrepareAppend(batch);
  if (!prepared.ok()) return prepared.status();
  // Brief exclusive commit. Appends that landed after the snapshot stay in
  // the delta: DropThrough only sheds posts at or below the watermark.
  WriterMutexLock lock(&mu_);
  for (size_t i = 0; i < batch.size(); ++i) {
    const TweetMeta row = ToMeta(batch.posts()[i]);
    // Unconditional: for rows the DB already holds (recovery re-absorbed
    // an already-folded batch) the Put is an idempotent overwrite with
    // identical bytes, so store == DB holds after every commit.
    sid_store_->Put(row);
    if ((*existing)[i].has_value()) continue;
    TKLUS_RETURN_IF_ERROR(db_->Insert(row));
  }
  index_->CommitAppend(*std::move(prepared));
  delta_->DropThrough(watermark);
  UpdateDeltaGaugesLocked();
  if (delta_merges_total_ != nullptr) delta_merges_total_->Increment();
  return Status::Ok();
}

Status TkLusEngine::Save(const std::string& dir) {
  MutexLock append_lock(&append_mu_);
  MutexLock merge_lock(&merge_mu_);
  return CheckpointLocked(dir);
}

Status TkLusEngine::MergeNow() {
  // Fold without the append lock: WAL appends proceed during the
  // (MapReduce-heavy) fold. The subsequent checkpoint re-folds whatever
  // trickled in meanwhile — usually a much smaller batch.
  {
    MutexLock merge_lock(&merge_mu_);
    TKLUS_RETURN_IF_ERROR(FoldDeltaLocked());
  }
  // Checkpoint coordination delegated upward (ShardedEngine::Save): a fold
  // here must never truncate WAL records the router's plane checkpoint
  // does not cover yet.
  if (!options_.auto_checkpoint) return Status::Ok();
  if (!has_checkpoint_.load(std::memory_order_acquire)) return Status::Ok();
  MutexLock append_lock(&append_mu_);
  MutexLock merge_lock(&merge_mu_);
  return CheckpointLocked(options_.working_dir);
}

Status TkLusEngine::CheckpointLocked(const std::string& dir) {
  // Fold first, so the checkpoint artifacts cover every absorbed post and
  // the WAL records become redundant.
  TKLUS_RETURN_IF_ERROR(FoldDeltaLocked());
  std::filesystem::create_directories(dir);
  {
    // Exclusive: FlushAll rewrites the header and dirty pages, which
    // would race shared readers' page traffic.
    WriterMutexLock lock(&mu_);
    TKLUS_RETURN_IF_ERROR(db_->FlushAll());
  }
  // Serialize under the shared lock (queries keep running; appends and
  // folds are excluded by the locks this function requires), write off
  // the lock entirely.
  std::string dfs_payload, index_payload, sid_store_payload, engine_payload;
  {
    ReaderMutexLock lock(&mu_);
    {
      std::ostringstream out(std::ios::binary);
      TKLUS_RETURN_IF_ERROR(dfs_->Save(out));
      dfs_payload = out.str();
    }
    {
      std::ostringstream out(std::ios::binary);
      sid_store_->Save(out);
      if (!out) return Status::IoError("short write saving sid_store.bin");
      sid_store_payload = out.str();
    }
    {
      std::ostringstream out(std::ios::binary);
      TKLUS_RETURN_IF_ERROR(index_->Save(out));
      index_payload = out.str();
    }
    std::ostringstream out(std::ios::binary);
    serde::WriteU64(out, kEngineMagic);
    serde::WriteDouble(out, options_.scoring.alpha);
    serde::WriteDouble(out, options_.scoring.n_norm);
    serde::WriteDouble(out, options_.scoring.epsilon);
    serde::WriteU64(out, static_cast<uint64_t>(options_.thread_depth));
    // Bounds.
    serde::WriteDouble(out, bounds_.global_bound());
    serde::WriteU64(out, bounds_.hot_bounds().size());
    for (const auto& [term, bound] : bounds_.hot_bounds()) {
      serde::WriteString(out, term);
      serde::WriteDouble(out, bound);
    }
    // User location profiles.
    serde::WriteU64(out, user_locations_.size());
    for (const auto& [uid, locations] : user_locations_) {
      serde::WriteI64(out, uid);
      serde::WriteU64(out, locations.size());
      for (const GeoPoint& p : locations) {
        serde::WriteDouble(out, p.lat);
        serde::WriteDouble(out, p.lon);
      }
    }
    // Vocabulary (term + frequency, in id order).
    serde::WriteU64(out, vocabulary_.size());
    for (Vocabulary::TermId id = 0; id < vocabulary_.size(); ++id) {
      serde::WriteString(out, vocabulary_.term(id));
      serde::WriteU64(out, vocabulary_.frequency(id));
    }
    // Thread tracker + append ordering watermark.
    serde::WriteI64(out, max_sid_);
    tracker_.Save(out);
    if (!out) return Status::IoError("short write saving engine.bin");
    engine_payload = out.str();
  }
  // Metadata DB blob: the flushed live file + its page-CRC sidecar. The
  // sidecar is stored as its verified payload (ReadFileVerified strips
  // the footer; the restore re-frames it with WriteFileAtomic).
  std::string db_blob;
  {
    Result<std::string> db_bytes =
        fileio::ReadFileRaw(options_.working_dir + kLiveDbFile);
    if (!db_bytes.ok()) return db_bytes.status();
    Result<std::string> crc_bytes = fileio::ReadFileVerified(
        options_.working_dir + kLiveDbFile + std::string(".crc"));
    if (!crc_bytes.ok()) return crc_bytes.status();
    std::ostringstream out(std::ios::binary);
    serde::WriteU64(out, kMetaBlobMagic);
    serde::WriteString(out, *db_bytes);
    serde::WriteString(out, *crc_bytes);
    db_blob = out.str();
  }
  // Fixed artifact order — meta.db, dfs.bin, index.bin, sid_store.bin,
  // engine.bin — so every crash window is recoverable: the watermark
  // (engine.bin) only advances once everything it refers to is in place,
  // the forward index (index.bin) only once the DFS blocks it points at
  // are, and a stale watermark merely makes recovery re-absorb posts the
  // newer artifacts already hold, which the base-wins merge rules
  // deduplicate. The sid store is derived data: a crash leaving it stale
  // relative to meta.db is caught by Open's entry-count lockstep check
  // and repaired by a rebuild, never trusted.
  FaultInjector* faults = options_.fault_injector;
  TKLUS_RETURN_IF_ERROR(
      fileio::WriteFileAtomic(dir + kDbBlobFile, db_blob, faults));
  TKLUS_RETURN_IF_ERROR(
      fileio::WriteFileAtomic(dir + "/dfs.bin", dfs_payload, faults));
  TKLUS_RETURN_IF_ERROR(
      fileio::WriteFileAtomic(dir + "/index.bin", index_payload, faults));
  // Dedicated kill point: lets the recovery sweep crash exactly between
  // index.bin and sid_store.bin (site kFileWrite would fire on meta.db).
  if (faults != nullptr) {
    TKLUS_RETURN_IF_ERROR(
        faults->MaybeFail(faults::kSidStoreWrite, dir + kSidStoreFile));
  }
  TKLUS_RETURN_IF_ERROR(fileio::WriteFileAtomic(dir + kSidStoreFile,
                                                sid_store_payload, faults));
  TKLUS_RETURN_IF_ERROR(
      fileio::WriteFileAtomic(dir + "/engine.bin", engine_payload, faults));
  if (SamePath(dir, options_.working_dir)) {
    // Only now are the WAL records redundant. Truncating a WAL whose
    // checkpoint went to a *different* directory would erase acked
    // batches the working directory's own (older) checkpoint lacks.
    TKLUS_RETURN_IF_ERROR(wal_->Truncate());
    has_checkpoint_.store(true, std::memory_order_release);
  }
  return Status::Ok();
}

Result<std::unique_ptr<TkLusEngine>> TkLusEngine::Open(const std::string& dir,
                                                       Options options) {
  auto engine = std::unique_ptr<TkLusEngine>(new TkLusEngine());
  options.working_dir = dir;
  engine->options_ = options;
  engine->owns_working_dir_ = false;
  engine->slow_log_ = std::make_unique<SlowQueryLog>(SlowQueryLog::Options{
      options.slow_query_ms, options.slow_query_log_entries});

  // Regenerate the live metadata DB (+ page-CRC sidecar) from the
  // checkpoint blob. The blob's footer CRC covers both, so byte damage
  // anywhere inside surfaces as kCorruption here.
  {
    Result<std::string> blob = fileio::ReadFileVerified(dir + kDbBlobFile);
    if (!blob.ok()) return blob.status();
    std::istringstream in(std::move(*blob), std::ios::binary);
    uint64_t magic = 0;
    std::string db_bytes, crc_bytes;
    if (!serde::ReadU64(in, &magic) || magic != kMetaBlobMagic) {
      return Status::Corruption("not a metadata DB checkpoint blob");
    }
    if (!serde::ReadString(in, &db_bytes) ||
        !serde::ReadString(in, &crc_bytes)) {
      return Status::Corruption("truncated metadata DB checkpoint blob");
    }
    TKLUS_RETURN_IF_ERROR(
        fileio::WriteFilePlain(dir + kLiveDbFile, db_bytes));
    TKLUS_RETURN_IF_ERROR(fileio::WriteFileAtomic(
        dir + kLiveDbFile + std::string(".crc"), crc_bytes));
  }
  MetadataDb::Options db_options;
  db_options.buffer_pool_pages = options.buffer_pool_pages;
  db_options.fault_injector = options.fault_injector;
  auto db = MetadataDb::Open(dir + kLiveDbFile, db_options);
  if (!db.ok()) return db.status();
  engine->db_ = std::move(*db);

  // Denormalized sid table: trust the checkpoint artifact only when it is
  // intact AND in lockstep with the restored DB (entry count == row count
  // — counts grow monotonically with content a function of the count, so
  // equality implies identity). Anything else — absent (a pre-SidStore
  // checkpoint), torn, corrupt, or stale from a crash window between
  // artifact writes — falls back to a full rebuild from the B+-tree.
  // Never fatal: the store is derived data.
  {
    Result<SidStore> store = SidStore::LoadFromFile(dir + kSidStoreFile);
    if (store.ok() && store->entry_count() == engine->db_->row_count()) {
      engine->sid_store_ = std::make_unique<SidStore>(std::move(store).value());
    } else {
      const std::string reason =
          store.ok() ? "stale (entry count != DB row count)"
                     : store.status().ToString();
      TKLUS_LOG(Warning) << "sid store artifact unusable: " << reason
                         << "; rebuilding from the metadata DB";
      Result<SidStore> rebuilt = SidStore::RebuildFromDb(engine->db_.get());
      if (!rebuilt.ok()) return rebuilt.status();
      engine->sid_store_ = std::make_unique<SidStore>(std::move(rebuilt).value());
      MetricsRegistry::Global()
          .GetCounter("tklus_sid_store_rebuilds_total",
                      "Full sid-store rebuilds from the metadata DB "
                      "(missing/torn/stale checkpoint artifact).")
          ->Increment();
    }
  }

  engine->dfs_ = std::make_unique<SimulatedDfs>(options.dfs);
  engine->dfs_->set_fault_injector(options.fault_injector);
  {
    Result<std::string> payload = fileio::ReadFileVerified(dir + "/dfs.bin");
    if (!payload.ok()) return payload.status();
    std::istringstream in(std::move(*payload), std::ios::binary);
    TKLUS_RETURN_IF_ERROR(engine->dfs_->Load(in));
  }
  {
    Result<std::string> payload = fileio::ReadFileVerified(dir + "/index.bin");
    if (!payload.ok()) return payload.status();
    std::istringstream in(std::move(*payload), std::ios::binary);
    HybridIndex::Options index_base;
    index_base.tokenizer = options.tokenizer;
    index_base.mapreduce_workers = options.mapreduce_workers;
    index_base.reduce_tasks = options.reduce_tasks;
    index_base.retry = options.dfs_retry;
    index_base.max_task_attempts = options.max_task_attempts;
    index_base.fault_injector = options.fault_injector;
    auto index = HybridIndex::Open(engine->dfs_.get(), in, index_base);
    if (!index.ok()) return index.status();
    engine->index_ = std::move(*index);
    engine->options_.geohash_length = engine->index_->geohash_length();
  }
  Result<std::string> payload = fileio::ReadFileVerified(dir + "/engine.bin");
  if (!payload.ok()) return payload.status();
  std::istringstream in(std::move(*payload), std::ios::binary);
  // As in Build: the engine is private to this function, but the fields
  // deserialized below are lock-annotated, so hold the (uncontended) lock.
  WriterMutexLock lock(&engine->mu_);
  uint64_t magic = 0;
  if (!serde::ReadU64(in, &magic) || magic != kEngineMagic) {
    return Status::Corruption("not an engine image");
  }
  uint64_t depth = 0;
  if (!serde::ReadDouble(in, &engine->options_.scoring.alpha) ||
      !serde::ReadDouble(in, &engine->options_.scoring.n_norm) ||
      !serde::ReadDouble(in, &engine->options_.scoring.epsilon) ||
      !serde::ReadU64(in, &depth)) {
    return Status::Corruption("truncated engine image header");
  }
  engine->options_.thread_depth = static_cast<int>(depth);
  // The bounds section is what earlier readers use; bounds_ is set from
  // the loaded tracker below.
  double global_bound = 0;
  uint64_t hot_count = 0;
  if (!serde::ReadDouble(in, &global_bound) ||
      !serde::ReadU64(in, &hot_count)) {
    return Status::Corruption("truncated engine image bounds");
  }
  for (uint64_t i = 0; i < hot_count; ++i) {
    std::string term;
    double bound = 0;
    if (!serde::ReadString(in, &term) || !serde::ReadDouble(in, &bound)) {
      return Status::Corruption("truncated engine image hot bound");
    }
  }
  uint64_t user_count = 0;
  if (!serde::ReadU64(in, &user_count)) {
    return Status::Corruption("truncated engine image profiles");
  }
  for (uint64_t u = 0; u < user_count; ++u) {
    int64_t uid = 0;
    uint64_t n = 0;
    if (!serde::ReadI64(in, &uid) || !serde::ReadU64(in, &n)) {
      return Status::Corruption("truncated engine image profile");
    }
    auto& locations = engine->user_locations_[uid];
    locations.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (!serde::ReadDouble(in, &locations[i].lat) ||
          !serde::ReadDouble(in, &locations[i].lon)) {
        return Status::Corruption("truncated engine image location");
      }
    }
  }
  uint64_t vocab_count = 0;
  if (!serde::ReadU64(in, &vocab_count)) {
    return Status::Corruption("truncated engine image vocabulary");
  }
  for (uint64_t i = 0; i < vocab_count; ++i) {
    std::string term;
    uint64_t freq = 0;
    if (!serde::ReadString(in, &term) || !serde::ReadU64(in, &freq)) {
      return Status::Corruption("truncated engine image vocabulary entry");
    }
    engine->vocabulary_.Add(term, freq);
  }
  if (!serde::ReadI64(in, &engine->max_sid_)) {
    return Status::Corruption("truncated engine image watermark");
  }
  TKLUS_RETURN_IF_ERROR(engine->tracker_.Load(in));

  // WAL recovery: re-absorb every intact record past the checkpoint
  // watermark. Posts at or below the watermark are inside the checkpoint
  // already (the crash hit between a fold/checkpoint step and the WAL
  // truncation); re-applying only the newer ones keeps replay idempotent.
  const Tokenizer tokenizer(engine->options_.tokenizer);
  engine->delta_ = std::make_unique<DeltaIndex>(DeltaIndex::Options{
      engine->options_.geohash_length, engine->options_.tokenizer});
  Wal::Options wal_options;
  wal_options.fault_injector = options.fault_injector;
  auto wal = Wal::Open(dir + kWalFile, wal_options);
  if (!wal.ok()) return wal.status();
  engine->wal_ = std::move(*wal);
  uint64_t replayed_posts = 0;
  uint64_t skipped_posts = 0;
  for (const std::string& record : engine->wal_->TakeRecoveredRecords()) {
    Result<Dataset> batch = DecodeBatch(record);
    if (!batch.ok()) return batch.status();
    for (const Post& p : batch->posts()) {
      if (p.sid <= engine->max_sid_) {
        ++skipped_posts;
        continue;
      }
      engine->ApplyPostLocked(p, tokenizer);
      ++replayed_posts;
    }
  }
  // From the tracker even without a replay: Load re-derived its bounds
  // from the same φ evaluation the queries read, which an image written
  // before the per-level counts can miss in the last bit.
  engine->bounds_ = UpperBoundRegistry::FromParts(
      engine->tracker_.global_bound(), engine->tracker_.HotBounds());
  const Wal::RecoveryInfo& info = engine->wal_->recovery_info();
  MetricsRegistry::Global()
      .GetCounter("tklus_wal_recovered_records_total",
                  "Intact WAL records read back during engine recovery.")
      ->Increment(info.records);
  TKLUS_LOG(Info) << "recovery: wal held " << info.records << " record(s) ("
                  << info.bytes << " byte(s)), replayed " << replayed_posts
                  << " post(s) past watermark, skipped " << skipped_posts
                  << " already-checkpointed post(s), dropped "
                  << info.truncated_bytes << " torn tail byte(s)";

  engine->has_checkpoint_.store(true, std::memory_order_release);
  engine->FinishConstruction();
  return engine;
}

void TkLusEngine::StartMergeThread() {
  if (options_.delta_merge_posts == 0) return;
  merge_thread_ = std::thread([this] { MergeLoop(); });
}

void TkLusEngine::StopMergeThread() {
  if (!merge_thread_.joinable()) return;
  {
    MutexLock lock(&merge_wake_mu_);
    stop_merge_ = true;
    merge_wake_cv_.SignalAll();
  }
  merge_thread_.join();
}

void TkLusEngine::MergeLoop() {
  for (;;) {
    {
      MutexLock lock(&merge_wake_mu_);
      while (!stop_merge_ && !merge_requested_) {
        merge_wake_cv_.Wait(&merge_wake_mu_);
      }
      if (stop_merge_) return;
      merge_requested_ = false;
    }
    const Status status = MergeNow();
    if (!status.ok()) {
      // Non-fatal: the delta stays resident (queries keep serving it) and
      // the next append past the threshold re-triggers the merge.
      TKLUS_LOG(Warning) << "background delta merge failed: "
                         << status.ToString();
    }
  }
}

Result<QueryResult> TkLusEngine::Query(const TkLusQuery& query) {
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // Shared: the read path is re-entrant (internally latched buffer pool,
    // read-only page contents between folds) — see the class comment.
    ReaderMutexLock lock(&mu_);
    return processor_->Process(query);
  }();
  if (result.ok()) RecordQueryObservability("q", query, result->stats);
  return result;
}

Result<TweetQueryResult> TkLusEngine::QueryTweets(const TkLusQuery& query) {
  Result<TweetQueryResult> result = [&]() -> Result<TweetQueryResult> {
    ReaderMutexLock lock(&mu_);
    return processor_->ProcessTweets(query);
  }();
  if (result.ok()) RecordQueryObservability("qt", query, result->stats);
  return result;
}

Result<std::vector<ResolvedCandidate>> TkLusEngine::FetchCandidates(
    const TkLusQuery& query, const std::vector<std::string>& terms,
    const std::vector<std::string>& cells, bool count_postings_lists,
    Tracer* tracer, QueryStats* stats) {
  ReaderMutexLock lock(&mu_);
  Tracer disabled(nullptr);
  return processor_->FetchCandidates(query, terms, cells,
                                     count_postings_lists,
                                     /*account_io=*/true,
                                     tracer != nullptr ? *tracer : disabled,
                                     stats);
}

void TkLusEngine::RecordQueryObservability(const char* kind,
                                           const TkLusQuery& query,
                                           const QueryStats& stats) const {
  const QueryMetricFamilies& metrics = QueryMetricFamilies::Get();
  (kind[1] == 't' ? metrics.tweet_queries : metrics.user_queries)->Increment();
  if (stats.sid_store_hits > 0) {
    metrics.sid_store_hits->Increment(stats.sid_store_hits);
  }
  if (stats.sid_store_fallback_rows > 0) {
    metrics.sid_store_fallback_rows->Increment(stats.sid_store_fallback_rows);
  }
  metrics.latency_ms->Observe(stats.elapsed_ms);
  if (slow_log_->ShouldRecord(stats.elapsed_ms)) {
    metrics.slow_queries->Increment();
    SlowQueryRecord record;
    record.summary = SummarizeQuery(kind, query);
    record.elapsed_ms = stats.elapsed_ms;
    record.db_page_reads = stats.db_page_reads;
    record.dfs_block_reads = stats.dfs_block_reads;
    record.candidates = stats.candidates;
    record.threads_built = stats.threads_built;
    record.popularity_cache_hits = stats.popularity_cache_hits;
    record.popularity_cache_misses = stats.popularity_cache_misses;
    record.phi_tracker_reads = stats.phi_tracker_reads;
    slow_log_->Record(std::move(record));
  }
}

}  // namespace tklus
