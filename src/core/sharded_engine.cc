#include "core/sharded_engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/serde.h"
#include "core/cover.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace tklus {

namespace {

// Router image format. v2 dropped v1's trailing reply-children section:
// the plane reads φ from its thread tracker and keeps no reply edges.
// Open reads both.
constexpr uint64_t kRouterMagicV1 = 0x7274527375754b54ULL;
constexpr uint64_t kRouterMagic = 0x3274527375754b54ULL;
constexpr char kRouterFile[] = "/router.bin";

std::string MakeTempShardedDir() {
  static std::atomic<uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tklus_sharded_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Merges tid-sorted candidate streams into the exact global candidate
// sequence. The streams are disjoint (every post has one owning cell,
// hence one owning shard), so this reproduces what one global combine
// would have produced — no dedup step needed.
std::vector<ResolvedCandidate> MergeCandidateStreams(
    std::vector<std::vector<ResolvedCandidate>> streams) {
  if (streams.size() == 1) return std::move(streams[0]);
  size_t total = 0;
  for (const auto& s : streams) total += s.size();
  std::vector<ResolvedCandidate> merged;
  merged.reserve(total);
  std::vector<size_t> next(streams.size(), 0);
  while (merged.size() < total) {
    int best = -1;
    for (size_t s = 0; s < streams.size(); ++s) {
      if (next[s] >= streams[s].size()) continue;
      if (best < 0 || streams[s][next[s]].posting.tid <
                          streams[best][next[best]].posting.tid) {
        best = static_cast<int>(s);
      }
    }
    merged.push_back(std::move(streams[best][next[best]]));
    ++next[best];
  }
  return merged;
}

// The plane ranks with φ from its thread tracker; it holds no metadata DB
// for Alg. 1 to descend.
Status RejectAlg1Mode(const TkLusEngine::Options& shard) {
  if (!shard.alg1_thread_construction) return Status::Ok();
  return Status::InvalidArgument(
      "ShardedEngine ranks at its plane, which reads φ from its thread "
      "tracker; alg1_thread_construction needs a TkLusEngine");
}

struct ShardedMetricFamilies {
  Counter* queries;
  Counter* shard_failures;

  static const ShardedMetricFamilies& Get() {
    static const ShardedMetricFamilies* families = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      auto* f = new ShardedMetricFamilies();
      f->queries = reg.GetCounter(
          "tklus_sharded_queries_total",
          "Scatter-gather queries answered by a ShardedEngine.");
      f->shard_failures = reg.GetCounter(
          "tklus_shard_failures_total",
          "Per-shard fetch failures during sharded queries (degraded or "
          "failed results).");
      return f;
    }();
    return *families;
  }
};

}  // namespace

std::string ShardedEngine::ShardDir(int shard) const {
  return options_.working_dir + "/shard_" + std::to_string(shard);
}

void ShardedEngine::AbsorbPostLocked(const Post& post,
                                     const Tokenizer& tokenizer) {
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

void ShardedEngine::FinishConstruction() {
  QueryProcessor::Options proc_options;
  proc_options.scoring = options_.shard.scoring;
  proc_options.thread_depth = options_.shard.thread_depth;
  // Null index/db: the plane never fetches — it only ranks candidate
  // streams the shards fetched, reading φ from the plane's tracker.
  processor_ = std::make_unique<QueryProcessor>(
      nullptr, nullptr, &bounds_, &user_locations_,
      Tokenizer(options_.shard.tokenizer), proc_options);
  processor_->set_thread_tracker(&tracker_);
  const ShardedMetricFamilies& families = ShardedMetricFamilies::Get();
  sharded_queries_total_ = families.queries;
  shard_failures_total_ = families.shard_failures;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Build(
    const Dataset& dataset, Options options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  TKLUS_RETURN_IF_ERROR(RejectAlg1Mode(options.shard));
  auto engine = std::unique_ptr<ShardedEngine>(new ShardedEngine());
  if (options.working_dir.empty()) {
    options.working_dir = MakeTempShardedDir();
    engine->owns_working_dir_ = true;
  } else {
    std::filesystem::create_directories(options.working_dir);
  }
  engine->options_ = options;
  engine->router_ = ShardRouter(options.num_shards);

  // Plane first (same construction order as TkLusEngine::Build): corpus
  // vocabulary, hot stems, thread tracker fed in sid order, Def. 9
  // profiles, exact bounds. Vocabulary frequencies come from
  // BuildVocabulary here, so the build loop must not Add() terms again.
  const Tokenizer tokenizer(options.shard.tokenizer);
  {
    WriterMutexLock lock(&engine->plane_mu_);
    engine->vocabulary_ = dataset.BuildVocabulary(tokenizer);
    engine->tracker_ = ThreadTracker(ThreadTracker::Options{
        options.shard.thread_depth, options.shard.scoring.epsilon});
    std::vector<std::string> hot_stems;
    for (const auto& [term, freq] :
         engine->vocabulary_.TopTerms(options.shard.num_hot_keywords)) {
      hot_stems.push_back(term);
    }
    engine->tracker_.SetHotTerms(hot_stems);
    engine->tracker_.Reserve(dataset.size());
    std::vector<const Post*> ordered;
    ordered.reserve(dataset.size());
    for (const Post& p : dataset.posts()) ordered.push_back(&p);
    std::sort(ordered.begin(), ordered.end(),
              [](const Post* a, const Post* b) { return a->sid < b->sid; });
    for (const Post* p : ordered) {
      engine->tracker_.AddPost(*p, tokenizer.Tokenize(p->text));
      if (p->HasLocation()) {
        engine->user_locations_[p->uid].push_back(p->location);
      }
      engine->max_sid_ = std::max(engine->max_sid_, p->sid);
    }
    engine->bounds_ = UpperBoundRegistry::FromParts(
        engine->tracker_.global_bound(), engine->tracker_.HotBounds());
  }

  // Shards: each one a complete TkLusEngine over its owned slice. Owners
  // are computed once; each slice is copied out just before its shard is
  // built and freed right after, so at most one slice of the corpus is
  // alive beside the shards.
  std::vector<int> owner(dataset.size());
  std::vector<size_t> owned(options.num_shards, 0);
  for (size_t i = 0; i < dataset.size(); ++i) {
    owner[i] = engine->router_.OwnerOfPost(dataset.posts()[i],
                                           options.shard.geohash_length);
    ++owned[owner[i]];
  }
  engine->shards_.reserve(options.num_shards);
  for (int s = 0; s < options.num_shards; ++s) {
    TkLusEngine::Options shard_options = options.shard;
    shard_options.working_dir = engine->ShardDir(s);
    shard_options.auto_checkpoint = false;
    if (options.shard_options_hook) {
      options.shard_options_hook(s, &shard_options);
    }
    Dataset part;
    part.mutable_posts().reserve(owned[s]);
    for (size_t i = 0; i < dataset.size(); ++i) {
      if (owner[i] == s) part.Add(dataset.posts()[i]);
    }
    auto shard = TkLusEngine::Build(part, shard_options);
    if (!shard.ok()) return shard.status();
    engine->shards_.push_back(std::move(*shard));
  }
  // The index may normalize options (Open does the same below).
  engine->options_.shard.geohash_length =
      engine->shards_[0]->options().geohash_length;
  {
    WriterMutexLock lock(&engine->plane_mu_);
    engine->FinishConstruction();
  }
  return engine;
}

ShardedEngine::~ShardedEngine() {
  shards_.clear();  // release shard WAL/DB handles before removal
  if (owns_working_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(options_.working_dir, ec);
    if (ec) {
      TKLUS_LOG(Warning) << "failed to remove sharded working dir "
                         << options_.working_dir << ": " << ec.message();
    }
  }
}

Status ShardedEngine::AppendBatch(const Dataset& batch) {
  if (batch.size() == 0) return Status::Ok();
  MutexLock ingest_lock(&ingest_mu_);
  {
    ReaderMutexLock lock(&plane_mu_);
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
  // The whole absorb — plane first, then every owning shard — runs under
  // the exclusive plane lock. Queries hold it shared across their entire
  // scatter-gather, so a batch becomes visible atomically: no reader can
  // observe shard 0 with the batch and shard 1 without it (the prefix-
  // consistency oracle in the concurrency stress test pins this). Within
  // the window, the plane absorbs BEFORE any shard: bounds/φ state must
  // lead candidate visibility so Alg. 5 pruning stays admissible even in
  // the failed-batch case below, where the window ends with the plane
  // ahead of some shards (bounds larger than needed — safe). The cost
  // relative to the single engine is that readers do not overlap the
  // shard WAL fsyncs; the ack barrier is unchanged (every owning shard's
  // fsync before OK).
  const Tokenizer tokenizer(options_.shard.tokenizer);
  WriterMutexLock lock(&plane_mu_);
  for (const Post& p : batch.posts()) {
    AbsorbPostLocked(p, tokenizer);
  }
  bounds_ = UpperBoundRegistry::FromParts(tracker_.global_bound(),
                                          tracker_.HotBounds());
  // Scatter: each owning shard WAL-appends + fsyncs its sub-batch. An
  // error fails the batch as a whole; earlier shards keep their durable
  // sub-batches (cross-shard appends are not atomic under failure —
  // DESIGN.md §16 failure semantics).
  const std::vector<Dataset> parts =
      router_.PartitionPosts(batch, options_.shard.geohash_length);
  for (int s = 0; s < num_shards(); ++s) {
    if (parts[s].size() == 0) continue;
    const Status status = shards_[s]->AppendBatch(parts[s]);
    if (!status.ok()) {
      TKLUS_LOG(Warning) << "shard " << s
                         << " append failed: " << status.ToString();
      return status;
    }
  }
  return Status::Ok();
}

Status ShardedEngine::SerializePlane(std::string* payload) const {
  ReaderMutexLock lock(&plane_mu_);
  std::ostringstream out(std::ios::binary);
  serde::WriteU64(out, kRouterMagic);
  serde::WriteU64(out, static_cast<uint64_t>(options_.num_shards));
  serde::WriteDouble(out, options_.shard.scoring.alpha);
  serde::WriteDouble(out, options_.shard.scoring.n_norm);
  serde::WriteDouble(out, options_.shard.scoring.epsilon);
  serde::WriteU64(out, static_cast<uint64_t>(options_.shard.thread_depth));
  serde::WriteDouble(out, bounds_.global_bound());
  serde::WriteU64(out, bounds_.hot_bounds().size());
  for (const auto& [term, bound] : bounds_.hot_bounds()) {
    serde::WriteString(out, term);
    serde::WriteDouble(out, bound);
  }
  serde::WriteU64(out, user_locations_.size());
  for (const auto& [uid, locations] : user_locations_) {
    serde::WriteI64(out, uid);
    serde::WriteU64(out, locations.size());
    for (const GeoPoint& p : locations) {
      serde::WriteDouble(out, p.lat);
      serde::WriteDouble(out, p.lon);
    }
  }
  serde::WriteU64(out, vocabulary_.size());
  for (Vocabulary::TermId id = 0; id < vocabulary_.size(); ++id) {
    serde::WriteString(out, vocabulary_.term(id));
    serde::WriteU64(out, vocabulary_.frequency(id));
  }
  serde::WriteI64(out, max_sid_);
  tracker_.Save(out);
  if (!out) return Status::IoError("short write saving router.bin");
  *payload = out.str();
  return Status::Ok();
}

Status ShardedEngine::Save() {
  MutexLock ingest_lock(&ingest_mu_);
  // Plane image first: its watermark M must cover every WAL record the
  // shard checkpoints below are about to truncate. A crash between the
  // two steps leaves shard WALs intact (shards run auto_checkpoint=off),
  // so Open re-absorbs everything past M from the shard deltas.
  std::string payload;
  TKLUS_RETURN_IF_ERROR(SerializePlane(&payload));
  TKLUS_RETURN_IF_ERROR(fileio::WriteFileAtomic(
      options_.working_dir + kRouterFile, payload,
      options_.shard.fault_injector));
  for (int s = 0; s < num_shards(); ++s) {
    TKLUS_RETURN_IF_ERROR(shards_[s]->Save(ShardDir(s)));
  }
  return Status::Ok();
}

Status ShardedEngine::MergeAllNow() {
  for (int s = 0; s < num_shards(); ++s) {
    TKLUS_RETURN_IF_ERROR(shards_[s]->MergeNow());
  }
  return Status::Ok();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& dir, Options options) {
  TKLUS_RETURN_IF_ERROR(RejectAlg1Mode(options.shard));
  auto engine = std::unique_ptr<ShardedEngine>(new ShardedEngine());
  options.working_dir = dir;
  engine->owns_working_dir_ = false;

  Result<std::string> payload = fileio::ReadFileVerified(dir + kRouterFile);
  if (!payload.ok()) return payload.status();
  std::istringstream in(std::move(*payload), std::ios::binary);
  {
    WriterMutexLock lock(&engine->plane_mu_);
    uint64_t magic = 0;
    if (!serde::ReadU64(in, &magic) ||
        (magic != kRouterMagic && magic != kRouterMagicV1)) {
      return Status::Corruption("not a sharded router image");
    }
    uint64_t num_shards = 0, depth = 0;
    if (!serde::ReadU64(in, &num_shards) ||
        !serde::ReadDouble(in, &options.shard.scoring.alpha) ||
        !serde::ReadDouble(in, &options.shard.scoring.n_norm) ||
        !serde::ReadDouble(in, &options.shard.scoring.epsilon) ||
        !serde::ReadU64(in, &depth)) {
      return Status::Corruption("truncated router image header");
    }
    if (num_shards < 1) {
      return Status::Corruption("router image has no shards");
    }
    options.num_shards = static_cast<int>(num_shards);
    options.shard.thread_depth = static_cast<int>(depth);
    // As in engine.bin, the saved bounds serve earlier readers; bounds_
    // is set from the loaded tracker below.
    double global_bound = 0;
    uint64_t hot_count = 0;
    if (!serde::ReadDouble(in, &global_bound) ||
        !serde::ReadU64(in, &hot_count)) {
      return Status::Corruption("truncated router image bounds");
    }
    for (uint64_t i = 0; i < hot_count; ++i) {
      std::string term;
      double bound = 0;
      if (!serde::ReadString(in, &term) || !serde::ReadDouble(in, &bound)) {
        return Status::Corruption("truncated router image hot bound");
      }
    }
    uint64_t user_count = 0;
    if (!serde::ReadU64(in, &user_count)) {
      return Status::Corruption("truncated router image profiles");
    }
    for (uint64_t u = 0; u < user_count; ++u) {
      int64_t uid = 0;
      uint64_t n = 0;
      if (!serde::ReadI64(in, &uid) || !serde::ReadU64(in, &n)) {
        return Status::Corruption("truncated router image profile");
      }
      auto& locations = engine->user_locations_[uid];
      locations.resize(n);
      for (uint64_t i = 0; i < n; ++i) {
        if (!serde::ReadDouble(in, &locations[i].lat) ||
            !serde::ReadDouble(in, &locations[i].lon)) {
          return Status::Corruption("truncated router image location");
        }
      }
    }
    uint64_t vocab_count = 0;
    if (!serde::ReadU64(in, &vocab_count)) {
      return Status::Corruption("truncated router image vocabulary");
    }
    for (uint64_t i = 0; i < vocab_count; ++i) {
      std::string term;
      uint64_t freq = 0;
      if (!serde::ReadString(in, &term) || !serde::ReadU64(in, &freq)) {
        return Status::Corruption("truncated router image vocabulary entry");
      }
      engine->vocabulary_.Add(term, freq);
    }
    if (!serde::ReadI64(in, &engine->max_sid_)) {
      return Status::Corruption("truncated router image watermark");
    }
    TKLUS_RETURN_IF_ERROR(engine->tracker_.Load(in));
    if (magic == kRouterMagicV1) {
      // v1's reply-children section: the tracker's parent links carry the
      // same edges, so it is read past and dropped.
      uint64_t parent_count = 0;
      if (!serde::ReadU64(in, &parent_count)) {
        return Status::Corruption("truncated router image children");
      }
      for (uint64_t p = 0; p < parent_count; ++p) {
        int64_t parent = 0, kid = 0;
        uint64_t n = 0;
        if (!serde::ReadI64(in, &parent) || !serde::ReadU64(in, &n)) {
          return Status::Corruption("truncated router image children entry");
        }
        for (uint64_t i = 0; i < n; ++i) {
          if (!serde::ReadI64(in, &kid)) {
            return Status::Corruption("truncated router image child sid");
          }
        }
      }
    }
  }
  engine->options_ = options;
  engine->router_ = ShardRouter(options.num_shards);

  // Shards recover independently: each Open restores its checkpoint and
  // replays its own WAL tail into its delta.
  engine->shards_.reserve(options.num_shards);
  for (int s = 0; s < options.num_shards; ++s) {
    TkLusEngine::Options shard_options = options.shard;
    shard_options.working_dir = engine->ShardDir(s);
    shard_options.auto_checkpoint = false;
    if (options.shard_options_hook) {
      options.shard_options_hook(s, &shard_options);
    }
    auto shard = TkLusEngine::Open(engine->ShardDir(s), shard_options);
    if (!shard.ok()) return shard.status();
    engine->shards_.push_back(std::move(*shard));
  }
  engine->options_.shard.geohash_length =
      engine->shards_[0]->options().geohash_length;

  // Plane catch-up: every shard delta post past the plane watermark was
  // appended after the last Save — re-absorb them in global sid order,
  // exactly the order the original appends fed the tracker. (A shard
  // fold without checkpoint leaves its posts in the replayed WAL tail,
  // so they reappear in the delta here; nothing is lost between M and
  // the crash.)
  {
    int64_t watermark;
    {
      ReaderMutexLock lock(&engine->plane_mu_);
      watermark = engine->max_sid_;
    }
    Dataset pending;
    for (int s = 0; s < options.num_shards; ++s) {
      const Dataset snapshot = engine->shards_[s]->delta_index().Snapshot();
      for (const Post& p : snapshot.posts()) {
        if (p.sid > watermark) pending.Add(p);
      }
    }
    pending.SortBySid();
    const Tokenizer tokenizer(engine->options_.shard.tokenizer);
    WriterMutexLock lock(&engine->plane_mu_);
    for (const Post& p : pending.posts()) {
      engine->AbsorbPostLocked(p, tokenizer);
    }
    engine->bounds_ = UpperBoundRegistry::FromParts(
        engine->tracker_.global_bound(), engine->tracker_.HotBounds());
    engine->FinishConstruction();
  }
  return engine;
}

Result<ShardedQueryResult> ShardedEngine::Query(const TkLusQuery& query) {
  TKLUS_RETURN_IF_ERROR(
      QueryProcessor::ValidateQuery(query, /*tweet_query=*/false));
  Stopwatch timer;
  ShardedQueryResult result;
  result.stats.Reset();
  std::shared_ptr<Trace> trace;
  if (query.trace) trace = std::make_shared<Trace>();
  Tracer tracer(trace.get());
  ReaderMutexLock lock(&plane_mu_);
  Tracer::Span root = tracer.StartSpan(stage::kQuery);

  // Cover once, at the router — the identical ComputeCover the shard
  // processors use, so fan-out and data placement can never drift.
  Tracer::Span cover = tracer.StartSpan(stage::kCover);
  const std::vector<std::string> cells =
      ComputeCover(query, options_.shard.geohash_length);
  result.stats.cover_cells = cells.size();
  cover.AddCounter("cover_cells", cells.size());
  const std::vector<std::string> terms =
      processor_->NormalizeKeywords(query.keywords);
  cover.End();
  if (terms.empty()) {
    root.End();
    result.stats.elapsed_ms = timer.ElapsedMillis();
    result.stats.trace = std::move(trace);
    sharded_queries_total_->Increment();
    return result;
  }

  // Scatter: only shards owning cover cells are touched.
  const std::vector<std::vector<std::string>> shard_cells =
      router_.PartitionCells(cells);
  std::vector<std::vector<ResolvedCandidate>> streams;
  size_t touched = 0;
  Status first_failure = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    if (shard_cells[s].empty()) continue;
    ++touched;
    Tracer::Span span = tracer.StartSpan(stage::kShardFetch);
    span.AddCounter("shard", static_cast<uint64_t>(s));
    Result<std::vector<ResolvedCandidate>> fetched =
        shards_[s]->FetchCandidates(query, terms, shard_cells[s],
                                    /*count_postings_lists=*/true, &tracer,
                                    &result.stats);
    span.End();
    ShardOutcome outcome;
    outcome.shard = s;
    if (fetched.ok()) {
      streams.push_back(std::move(*fetched));
    } else {
      outcome.status = fetched.status();
      shard_failures_total_->Increment();
      if (first_failure.ok()) first_failure = fetched.status();
      if (options_.strict) return fetched.status();
      result.degraded = true;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  if (touched > 0 && streams.empty()) {
    return Status::Unavailable("all " + std::to_string(touched) +
                               " touched shards failed: " +
                               first_failure.ToString());
  }

  // Gather: tid-ordered merge of disjoint streams == the single engine's
  // combined candidate sequence (over the surviving shards).
  Tracer::Span merge = tracer.StartSpan(stage::kShardMerge);
  const std::vector<ResolvedCandidate> candidates =
      MergeCandidateStreams(std::move(streams));
  merge.AddCounter("candidates", candidates.size());
  merge.End();

  // Rank at the plane with the single engine's own loop, driven by the
  // global bounds/tracker/profiles.
  TKLUS_RETURN_IF_ERROR(processor_->RankUsers(
      query, terms, candidates, tracer, &result.users, &result.stats));
  root.End();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.trace = std::move(trace);
  sharded_queries_total_->Increment();
  return result;
}

Result<ShardedTweetQueryResult> ShardedEngine::QueryTweets(
    const TkLusQuery& query) {
  TKLUS_RETURN_IF_ERROR(
      QueryProcessor::ValidateQuery(query, /*tweet_query=*/true));
  Stopwatch timer;
  ShardedTweetQueryResult result;
  result.stats.Reset();
  std::shared_ptr<Trace> trace;
  if (query.trace) trace = std::make_shared<Trace>();
  Tracer tracer(trace.get());
  ReaderMutexLock lock(&plane_mu_);
  Tracer::Span root = tracer.StartSpan(stage::kQuery);

  Tracer::Span cover = tracer.StartSpan(stage::kCover);
  const std::vector<std::string> cells =
      ComputeCover(query, options_.shard.geohash_length);
  result.stats.cover_cells = cells.size();
  cover.AddCounter("cover_cells", cells.size());
  const std::vector<std::string> terms =
      processor_->NormalizeKeywords(query.keywords);
  cover.End();
  if (terms.empty()) {
    root.End();
    result.stats.elapsed_ms = timer.ElapsedMillis();
    result.stats.trace = std::move(trace);
    sharded_queries_total_->Increment();
    return result;
  }

  const std::vector<std::vector<std::string>> shard_cells =
      router_.PartitionCells(cells);
  std::vector<std::vector<ResolvedCandidate>> streams;
  size_t touched = 0;
  Status first_failure = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    if (shard_cells[s].empty()) continue;
    ++touched;
    Tracer::Span span = tracer.StartSpan(stage::kShardFetch);
    span.AddCounter("shard", static_cast<uint64_t>(s));
    Result<std::vector<ResolvedCandidate>> fetched =
        shards_[s]->FetchCandidates(query, terms, shard_cells[s],
                                    /*count_postings_lists=*/false, &tracer,
                                    &result.stats);
    span.End();
    ShardOutcome outcome;
    outcome.shard = s;
    if (fetched.ok()) {
      streams.push_back(std::move(*fetched));
    } else {
      outcome.status = fetched.status();
      shard_failures_total_->Increment();
      if (first_failure.ok()) first_failure = fetched.status();
      if (options_.strict) return fetched.status();
      result.degraded = true;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  if (touched > 0 && streams.empty()) {
    return Status::Unavailable("all " + std::to_string(touched) +
                               " touched shards failed: " +
                               first_failure.ToString());
  }

  Tracer::Span merge = tracer.StartSpan(stage::kShardMerge);
  const std::vector<ResolvedCandidate> candidates =
      MergeCandidateStreams(std::move(streams));
  merge.AddCounter("candidates", candidates.size());
  merge.End();

  TKLUS_RETURN_IF_ERROR(processor_->RankTweets(query, candidates, tracer,
                                               &result.tweets, &result.stats));
  root.End();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.trace = std::move(trace);
  sharded_queries_total_->Increment();
  return result;
}

}  // namespace tklus
