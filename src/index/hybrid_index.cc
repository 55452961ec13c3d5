#include "index/hybrid_index.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>

#include "common/serde.h"
#include "geo/geohash.h"
#include "index/postings_ops.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace tklus {

namespace {

using IndexKey = std::pair<std::string, std::string>;  // (geohash, term)

// Map output key: geohash + '\0' + term in one string. It sorts exactly
// like the (geohash, term) pair ('\0' is below every geohash character)
// in 32 bytes where a pair of strings takes 64, and keys are most of a
// shuffle record.
std::string JoinKey(const std::string& cell, const std::string& term) {
  std::string key;
  key.reserve(cell.size() + 1 + term.size());
  key.append(cell).push_back('\0');
  key.append(term);
  return key;
}

std::string_view CellOf(const std::string& key) {
  return std::string_view(key).substr(0, key.find('\0'));
}

// Partition by geohash only: "data indexed by geohash will have all points
// for a given rectangular area in one computer" (§IV-B.1), so every term
// of one cell lands in one reduce partition / part file.
int GeohashPartitioner(const std::string& key, int num_partitions) {
  return static_cast<int>(std::hash<std::string_view>{}(CellOf(key)) %
                          static_cast<size_t>(num_partitions));
}

}  // namespace

Result<std::unique_ptr<HybridIndex>> HybridIndex::Build(
    const Dataset& dataset, SimulatedDfs* dfs, Options options) {
  if (options.geohash_length < 1 ||
      options.geohash_length > geohash::kMaxLength) {
    return Status::InvalidArgument("geohash length out of range");
  }
  auto index =
      std::unique_ptr<HybridIndex>(new HybridIndex(dfs, options));
  TKLUS_RETURN_IF_ERROR(index->AppendBatch(dataset));
  return index;
}

Status HybridIndex::AppendBatch(const Dataset& batch) {
  Result<PreparedAppend> prepared = PrepareAppend(batch);
  if (!prepared.ok()) return prepared.status();
  CommitAppend(*std::move(prepared));
  return Status::Ok();
}

Result<HybridIndex::PreparedAppend> HybridIndex::PrepareAppend(
    const Dataset& dataset) {
  const Options& options = options_;
  const Tokenizer tokenizer(options.tokenizer);
  const int length = options.geohash_length;

  // ---- Algorithm 2: map. Tokenize + stem, count term frequencies, and
  // emit ((geohash, term), (timestamp, tf)).
  using Job = MapReduceJob<const Post*, std::string, Posting, IndexKey,
                           std::string>;
  Job::MapFn map_fn = [&tokenizer, length](const Post* const& post,
                                           const Job::Emit& emit) {
    if (!post->HasLocation()) return;  // invisible to the spatial index
    const auto term_freqs = tokenizer.TermFrequencies(post->text);
    if (term_freqs.empty()) return;
    const std::string cell = geohash::Encode(post->location, length);
    for (const auto& [term, tf] : term_freqs) {
      emit(JoinKey(cell, term),
           Posting{post->sid, static_cast<uint32_t>(tf)});
    }
  };

  // ---- Algorithm 3: reduce. Append postings, sort by timestamp, emit the
  // encoded list.
  Job::ReduceFn reduce_fn = [](const std::string& key,
                               std::vector<Posting>& postings,
                               const Job::OutEmit& emit) {
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) { return a.tid < b.tid; });
    const std::string_view cell = CellOf(key);
    emit(IndexKey{std::string(cell), key.substr(cell.size() + 1)},
         EncodePostings(postings));
  };

  Job::Options job_options;
  job_options.num_workers = options.mapreduce_workers;
  job_options.num_reduce_tasks = options.reduce_tasks;
  job_options.max_task_attempts = options.max_task_attempts;
  job_options.fault_injector = options.fault_injector;
  Job job(std::move(map_fn), std::move(reduce_fn), job_options);
  job.set_partitioner(GeohashPartitioner);

  std::vector<const Post*> inputs;
  inputs.reserve(dataset.size());
  for (const Post& p : dataset.posts()) inputs.push_back(&p);

  auto partitions = job.Run(inputs);
  if (!partitions.ok()) return partitions.status();

  PreparedAppend prepared;
  prepared.stats_delta.map_seconds = job.stats().map_seconds;
  prepared.stats_delta.shuffle_seconds = job.stats().shuffle_seconds;
  prepared.stats_delta.reduce_seconds = job.stats().reduce_seconds;

  // Reserve this batch's generation number; the write pass below runs
  // unlocked (the DFS has its own mutex, and nothing can fetch from the
  // new part files until CommitAppend publishes their locations).
  uint32_t generation = 0;
  {
    MutexLock lock(&mu_);
    generation = generation_++;
  }

  // ---- Write each partition as one DFS part file in sorted key order and
  // record every list's position for the forward index (the "posting
  // forward index" second MapReduce job of §IV-B.2, folded into the write
  // pass since our DFS exposes offsets directly).
  Stopwatch write_timer;
  char name[48];
  for (size_t p = 0; p < partitions->size(); ++p) {
    std::snprintf(name, sizeof(name), "gen-%04u/part-%05zu", generation, p);
    const std::string file = options.dfs_prefix + name;
    uint64_t offset = 0;
    for (auto& [key, encoded] : (*partitions)[p]) {
      TKLUS_RETURN_IF_ERROR(dfs_->Append(file, encoded));
      // Decode-free doc count: first varint of the encoding.
      uint64_t doc_count = 0;
      size_t pos = 0;
      if (!GetVarint64(encoded, &pos, &doc_count)) {
        return Status::Internal("unreadable encoded postings");
      }
      prepared.entries.push_back(PreparedAppend::Entry{
          key.first, key.second,
          PostingsLocation{file, offset, encoded.size(),
                           static_cast<uint32_t>(doc_count)}});
      offset += encoded.size();
      prepared.stats_delta.postings_entries += doc_count;
      prepared.stats_delta.inverted_bytes += encoded.size();
      ++prepared.stats_delta.postings_lists;
    }
  }
  prepared.stats_delta.write_seconds = write_timer.ElapsedSeconds();
  return prepared;
}

void HybridIndex::CommitAppend(PreparedAppend prepared) {
  MutexLock lock(&mu_);
  for (PreparedAppend::Entry& entry : prepared.entries) {
    forward_.Add(entry.cell, entry.term, std::move(entry.location));
  }
  stats_.map_seconds += prepared.stats_delta.map_seconds;
  stats_.shuffle_seconds += prepared.stats_delta.shuffle_seconds;
  stats_.reduce_seconds += prepared.stats_delta.reduce_seconds;
  stats_.write_seconds += prepared.stats_delta.write_seconds;
  stats_.postings_lists += prepared.stats_delta.postings_lists;
  stats_.postings_entries += prepared.stats_delta.postings_entries;
  stats_.inverted_bytes += prepared.stats_delta.inverted_bytes;
  stats_.forward_bytes = forward_.ApproxBytes();
}

namespace {
constexpr uint64_t kIndexMagic = 0x78646979685354ULL;
}  // namespace

Status HybridIndex::Save(std::ostream& out) const {
  MutexLock lock(&mu_);
  serde::WriteU64(out, kIndexMagic);
  serde::WriteU64(out, static_cast<uint64_t>(options_.geohash_length));
  serde::WriteU64(out, generation_);
  serde::WriteString(out, options_.dfs_prefix);
  serde::WriteU64(out, stats_.postings_lists);
  serde::WriteU64(out, stats_.postings_entries);
  serde::WriteU64(out, stats_.inverted_bytes);
  serde::WriteU64(out, stats_.forward_bytes);
  forward_.Save(out);
  if (!out) return Status::IoError("short write saving index");
  return Status::Ok();
}

Result<std::unique_ptr<HybridIndex>> HybridIndex::Open(SimulatedDfs* dfs,
                                                       std::istream& in,
                                                       Options base) {
  uint64_t magic = 0, length = 0;
  if (!serde::ReadU64(in, &magic) || magic != kIndexMagic) {
    return Status::Corruption("not a hybrid index image");
  }
  Options options = std::move(base);  // keep runtime-only settings
  std::string prefix;
  uint64_t generation = 0;
  if (!serde::ReadU64(in, &length) || !serde::ReadU64(in, &generation) ||
      !serde::ReadString(in, &prefix)) {
    return Status::Corruption("truncated hybrid index header");
  }
  options.geohash_length = static_cast<int>(length);
  options.dfs_prefix = std::move(prefix);
  auto index = std::unique_ptr<HybridIndex>(
      new HybridIndex(dfs, std::move(options)));
  // Not yet published; the lock is uncontended but keeps the annotated
  // fields' discipline intact.
  MutexLock lock(&index->mu_);
  index->generation_ = static_cast<uint32_t>(generation);
  if (!serde::ReadU64(in, &index->stats_.postings_lists) ||
      !serde::ReadU64(in, &index->stats_.postings_entries) ||
      !serde::ReadU64(in, &index->stats_.inverted_bytes) ||
      !serde::ReadU64(in, &index->stats_.forward_bytes)) {
    return Status::Corruption("truncated hybrid index stats");
  }
  TKLUS_RETURN_IF_ERROR(index->forward_.Load(in));
  return index;
}

Result<std::vector<Posting>> HybridIndex::FetchPostings(
    const std::string& geohash, const std::string& term) const {
  // Snapshot the location list under the lock, then fetch from the DFS
  // unlocked: a concurrent AppendBatch may add a new generation, but
  // existing part files are immutable, so the snapshot stays valid.
  std::vector<PostingsLocation> locations;
  {
    MutexLock lock(&mu_);
    const std::vector<PostingsLocation>* found =
        forward_.Lookup(geohash, term);
    if (found == nullptr) return std::vector<Posting>{};
    locations = *found;
  }
  std::vector<Posting> merged;
  std::string encoded;
  for (const PostingsLocation& loc : locations) {
    // Retry transient DFS faults; permanent errors and corruption
    // propagate immediately. The op key makes the backoff jitter stable
    // for a given postings list, so fault runs replay deterministically.
    const uint64_t op_key =
        loc.offset ^ (std::hash<std::string>{}(loc.file) * 0x9e3779b97f4a7c15ULL);
    RetryStats retry_stats;
    const Status read = RetryTransient(
        options_.retry, op_key,
        [&] { return dfs_->ReadAt(loc.file, loc.offset, loc.length, &encoded); },
        &retry_stats);
    if (retry_stats.attempts > 1) {
      fetch_retries_.fetch_add(
          static_cast<uint64_t>(retry_stats.attempts - 1),
          std::memory_order_relaxed);
      MetricsRegistry::Global()
          .GetCounter("tklus_index_fetch_retries_total",
                      "Postings fetches re-issued after transient DFS faults.")
          ->Increment(static_cast<uint64_t>(retry_stats.attempts - 1));
    }
    TKLUS_RETURN_IF_ERROR(read);
    Result<std::vector<Posting>> postings = DecodePostings(encoded);
    if (!postings.ok()) return postings.status();
    if (merged.empty()) {
      merged = std::move(*postings);
    } else if (merged.back().tid < postings->front().tid) {
      // Time-ordered batches: plain concatenation.
      merged.insert(merged.end(), postings->begin(), postings->end());
    } else {
      merged = MergeDisjoint(merged, *postings);
    }
  }
  return merged;
}

Result<std::vector<Posting>> HybridIndex::FetchTermPostings(
    const std::vector<std::string>& cover_cells,
    const std::string& term) const {
  std::vector<Posting> merged;
  for (const std::string& cell : cover_cells) {
    Result<std::vector<Posting>> postings = FetchPostings(cell, term);
    if (!postings.ok()) return postings.status();
    if (postings->empty()) continue;
    merged = merged.empty() ? std::move(*postings)
                            : MergeDisjoint(merged, *postings);
  }
  return merged;
}

}  // namespace tklus
