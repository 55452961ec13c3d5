#include "core/thread_tracker.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/serde.h"

namespace tklus {

void ThreadTracker::SetHotTerms(const std::vector<std::string>& stems) {
  hot_terms_.clear();
  hot_index_.clear();
  for (const std::string& stem : stems) {
    if (hot_index_.count(stem) || hot_terms_.size() >= 16) continue;
    hot_index_.emplace(stem, static_cast<int>(hot_terms_.size()));
    hot_terms_.push_back(stem);
  }
  hot_bounds_.assign(hot_terms_.size(), 0.0);
}

void ThreadTracker::Reserve(size_t posts) {
  const size_t rows = sids_.size() + posts;
  sids_.reserve(rows);
  parents_.reserve(rows);
  hot_masks_.reserve(rows);
  level_counts_.reserve(rows * levels());
}

int64_t ThreadTracker::Find(TweetId sid) const {
  const size_t n = sids_.size();
  if (n == 0 || sid < sids_.front() || sid > sids_.back()) return -1;
  // Sids are timestamps, close to evenly spaced, so the interpolated row
  // is usually the one; the binary search bounds the rest.
  const uint64_t span = static_cast<uint64_t>(sids_.back()) -
                        static_cast<uint64_t>(sids_.front());
  const uint64_t offset =
      static_cast<uint64_t>(sid) - static_cast<uint64_t>(sids_.front());
  const size_t guess =
      span == 0 ? 0
                : std::min(n - 1, static_cast<size_t>(
                                      static_cast<double>(offset) /
                                      static_cast<double>(span) *
                                      static_cast<double>(n - 1)));
  if (sids_[guess] == sid) return static_cast<int64_t>(guess);
  const auto first = sids_[guess] < sid ? sids_.begin() + guess + 1
                                        : sids_.begin();
  const auto last = sids_[guess] < sid ? sids_.end() : sids_.begin() + guess;
  const auto it = std::lower_bound(first, last, sid);
  if (it == last || *it != sid) return -1;
  return it - sids_.begin();
}

void ThreadTracker::AddPost(const Post& post,
                            const std::vector<std::string>& terms) {
  if (!sids_.empty() && post.sid <= sids_.back()) {
    TKLUS_CHECK(Find(post.sid) >= 0)
        << "thread tracker: sid " << post.sid << " arrives after sid "
        << sids_.back();
    return;  // duplicate sid: ignore
  }
  uint16_t hot_mask = 0;
  for (const std::string& term : terms) {
    const auto it = hot_index_.find(term);
    if (it != hot_index_.end()) {
      hot_mask |= static_cast<uint16_t>(1u << it->second);
    }
  }
  uint32_t parent = kNoParent;
  if (post.IsReplyOrForward()) {
    const int64_t row = Find(post.rsid);
    if (row >= 0) parent = static_cast<uint32_t>(row);
  }
  Track(post.sid, parent, hot_mask);
}

void ThreadTracker::Track(TweetId sid, uint32_t parent, uint16_t hot_mask) {
  TKLUS_CHECK(sids_.size() < kNoParent) << "thread tracker is full";
  const size_t row = sids_.size();
  sids_.push_back(sid);
  parents_.push_back(parent);
  hot_masks_.push_back(hot_mask);
  level_counts_.resize(level_counts_.size() + levels(), 0);
  BumpBounds(row);  // a singleton's epsilon may set the first bounds

  // The new post sits at level k+1 of the thread rooted k hops above it.
  uint32_t ancestor = parent;
  for (size_t level = 2; ancestor != kNoParent && level <= levels() + 1;
       ++level) {
    ++level_counts_[ancestor * levels() + (level - 2)];
    BumpBounds(ancestor);
    ancestor = parents_[ancestor];
  }
}

double ThreadTracker::PopularityAt(size_t row, double epsilon) const {
  const size_t n = levels();
  const uint32_t* counts = level_counts_.data() + row * n;
  if (n == 0 || counts[0] == 0) return epsilon;
  // ThreadPopularity's sum, term for term: levels below the first empty
  // one are empty too, and Alg. 1 stops there.
  double popularity = 0.0;
  for (size_t i = 2; i <= n + 1 && counts[i - 2] != 0; ++i) {
    popularity += static_cast<double>(counts[i - 2]) / static_cast<int>(i);
  }
  return popularity;
}

double ThreadTracker::Popularity(TweetId sid, double epsilon) const {
  const int64_t row = Find(sid);
  return row < 0 ? epsilon : PopularityAt(static_cast<size_t>(row), epsilon);
}

void ThreadTracker::BumpBounds(size_t row) {
  const double popularity = PopularityAt(row, options_.epsilon);
  global_bound_ = std::max(global_bound_, popularity);
  const uint16_t mask = hot_masks_[row];
  if (mask == 0) return;
  for (size_t bit = 0; bit < hot_terms_.size(); ++bit) {
    if (mask & (1u << bit)) {
      hot_bounds_[bit] = std::max(hot_bounds_[bit], popularity);
    }
  }
}

std::unordered_map<std::string, double> ThreadTracker::HotBounds() const {
  std::unordered_map<std::string, double> out;
  for (size_t bit = 0; bit < hot_terms_.size(); ++bit) {
    out.emplace(hot_terms_[bit], hot_bounds_[bit]);
  }
  return out;
}

size_t ThreadTracker::size_bytes() const {
  return sids_.capacity() * sizeof(TweetId) +
         parents_.capacity() * sizeof(uint32_t) +
         hot_masks_.capacity() * sizeof(uint16_t) +
         level_counts_.capacity() * sizeof(uint32_t);
}

// Section layout (unchanged since the tracker kept one running reply
// score per post): header, hot terms with their bounds, then per post
// {sid, parent sid, hot mask, reply count, reply score}. The bounds and
// the last two fields are what earlier readers use; Load re-derives all
// three from the parent links instead.
void ThreadTracker::Save(std::ostream& out) const {
  serde::WriteU64(out, static_cast<uint64_t>(options_.max_depth));
  serde::WriteDouble(out, options_.epsilon);
  serde::WriteDouble(out, global_bound_);
  serde::WriteU64(out, hot_terms_.size());
  for (size_t i = 0; i < hot_terms_.size(); ++i) {
    serde::WriteString(out, hot_terms_[i]);
    serde::WriteDouble(out, hot_bounds_[i]);
  }
  serde::WriteU64(out, sids_.size());
  const size_t n = levels();
  for (size_t row = 0; row < sids_.size(); ++row) {
    const uint32_t* counts = level_counts_.data() + row * n;
    const uint32_t replies = std::accumulate(counts, counts + n, uint32_t{0});
    serde::WriteI64(out, sids_[row]);
    serde::WriteI64(out,
                    parents_[row] == kNoParent ? kNoId : sids_[parents_[row]]);
    serde::WriteU32(out, hot_masks_[row]);
    serde::WriteU32(out, replies);
    serde::WriteDouble(out, replies == 0 ? 0.0 : PopularityAt(row, 0.0));
  }
}

Status ThreadTracker::Load(std::istream& in) {
  uint64_t depth = 0, hot_count = 0, entry_count = 0;
  double saved_global_bound = 0;
  if (!serde::ReadU64(in, &depth) ||
      !serde::ReadDouble(in, &options_.epsilon) ||
      !serde::ReadDouble(in, &saved_global_bound) ||
      !serde::ReadU64(in, &hot_count)) {
    return Status::Corruption("truncated thread tracker header");
  }
  options_.max_depth = static_cast<int>(depth);
  std::vector<std::string> stems;
  for (uint64_t i = 0; i < hot_count; ++i) {
    std::string stem;
    double bound = 0;
    if (!serde::ReadString(in, &stem) || !serde::ReadDouble(in, &bound)) {
      return Status::Corruption("truncated thread tracker hot term");
    }
    stems.push_back(std::move(stem));
  }
  if (!serde::ReadU64(in, &entry_count)) {
    return Status::Corruption("truncated thread tracker entries");
  }
  struct Saved {
    int64_t sid = 0;
    int64_t parent = 0;
    uint32_t mask = 0;
  };
  std::vector<Saved> saved;
  for (uint64_t i = 0; i < entry_count; ++i) {
    Saved entry;
    uint32_t replies = 0;
    double reply_score = 0;
    if (!serde::ReadI64(in, &entry.sid) ||
        !serde::ReadI64(in, &entry.parent) ||
        !serde::ReadU32(in, &entry.mask) || !serde::ReadU32(in, &replies) ||
        !serde::ReadDouble(in, &reply_score)) {
      return Status::Corruption("truncated thread tracker entry");
    }
    saved.push_back(entry);
  }
  // Replay in sid order (sections written from a hash map are unordered):
  // every parent was tracked before its reply, so it is found among the
  // rows already replayed.
  std::sort(saved.begin(), saved.end(),
            [](const Saved& a, const Saved& b) { return a.sid < b.sid; });
  sids_.clear();
  parents_.clear();
  hot_masks_.clear();
  level_counts_.clear();
  global_bound_ = 0.0;
  SetHotTerms(stems);
  Reserve(saved.size());
  for (const Saved& entry : saved) {
    if (!sids_.empty() && entry.sid <= sids_.back()) {
      return Status::Corruption("duplicate sid in thread tracker");
    }
    uint32_t parent = kNoParent;
    if (entry.parent != kNoId) {
      const int64_t row = Find(entry.parent);
      if (row < 0) {
        return Status::Corruption("thread tracker parent not tracked");
      }
      parent = static_cast<uint32_t>(row);
    }
    Track(entry.sid, parent, static_cast<uint16_t>(entry.mask));
  }
  return Status::Ok();
}

}  // namespace tklus
