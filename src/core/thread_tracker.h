#ifndef TKLUS_CORE_THREAD_TRACKER_H_
#define TKLUS_CORE_THREAD_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "model/post.h"

namespace tklus {

// Maintains, at ingest, the Def. 4 thread popularity φ of *every* post
// (any keyword-matching tweet — root or reply — can become a query
// candidate) and the §V-B upper bounds (exact global + per-hot-keyword
// maxima). For each post it keeps the number of replies at each level
// 2..d of the thread rooted there (d = the Alg. 1 depth cap). A new reply
// sits at level k+1 below its ancestor k hops up, so appending a post
// bumps at most d-1 counters — replacing both the offline full-corpus
// bound pass and the per-query thread construction of Alg. 1.
//
// The counts are free of ε, and φ is evaluated from them as
// Σ_{i=2..d} |T_i| / i in ThreadPopularity's order, so the value a query
// reads here is bit-identical to what Alg. 1 computes for the same thread.
// The bounds come from the same evaluation.
//
// Layout: one row per tracked post in dense columns (sid, parent row, hot
// mask, level counts), sized by the posts the tracker holds — not by the
// sid range. Rows are appended in sid order, so the sid column is sorted
// and a lookup is an interpolated probe into it.
//
// Invariants: posts arrive in ascending sid order (sids are timestamps;
// Build sorts, appends are validated ascending), and the hot-keyword set
// is fixed once (the paper likewise precomputes its Table-II hot keywords
// offline).
class ThreadTracker {
 public:
  struct Options {
    int max_depth = 6;     // Alg. 1 depth cap d
    double epsilon = 0.1;  // Def. 4 singleton smoothing (used by the bounds)
  };

  explicit ThreadTracker(Options options) : options_(options) {}
  ThreadTracker() : ThreadTracker(Options{}) {}

  // Fixes the hot-keyword set (normalized stems, at most 16). Call before
  // AddPost.
  void SetHotTerms(const std::vector<std::string>& stems);

  // Pre-sizes the columns for `posts` more rows.
  void Reserve(size_t posts);

  // Tracks one post. `terms` are its normalized index terms. A reply links
  // to its parent only when the parent is already tracked — i.e. has a
  // smaller sid — and otherwise roots a thread of its own; Alg. 1
  // (ThreadBuilder) likewise follows a reply edge only to a larger sid.
  // Re-adding a tracked sid is a no-op; any other sid below the last
  // tracked one is a caller bug and aborts.
  void AddPost(const Post& post, const std::vector<std::string>& terms);

  // Def. 4 popularity of the thread rooted at `sid` under singleton
  // smoothing `epsilon`: epsilon when the post has no replies within the
  // depth cap or is not tracked.
  double Popularity(TweetId sid, double epsilon) const;
  double Popularity(TweetId sid) const {
    return Popularity(sid, options_.epsilon);
  }

  // Exact maxima of Popularity over the tracked posts (the
  // UpperBoundRegistry inputs).
  double global_bound() const { return global_bound_; }
  std::unordered_map<std::string, double> HotBounds() const;

  size_t tracked_posts() const { return sids_.size(); }
  // Heap bytes held by the per-post columns (capacity, not size).
  size_t size_bytes() const;
  const Options& options() const { return options_; }

  // Persistence (engine Save/Open path). The section stores each post's
  // sid, parent sid and hot mask; Load re-derives the level counts and the
  // bounds from the parent links, so sections written before the counts
  // existed load too.
  void Save(std::ostream& out) const;
  Status Load(std::istream& in);

 private:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  // Level counts per row: levels 2..d.
  size_t levels() const {
    return options_.max_depth > 1 ? static_cast<size_t>(options_.max_depth - 1)
                                  : 0;
  }
  // Row of `sid`, or -1 when it is not tracked.
  int64_t Find(TweetId sid) const;
  // Appends a row and credits the new post to its ancestors' counts.
  void Track(TweetId sid, uint32_t parent, uint16_t hot_mask);
  double PopularityAt(size_t row, double epsilon) const;
  void BumpBounds(size_t row);

  Options options_;
  std::vector<std::string> hot_terms_;              // bit index -> stem
  std::unordered_map<std::string, int> hot_index_;  // stem -> bit index
  std::vector<double> hot_bounds_;  // aligned with hot_terms_
  double global_bound_ = 0.0;

  // Per-post columns, one row per tracked post in sid order.
  std::vector<TweetId> sids_;           // strictly ascending
  std::vector<uint32_t> parents_;       // parent row, kNoParent for roots
  std::vector<uint16_t> hot_masks_;     // bit i: the post has hot_terms_[i]
  std::vector<uint32_t> level_counts_;  // levels() per row
};

}  // namespace tklus

#endif  // TKLUS_CORE_THREAD_TRACKER_H_
