#ifndef TKLUS_SOCIAL_THREAD_BUILDER_H_
#define TKLUS_SOCIAL_THREAD_BUILDER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "model/post.h"
#include "storage/metadata_db.h"

namespace tklus {

// Level sizes of a tweet thread: level_sizes[0] == 1 is the root, and
// level_sizes[i] is |T_{i+1}| in the paper's 1-based notation.
struct ThreadShape {
  std::vector<uint64_t> level_sizes;

  int height() const { return static_cast<int>(level_sizes.size()); }
  uint64_t total_tweets() const {
    uint64_t n = 0;
    for (const uint64_t s : level_sizes) n += s;
    return n;
  }
};

// Popularity of a tweet whose thread has the given shape (Definition 4):
//   phi = epsilon                      if the thread is the root alone,
//   phi = sum_{i=2..n} |T_i| * (1/i)   otherwise.
// The paper's Fig. 2 example (levels 1,3,4,2) scores 3/2 + 4/3 + 2/4 = 10/3.
double ThreadPopularity(const ThreadShape& shape, double epsilon);

// Constructs tweet threads level-by-level through MetadataDb's rsid index —
// Algorithm 1. The depth cap `d` bounds the number of SELECT rounds ("a
// thread depth d is always set to constrain the construction process").
// A reply edge is followed only to a larger sid (replies are posted after
// their parents), the rule ThreadTracker applies at ingest. Queries read
// φ from the tracker; this path serves the Alg. 1 engine mode
// (TkLusEngine::Options::alg1_thread_construction) and test oracles.
class ThreadBuilder {
 public:
  struct Options {
    int max_depth = 6;       // d in Alg. 1
    double epsilon = 0.1;    // Def. 4 smoothing, §VI-B1 sets it to 0.1
  };

  // Supplies reply sids the metadata DB does not know about (e.g. posts
  // still resident in the engine's delta index). Appends children of the
  // given sid to the vector; duplicates with the DB's own replies are
  // deduplicated by the builder.
  using ExtraChildrenFn = std::function<void(TweetId, std::vector<TweetId>*)>;

  ThreadBuilder(MetadataDb* db, Options options)
      : db_(db), options_(options) {}
  explicit ThreadBuilder(MetadataDb* db) : ThreadBuilder(db, Options{}) {}

  // Level sizes of the thread rooted at `root_sid`, down to max_depth.
  Result<ThreadShape> BuildShape(TweetId root_sid);

  // Algorithm 1 end-to-end: popularity of the thread rooted at `root_sid`.
  Result<double> Popularity(TweetId root_sid);

  void set_extra_children(ExtraChildrenFn fn) { extra_children_ = std::move(fn); }

  const Options& options() const { return options_; }

 private:
  MetadataDb* db_;
  Options options_;
  ExtraChildrenFn extra_children_;
};

// In-memory thread construction from a children adjacency map
// (SocialGraph::children()). Used as the test oracle for ThreadBuilder and
// by the offline exact upper-bound precomputation, where the paper also
// constructs threads offline (§V-B).
ThreadShape BuildShapeInMemory(
    const std::unordered_map<TweetId, std::vector<TweetId>>& children,
    TweetId root_sid, int max_depth);

}  // namespace tklus

#endif  // TKLUS_SOCIAL_THREAD_BUILDER_H_
