#include "social/thread_builder.h"

#include <algorithm>
#include <cstddef>

namespace tklus {

namespace {

// Drops the replies appended to `next` from index `first` on whose sid is
// not above their parent's. A reply is posted after its parent (sids are
// timestamps), so such an edge is malformed data, and following it could
// loop. ThreadTracker, which links a reply only to an already-tracked
// parent, counts the same tree.
void DropBackwardReplies(TweetId parent, size_t first,
                         std::vector<TweetId>* next) {
  next->erase(std::remove_if(next->begin() + static_cast<ptrdiff_t>(first),
                             next->end(),
                             [parent](TweetId sid) { return sid <= parent; }),
              next->end());
}

}  // namespace

double ThreadPopularity(const ThreadShape& shape, double epsilon) {
  if (shape.height() <= 1) return epsilon;
  double popularity = 0.0;
  for (int i = 2; i <= shape.height(); ++i) {
    popularity += static_cast<double>(shape.level_sizes[i - 1]) / i;
  }
  return popularity;
}

Result<ThreadShape> ThreadBuilder::BuildShape(TweetId root_sid) {
  ThreadShape shape;
  shape.level_sizes.push_back(1);
  std::vector<TweetId> frontier{root_sid};
  for (int depth = 1; depth < options_.max_depth; ++depth) {
    std::vector<TweetId> next;
    for (const TweetId sid : frontier) {
      const size_t first = next.size();
      // Alg. 1 line 7: "select all where rsid equals to Id" — the I/O step.
      Result<std::vector<TweetMeta>> replies = db_->SelectByRsid(sid);
      if (!replies.ok()) return replies.status();
      for (const TweetMeta& reply : *replies) {
        next.push_back(reply.sid);
      }
      if (extra_children_) extra_children_(sid, &next);
      DropBackwardReplies(sid, first, &next);
    }
    if (extra_children_) {
      // A reply can surface from both sources during crash-recovery
      // windows (row already folded into the DB, post still resident in
      // the delta); each level counts a sid once.
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
    }
    if (next.empty()) break;
    shape.level_sizes.push_back(next.size());
    frontier = std::move(next);
  }
  return shape;
}

Result<double> ThreadBuilder::Popularity(TweetId root_sid) {
  Result<ThreadShape> shape = BuildShape(root_sid);
  if (!shape.ok()) return shape.status();
  return ThreadPopularity(*shape, options_.epsilon);
}

ThreadShape BuildShapeInMemory(
    const std::unordered_map<TweetId, std::vector<TweetId>>& children,
    TweetId root_sid, int max_depth) {
  ThreadShape shape;
  shape.level_sizes.push_back(1);
  std::vector<TweetId> frontier{root_sid};
  for (int depth = 1; depth < max_depth; ++depth) {
    std::vector<TweetId> next;
    for (const TweetId sid : frontier) {
      const auto it = children.find(sid);
      if (it == children.end()) continue;
      const size_t first = next.size();
      next.insert(next.end(), it->second.begin(), it->second.end());
      DropBackwardReplies(sid, first, &next);
    }
    if (next.empty()) break;
    shape.level_sizes.push_back(next.size());
    frontier = std::move(next);
  }
  return shape;
}

}  // namespace tklus
