// One speculation tree per request of a decode batch, built on a
// ForkJoinTeam.
//
// A request's tree is a pure function of the draft model, the request's
// stream and its committed tokens, so a tick's trees can be built in any
// order on any thread and come out bit for bit the same. Each tree and each
// team member's BuildScratch sits on its own cache lines: adjacent trees
// written from different threads otherwise cost more than the second
// thread buys. Trees and scratch keep their capacity from tick to tick, so
// a warm batch builds without touching the heap.
#ifndef ADASERVE_SRC_SPEC_TREE_BATCH_H_
#define ADASERVE_SRC_SPEC_TREE_BATCH_H_

#include <cstddef>
#include <vector>

#include "src/common/fork_join.h"
#include "src/spec/beam_search.h"
#include "src/spec/token_tree.h"

namespace adaserve {

class TreeBatch {
 public:
  // Rebuilds trees 0..n-1 on `team`: build(i, scratch, tree) must rebuild
  // `tree` for item i, reading nothing another item writes.
  template <typename F>
  void Build(ForkJoinTeam& team, int n, const F& build) {
    while (trees_.size() < static_cast<size_t>(n)) {
      trees_.push_back({TokenTree(kInvalidToken)});
    }
    if (scratch_.size() < static_cast<size_t>(team.members())) {
      scratch_.resize(static_cast<size_t>(team.members()));
    }
    team.Run(n, [&](int member, int i) {
      build(i, scratch_[static_cast<size_t>(member)].value, trees_[static_cast<size_t>(i)].value);
    });
  }

  // Tree i of the last Build (trees past its batch keep older contents).
  TokenTree& tree(size_t i) { return trees_[i].value; }

 private:
  std::vector<CacheAligned<TokenTree>> trees_;
  std::vector<CacheAligned<BuildScratch>> scratch_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_SPEC_TREE_BATCH_H_
