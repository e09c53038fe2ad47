#include "src/spec/sequence_spec.h"

#include <vector>

#include "src/common/logging.h"
#include "src/spec/beam_search.h"

namespace adaserve {

TokenTree BuildChainTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                         int k) {
  ADASERVE_CHECK(k >= 1) << "speculation length must be >= 1";
  const Token root_token = committed.empty() ? kInvalidToken : committed.back();
  TokenTree tree(root_token);
  tree.Reserve(k + 1, k);
  std::vector<Token> context;
  context.reserve(committed.size() + static_cast<size_t>(k));
  context.assign(committed.begin(), committed.end());
  NodeId cur = kRootNode;
  for (int i = 0; i < k; ++i) {
    const SparseDist dist = ExpandNode(draft, stream, cur, context, tree);
    const SparseDist::Entry& top = dist.entry(0);  // The argmax.
    cur = tree.AddNode(cur, top.token, top.prob);
  }
  return tree;
}

}  // namespace adaserve
