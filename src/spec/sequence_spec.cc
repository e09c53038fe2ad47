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
    const DistHead head = ExpandNode(draft, stream, cur, /*n=*/1, context, tree);
    cur = tree.AddNode(cur, head[0].token, head[0].prob);  // The argmax.
  }
  return tree;
}

}  // namespace adaserve
