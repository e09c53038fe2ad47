#include "src/spec/sequence_spec.h"

#include "src/common/logging.h"

namespace adaserve {

void BuildChainTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed, int k,
                    BuildScratch& scratch, TokenTree& tree) {
  ADASERVE_CHECK(k >= 1) << "speculation length must be >= 1";
  tree.Reset(committed.empty() ? kInvalidToken : committed.back());
  tree.Reserve(k + 1, k);
  scratch.context.assign(committed.begin(), committed.end());
  NodeId cur = kRootNode;
  for (int i = 0; i < k; ++i) {
    const DistHead head = ExpandNode(draft, stream, cur, /*n=*/1, scratch.context, tree);
    cur = tree.AddNode(cur, head[0].token, head[0].prob);  // The argmax.
  }
}

TokenTree BuildChainTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                         int k) {
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  BuildChainTree(draft, stream, committed, k, scratch, tree);
  return tree;
}

}  // namespace adaserve
