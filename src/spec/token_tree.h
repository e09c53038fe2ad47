// Draft token trees (§2, Figure 4).
//
// A token tree is rooted at the request's last committed token; every other
// node is a speculated token, annotated with the draft model's conditional
// probability and the resulting approximated path probability
// f(v) = prod of conditionals along the root->v path (Eq. 7).
//
// Expanding a node asks the draft model for the head of its next-token
// distribution: only the top entries the builder can keep as children,
// mixed from the target model's distribution at the same context. The
// target's support draw, ranked only at its head (SupportDraw), is
// attached to the node, so the verifier samples from it instead of
// drawing and ranking it a second time.
//
// A tree is rebuilt in place: Reset drops the nodes and the attached
// draws but keeps their storage, so a caller that rebuilds the same tree
// every iteration stops allocating once it has held the largest tree. The
// retained capacity (nodes plus ~520-byte draw slots) lives as long as the
// tree.
#ifndef ADASERVE_SRC_SPEC_TOKEN_TREE_H_
#define ADASERVE_SRC_SPEC_TOKEN_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/types.h"
#include "src/model/synthetic_lm.h"

namespace adaserve {

using NodeId = int;
inline constexpr NodeId kRootNode = 0;
inline constexpr NodeId kInvalidNode = -1;

class TokenTree {
 public:
  struct Node {
    Token token = kInvalidToken;
    NodeId parent = kInvalidNode;
    // Draft conditional probability q(token | path to parent). 1.0 for root.
    double cond_prob = 1.0;
    // Approximated path probability f(v): product of conditionals. 1.0 for root.
    double path_prob = 1.0;
    int depth = 0;
    // Index of this node's attached target draw; -1 if none.
    int target_draw = -1;
    // Inline up to the typical beam width: building a tree allocates no
    // per-node child lists unless a node fans out unusually wide.
    SmallVector<NodeId, 4> children;
  };

  // Creates a tree containing only the root. `root_token` is the last
  // committed token (context anchor), not a speculated token.
  explicit TokenTree(Token root_token);

  // Makes this a tree containing only a root on `root_token`, as a fresh
  // TokenTree(root_token) would be: every node and attached target draw is
  // dropped, their storage kept for the next build.
  void Reset(Token root_token);

  // Adds a speculated token under `parent`. Requires parent to exist and
  // cond_prob in (0, 1]. Returns the new node's id.
  NodeId AddNode(NodeId parent, Token token, double cond_prob);

  // Reserves room for `nodes` nodes, `expanded` of them with an attached
  // target draw.
  void Reserve(int nodes, int expanded);

  int size() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }

  // Maximum node depth (root = 0).
  int MaxDepth() const;

  // Tokens along the path from the root (exclusive) to `id` (inclusive).
  std::vector<Token> PathTokens(NodeId id) const;

  // Sum of path probabilities over a node subset; used by the TPOT
  // constraint (Eq. 5). Pass ids excluding the root.
  double SumPathProb(const std::vector<NodeId>& ids) const;

  // Replaces the contents of `ids` with all non-root node ids ordered by
  // descending path probability (ties by shallower depth, then smaller id).
  // A prefix of this order is always a connected subtree (Appendix B):
  // parents precede children because conditionals are <= 1.
  void NodesByPathProb(std::vector<NodeId>& ids) const;

  // True if `selected` (indexed by NodeId, root implicitly selected) forms a
  // connected subtree containing the root.
  bool IsConnectedSelection(const std::vector<char>& selected) const;

  // Attaches an empty draw to node `id` and returns it, for the caller to
  // fill with model.Draw(stream, committed + PathTokens(id)), where
  // `committed` is the sequence the tree was built on, and rank as far as
  // it likes. A node takes at most one, and all of a tree's come from one
  // model and stream.
  SupportDraw& AttachTargetDraw(NodeId id, const SyntheticLm& model, uint64_t stream);

  // The draw attached to `id` if `model` drew it for `stream`; nullptr if
  // none is attached or it came from another model or stream.
  const SupportDraw* TargetDraw(NodeId id, const SyntheticLm& model, uint64_t stream) const;
  SupportDraw* TargetDraw(NodeId id, const SyntheticLm& model, uint64_t stream);

  // Detaches every target draw.
  void ClearTargetDraws();

 private:
  std::vector<Node> nodes_;
  std::vector<SupportDraw> target_draws_;
  // The model and stream the attached draws came from.
  const SyntheticLm* draw_model_ = nullptr;
  uint64_t draw_stream_ = 0;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_SPEC_TOKEN_TREE_H_
