#include "src/spec/beam_search.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace adaserve {
namespace {

struct Extension {
  NodeId parent;
  Token token;
  double cond_prob;
  double path_prob;
};

}  // namespace

SparseDist ExpandNode(const DraftLm& draft, uint64_t stream, NodeId node,
                      std::vector<Token>& context, TokenTree& tree) {
  const size_t committed = context.size();
  for (NodeId cur = node; cur != kRootNode; cur = tree.node(cur).parent) {
    context.push_back(tree.node(cur).token);
  }
  std::reverse(context.begin() + static_cast<std::ptrdiff_t>(committed), context.end());
  SparseDist target_dist = draft.target().NextDist(stream, context);
  SparseDist dist = draft.NextDistGivenTarget(stream, context, target_dist);
  context.resize(committed);
  tree.AttachTargetDist(node, draft.target(), stream, std::move(target_dist));
  return dist;
}

TokenTree BuildCandidateTree(const DraftLm& draft, uint64_t stream,
                             std::span<const Token> committed, const BeamConfig& config) {
  ADASERVE_CHECK(config.depth >= 1) << "beam depth must be >= 1";
  ADASERVE_CHECK(config.width >= 1) << "beam width must be >= 1";
  const Token root_token = committed.empty() ? kInvalidToken : committed.back();
  TokenTree tree(root_token);
  // Each step keeps at most `width` nodes, and all but the last step's are
  // expanded (and so carry a target distribution).
  tree.Reserve(1 + config.depth * config.width, 1 + (config.depth - 1) * config.width);

  std::vector<NodeId> frontier = {kRootNode};
  std::vector<NodeId> next_frontier;
  // One draft-context buffer for the whole tree: the committed tokens, to
  // which ExpandNode appends each frontier node's path in turn.
  std::vector<Token> context;
  context.reserve(committed.size() + static_cast<size_t>(config.depth));
  context.assign(committed.begin(), committed.end());
  // Every frontier node contributes its whole draft support.
  std::vector<Extension> extensions;
  extensions.reserve(static_cast<size_t>(config.width) * SparseDist::kInlineSupport);
  for (int step = 0; step < config.depth; ++step) {
    extensions.clear();
    for (NodeId node : frontier) {
      const SparseDist dist = ExpandNode(draft, stream, node, context, tree);
      const double parent_path = tree.node(node).path_prob;
      for (const auto& e : dist.entries()) {
        extensions.push_back({node, e.token, e.prob, parent_path * e.prob});
      }
    }
    const size_t keep = std::min<size_t>(static_cast<size_t>(config.width), extensions.size());
    std::partial_sort(extensions.begin(), extensions.begin() + static_cast<long>(keep),
                      extensions.end(), [](const Extension& a, const Extension& b) {
                        if (a.path_prob != b.path_prob) {
                          return a.path_prob > b.path_prob;
                        }
                        if (a.parent != b.parent) {
                          return a.parent < b.parent;
                        }
                        return a.token < b.token;
                      });
    next_frontier.clear();
    for (size_t i = 0; i < keep; ++i) {
      const Extension& e = extensions[i];
      next_frontier.push_back(tree.AddNode(e.parent, e.token, e.cond_prob));
    }
    if (next_frontier.empty()) {
      break;
    }
    frontier.swap(next_frontier);
  }
  return tree;
}

}  // namespace adaserve
