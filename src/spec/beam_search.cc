#include "src/spec/beam_search.h"

#include <algorithm>
#include <cstddef>
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

TokenTree BuildCandidateTree(const DraftLm& draft, uint64_t stream,
                             std::span<const Token> committed, const BeamConfig& config) {
  ADASERVE_CHECK(config.depth >= 1) << "beam depth must be >= 1";
  ADASERVE_CHECK(config.width >= 1) << "beam width must be >= 1";
  const Token root_token = committed.empty() ? kInvalidToken : committed.back();
  TokenTree tree(root_token);

  std::vector<NodeId> frontier = {kRootNode};
  // One draft-context buffer for the whole tree: the committed tokens, then
  // each frontier node's speculated path appended in turn and truncated
  // away after its distribution is drawn.
  std::vector<Token> context;
  context.reserve(committed.size() + static_cast<size_t>(config.depth));
  context.assign(committed.begin(), committed.end());
  const auto committed_end = static_cast<std::ptrdiff_t>(committed.size());
  std::vector<Extension> extensions;
  for (int step = 0; step < config.depth; ++step) {
    extensions.clear();
    extensions.reserve(frontier.size() * 8);
    for (NodeId node : frontier) {
      for (NodeId cur = node; cur != kRootNode; cur = tree.node(cur).parent) {
        context.push_back(tree.node(cur).token);
      }
      std::reverse(context.begin() + committed_end, context.end());
      const SparseDist dist = draft.NextDist(stream, context);
      context.resize(committed.size());
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
    std::vector<NodeId> next_frontier;
    next_frontier.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      const Extension& e = extensions[i];
      next_frontier.push_back(tree.AddNode(e.parent, e.token, e.cond_prob));
    }
    if (next_frontier.empty()) {
      break;
    }
    frontier = std::move(next_frontier);
  }
  return tree;
}

}  // namespace adaserve
