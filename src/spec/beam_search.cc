#include "src/spec/beam_search.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/model/sampler.h"

namespace adaserve {

DistHead ExpandNode(const DraftLm& draft, uint64_t stream, NodeId node, size_t n,
                    std::vector<Token>& context, TokenTree& tree) {
  const size_t committed = context.size();
  for (NodeId cur = node; cur != kRootNode; cur = tree.node(cur).parent) {
    context.push_back(tree.node(cur).token);
  }
  std::reverse(context.begin() + static_cast<std::ptrdiff_t>(committed), context.end());
  const SyntheticLm& target = draft.target();
  SupportDraw* target_draw = tree.TargetDraw(node, target, stream);
  if (target_draw == nullptr) {
    target_draw = &tree.AttachTargetDraw(node, target, stream);
    target.Draw(stream, context, *target_draw);
    // Ranked once, as far as both this head and the verifier's sampler
    // read; a whole-distribution expansion ranks only the sampler's head.
    target.RankHead(*target_draw, n == kWholeDist ? kSampleHead : std::max(n, kSampleHead));
  }
  DistHead head = draft.NextHead(stream, context, *target_draw, n);
  context.resize(committed);
  return head;
}

size_t ExtensionCut(std::span<const SparseDist::Entry> head, double parent_path, size_t width) {
  if (head.size() <= width) {
    return head.size();
  }
  const double last_kept = parent_path * head[width - 1].prob;
  size_t cut = width;
  while (cut < head.size() && parent_path * head[cut].prob == last_kept) {
    ++cut;
  }
  return cut;
}

void BuildCandidateTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                        const BeamConfig& config, BuildScratch& scratch, TokenTree& tree) {
  ADASERVE_CHECK(config.depth >= 1) << "beam depth must be >= 1";
  ADASERVE_CHECK(config.width >= 1) << "beam width must be >= 1";
  tree.Reset(committed.empty() ? kInvalidToken : committed.back());
  // Each step keeps at most `width` nodes, and all but the last step's are
  // expanded (and so carry a target draw).
  tree.Reserve(1 + config.depth * config.width, 1 + (config.depth - 1) * config.width);

  const auto width = static_cast<size_t>(config.width);
  std::vector<NodeId>& frontier = scratch.frontier;
  std::vector<NodeId>& next_frontier = scratch.next_frontier;
  frontier.assign(1, kRootNode);
  // One draft-context buffer for the whole tree: the committed tokens, to
  // which ExpandNode appends each frontier node's path in turn.
  std::vector<Token>& context = scratch.context;
  context.assign(committed.begin(), committed.end());
  // Every frontier node contributes its top `width` draft entries, more
  // only on a tie at the cut.
  using Extension = BuildScratch::Extension;
  std::vector<Extension>& extensions = scratch.extensions;
  for (int step = 0; step < config.depth; ++step) {
    extensions.clear();
    for (NodeId node : frontier) {
      const double parent_path = tree.node(node).path_prob;
      DistHead head = ExpandNode(draft, stream, node, width + 1, context, tree);
      size_t cut = ExtensionCut(head, parent_path, width);
      if (cut > width) {
        // The tie may run past the head: read the whole distribution.
        head = ExpandNode(draft, stream, node, kWholeDist, context, tree);
        cut = ExtensionCut(head, parent_path, width);
      }
      for (const auto& e : std::span(head.data(), cut)) {
        extensions.push_back({node, e.token, e.prob, parent_path * e.prob});
      }
    }
    const size_t keep = std::min(width, extensions.size());
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
}

TokenTree BuildCandidateTree(const DraftLm& draft, uint64_t stream,
                             std::span<const Token> committed, const BeamConfig& config) {
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  BuildCandidateTree(draft, stream, committed, config, scratch, tree);
  return tree;
}

}  // namespace adaserve
