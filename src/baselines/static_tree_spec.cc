#include "src/baselines/static_tree_spec.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/spec/beam_search.h"

namespace adaserve {

void BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                     const std::vector<int>& branching, BuildScratch& scratch, TokenTree& tree) {
  ADASERVE_CHECK(!branching.empty()) << "static tree needs at least one level";
  tree.Reset(committed.empty() ? kInvalidToken : committed.back());
  std::vector<NodeId>& frontier = scratch.frontier;
  std::vector<NodeId>& next = scratch.next_frontier;
  frontier.assign(1, kRootNode);
  // One draft-context buffer for the whole tree, as in BuildCandidateTree.
  std::vector<Token>& context = scratch.context;
  context.assign(committed.begin(), committed.end());
  for (int k : branching) {
    ADASERVE_CHECK(k >= 1) << "branching factors must be positive";
    next.clear();
    for (NodeId node : frontier) {
      const DistHead head = ExpandNode(draft, stream, node, static_cast<size_t>(k), context, tree);
      for (const auto& e : head) {
        next.push_back(tree.AddNode(node, e.token, e.prob));
      }
    }
    frontier.swap(next);
  }
}

TokenTree BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                          const std::vector<int>& branching) {
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  BuildStaticTree(draft, stream, committed, branching, scratch, tree);
  return tree;
}

StaticTreeSpecScheduler::StaticTreeSpecScheduler(const StaticTreeConfig& config)
    : config_(config) {
  ADASERVE_CHECK(!config_.branching.empty()) << "static tree needs at least one level";
  tokens_per_tree_ = 0;
  int level_width = 1;
  std::string shape;
  for (int k : config_.branching) {
    level_widths_.push_back(level_width);
    level_width *= k;
    tokens_per_tree_ += level_width;
    if (!shape.empty()) shape += 'x';
    shape += std::to_string(k);
  }
  // A chain of branching 1 at each of its k levels is vLLM-Spec(k).
  const bool chain = std::ranges::all_of(config_.branching, [](int k) { return k == 1; });
  name_ = chain ? "vLLM-Spec(" + std::to_string(config_.branching.size()) + ")"
                : "StaticTree(" + shape + ")";
}

IterationRecord StaticTreeSpecScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                                     ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  const int n = static_cast<int>(running.size());

  // Draft phase: one step per level; the batch width grows with the level.
  // Verification: each request contributes its root + every tree token.
  const long context = pool.SumContextTokens(running);
  const SimTime spec_time = DraftTreeTime(*ctx.draft_latency, n, context, level_widths_);
  const SimTime verify_time = ctx.target_latency->ForwardLatency(
      n * (tokens_per_tree_ + 1), context, /*use_cuda_graph=*/true);
  const SimTime latency = spec_time + verify_time;
  const SimTime end = now + latency;

  // A tree reads only its own request's output, so building every tree
  // before the first commit builds the same trees.
  const RequestPool& requests = pool;
  trees_.Build(ForkJoinTeam::Shared(), n, [&](int i, BuildScratch& scratch, TokenTree& tree) {
    const Request& req = requests.Get(running[static_cast<size_t>(i)]);
    BuildStaticTree(*ctx.draft, req.stream_seed, req.output, config_.branching, scratch, tree);
  });
  for (size_t i = 0; i < running.size(); ++i) {
    CommitVerifiedTree(now, end, pool, ctx, running[i], trees_.tree(i), /*selected=*/{}, record);
  }

  record.duration = latency;
  record.spec_time = spec_time;
  record.verify_time = verify_time;
  record.decode_requests = n;
  return record;
}

}  // namespace adaserve
