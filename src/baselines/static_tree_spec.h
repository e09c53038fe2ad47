// Fixed-shape speculation: static-topology trees (SpecInfer/Medusa-style,
// §7) and vLLM-Spec(k)'s sequence chains (§6.1).
//
// Early tree-based speculative decoding fixes the tree *shape* per
// iteration — e.g. expand the top-k1 draft tokens at depth 1, top-k2 under
// each at depth 2, and so on — independent of request SLOs or load. A
// k-token greedy chain, the strategy of vLLM-Spec(k), is the same tree with
// branching 1 at each of its k levels. Every decode iteration drafts one
// tree per request and verifies all trees in one batched target pass. The
// shape is fixed regardless of load — the rigidity AdaServe's adaptive
// control removes. Wider shapes fill the design space between vLLM-Spec's
// chains and AdaServe's SLO-customized trees, and feed the tree-topology
// ablation.
#ifndef ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_
#define ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_

#include <string>
#include <vector>

#include "src/serve/scheduler.h"
#include "src/spec/beam_search.h"
#include "src/spec/token_tree.h"
#include "src/spec/tree_batch.h"

namespace adaserve {

struct StaticTreeConfig {
  // Branching factor per level; the tree has branching.size() levels and
  // b0 + b0*b1 + ... speculated tokens. Default (3, 2, 1): 3 + 6 + 6 = 15.
  // All ones of length k is vLLM-Spec(k)'s k-token chain.
  std::vector<int> branching = {3, 2, 1};
};

// Rebuilds `tree` as the fixed-topology draft tree for one request: at each
// level, every frontier node expands its top-k draft children, k given by
// the level's branching factor.
void BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                     const std::vector<int>& branching, BuildScratch& scratch, TokenTree& tree);
TokenTree BuildStaticTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                          const std::vector<int>& branching);

class StaticTreeSpecScheduler : public Scheduler {
 public:
  explicit StaticTreeSpecScheduler(const StaticTreeConfig& config = {});

  // "vLLM-Spec(k)" for an all-ones shape of length k, else
  // "StaticTree(AxB...)".
  std::string_view name() const override { return name_; }

 protected:
  // Tick-native decode phase: the fixed-topology tree speculate-verify pass.
  IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) override;

 private:
  StaticTreeConfig config_;
  std::string name_;
  int tokens_per_tree_;
  // Draft tokens per request at each level: 1, b0, b0*b1, ...
  std::vector<int> level_widths_;
  // Tree i belongs to the iteration's i-th running request; every tree is
  // built before any commits.
  TreeBatch trees_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_STATIC_TREE_SPEC_H_
