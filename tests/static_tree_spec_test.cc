#include "src/baselines/static_tree_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class StaticTreeTest : public ::testing::Test {
 protected:
  StaticTreeTest() : exp_(TestSetup()) {}
  Experiment exp_;
};

TEST_F(StaticTreeTest, TreeShapeFollowsBranching) {
  const std::vector<Token> ctx = {1, 2, 3};
  // (3, 2): 3 depth-1 nodes + 6 depth-2 nodes + root = 10.
  const TokenTree tree = BuildStaticTree(exp_.draft(), 5, ctx, {3, 2});
  EXPECT_EQ(tree.size(), 10);
  EXPECT_EQ(tree.MaxDepth(), 2);
  EXPECT_EQ(tree.node(kRootNode).children.size(), 3u);
  for (NodeId child : tree.node(kRootNode).children) {
    EXPECT_EQ(tree.node(child).children.size(), 2u);
  }
}

TEST_F(StaticTreeTest, LevelOneTakesTopDraftTokens) {
  const std::vector<Token> ctx = {4, 5};
  const TokenTree tree = BuildStaticTree(exp_.draft(), 2, ctx, {2});
  const SparseDist dist = exp_.draft().NextDist(2, ctx);
  ASSERT_EQ(tree.node(kRootNode).children.size(), 2u);
  EXPECT_EQ(tree.node(tree.node(kRootNode).children[0]).token, dist.entry(0).token);
  EXPECT_EQ(tree.node(tree.node(kRootNode).children[1]).token, dist.entry(1).token);
}

TEST_F(StaticTreeTest, SchedulerNameEncodesShape) {
  StaticTreeSpecScheduler scheduler(StaticTreeConfig{.branching = {4, 2, 1}});
  EXPECT_EQ(scheduler.name(), "StaticTree(4x2x1)");
  // An all-ones shape is a k-token chain, vLLM-Spec(k); one wider level
  // makes it a tree.
  EXPECT_EQ(StaticTreeSpecScheduler(StaticTreeConfig{.branching = {1, 1, 1, 1}}).name(),
            "vLLM-Spec(4)");
  EXPECT_EQ(StaticTreeSpecScheduler(StaticTreeConfig{.branching = {1, 2}}).name(),
            "StaticTree(1x2)");
}

TEST_F(StaticTreeTest, DrainsWorkloadAndAcceptsTokens) {
  StaticTreeSpecScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size()));
  EXPECT_GT(result.metrics.mean_accepted, 0.0);
}

TEST_F(StaticTreeTest, GreedyOutputsMatchPlainDecoding) {
  // Losslessness extends to the static-tree scheduler.
  const std::vector<Request> workload = UniformWorkload(exp_, 3, kCatChat, 0.0);
  EngineConfig config;
  config.mode = DecodeMode::kGreedy;
  StaticTreeSpecScheduler tree_scheduler;
  VllmScheduler cb_scheduler;
  const EngineResult a = exp_.Run(tree_scheduler, workload, config);
  const EngineResult b = exp_.Run(cb_scheduler, workload, config);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].output, b.requests[i].output);
  }
}

TEST_F(StaticTreeTest, WiderTreeAcceptsMoreThanChainOfSameDepth) {
  // A (3,2) tree explores siblings a 1x1 chain misses: acceptance per
  // verification must be at least as high on the same workload.
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  StaticTreeSpecScheduler wide(StaticTreeConfig{.branching = {3, 2}});
  StaticTreeSpecScheduler chain(StaticTreeConfig{.branching = {1, 1}});
  const EngineResult w = exp_.Run(wide, workload);
  const EngineResult c = exp_.Run(chain, workload);
  EXPECT_GE(w.metrics.mean_accepted + 1e-9, c.metrics.mean_accepted);
}

// The reference static tree: every frontier node takes the top k of its
// whole draft distribution. BuildStaticTree, which reads only draft heads,
// must build the same tree.
TokenTree ReferenceBuildStaticTree(const DraftLm& draft, uint64_t stream,
                                   const std::vector<Token>& committed,
                                   const std::vector<int>& branching) {
  TokenTree tree(committed.back());
  std::vector<NodeId> frontier = {kRootNode};
  for (int k : branching) {
    std::vector<NodeId> next;
    for (NodeId node : frontier) {
      std::vector<Token> context(committed);
      const std::vector<Token> path = tree.PathTokens(node);
      context.insert(context.end(), path.begin(), path.end());
      draft.target().Draw(stream, context, tree.AttachTargetDraw(node, draft.target(), stream));
      const SparseDist dist = draft.NextDist(stream, context);
      for (size_t i = 0; i < std::min(static_cast<size_t>(k), dist.size()); ++i) {
        next.push_back(tree.AddNode(node, dist.entry(i).token, dist.entry(i).prob));
      }
    }
    frontier = std::move(next);
  }
  return tree;
}

TEST(StaticTreeEquivalence, MatchesWholeDistributionTree) {
  // Shapes include a level wider than the inline head and one wider than
  // the draft mixture's whole support.
  const std::vector<std::vector<int>> shapes = {{3, 2, 1}, {1, 1, 1, 1}, {4, 2}, {2, 2, 2}, {9},
                                                {60, 1}};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    const Experiment exp(setup);
    for (uint64_t stream = 0; stream < 8; ++stream) {
      const std::vector<Token> committed = {static_cast<Token>(100 + stream), 7};
      for (const std::vector<int>& shape : shapes) {
        SCOPED_TRACE(testing::Message() << setup.label << " stream=" << stream
                                        << " levels=" << shape.size() << " k0=" << shape[0]);
        ExpectSameTree(BuildStaticTree(exp.draft(), stream, committed, shape),
                       ReferenceBuildStaticTree(exp.draft(), stream, committed, shape),
                       exp.target(), stream);
      }
    }
  }
}

// Rebuilding into storage last used for a larger tree, on a longer
// context, for another stream and another model gives the fresh build.
TEST(StaticTreeEquivalence, RebuildIntoUsedStorageMatchesFreshBuild) {
  const std::vector<std::vector<int>> shapes = {{3, 2, 1}, {1, 1, 1, 1}, {4, 2}, {2, 2, 2}, {9},
                                                {60, 1}};
  const Experiment other(TestSetup());
  const std::vector<Token> longer(64, 3);
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    const Experiment exp(setup);
    for (uint64_t stream = 0; stream < 8; ++stream) {
      const std::vector<Token> committed = {static_cast<Token>(100 + stream), 7};
      for (const std::vector<int>& shape : shapes) {
        SCOPED_TRACE(testing::Message() << setup.label << " stream=" << stream
                                        << " levels=" << shape.size() << " k0=" << shape[0]);
        BuildStaticTree(other.draft(), stream + 1, longer, {5, 4, 2}, scratch, tree);
        BuildStaticTree(exp.draft(), stream, committed, shape, scratch, tree);
        ExpectSameTree(tree, BuildStaticTree(exp.draft(), stream, committed, shape), exp.target(),
                       stream);
      }
    }
  }
}

}  // namespace
}  // namespace adaserve
