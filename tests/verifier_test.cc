#include "src/spec/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/baselines/static_tree_spec.h"
#include "src/harness/experiment.h"
#include "src/model/draft_lm.h"
#include "src/spec/beam_search.h"

namespace adaserve {
namespace {

LmConfig TestLmConfig(uint64_t seed = 21) {
  LmConfig config;
  config.vocab_size = 200;
  config.support = 5;
  config.context_order = 2;
  config.zipf_exponent = 1.5;
  config.seed = seed;
  return config;
}

struct Models {
  SyntheticLm target;
  DraftLm draft;
  explicit Models(double fidelity = 0.9)
      : target(TestLmConfig()), draft(&target, DraftConfig{.fidelity = fidelity}) {}
};

TEST(Verifier, GreedyAcceptsExactlyTheArgmaxChain) {
  Models m;
  std::vector<Token> ctx = {1, 2};
  // Build the target's own greedy chain as the draft tree: greedy
  // verification must accept all of it.
  TokenTree tree(ctx.back());
  std::vector<Token> walk = ctx;
  NodeId cur = kRootNode;
  for (int i = 0; i < 4; ++i) {
    const Token t = m.target.NextDist(3, walk).ArgMax();
    cur = tree.AddNode(cur, t, 0.9);
    walk.push_back(t);
  }
  Rng rng(1);
  const VerifyResult result = VerifyTree(m.target, 3, ctx, tree, {}, DecodeMode::kGreedy, rng);
  EXPECT_EQ(result.accepted.size(), 4u);
  EXPECT_EQ(result.TokensCommitted(), 5);
  // The bonus continues the argmax chain.
  EXPECT_EQ(result.bonus, m.target.NextDist(3, walk).ArgMax());
}

TEST(Verifier, GreedyRejectsWrongToken) {
  Models m;
  const std::vector<Token> ctx = {1, 2};
  const Token correct = m.target.NextDist(3, ctx).ArgMax();
  TokenTree tree(ctx.back());
  tree.AddNode(kRootNode, correct + 1, 0.9);  // deliberately wrong
  Rng rng(1);
  const VerifyResult result = VerifyTree(m.target, 3, ctx, tree, {}, DecodeMode::kGreedy, rng);
  EXPECT_TRUE(result.accepted.empty());
  EXPECT_EQ(result.bonus, correct);
  EXPECT_EQ(result.TokensCommitted(), 1);
}

TEST(Verifier, SelectionMaskRestrictsMatching) {
  Models m;
  const std::vector<Token> ctx = {1, 2};
  const Token correct = m.target.NextDist(3, ctx).ArgMax();
  TokenTree tree(ctx.back());
  const NodeId child = tree.AddNode(kRootNode, correct, 0.9);
  std::vector<char> selected(static_cast<size_t>(tree.size()), 0);
  selected[kRootNode] = 1;
  // Child not selected: even a correct token cannot be accepted.
  Rng rng(1);
  VerifyResult result = VerifyTree(m.target, 3, ctx, tree, selected, DecodeMode::kGreedy, rng);
  EXPECT_TRUE(result.accepted.empty());
  EXPECT_EQ(result.tokens_verified, 0);
  selected[static_cast<size_t>(child)] = 1;
  result = VerifyTree(m.target, 3, ctx, tree, selected, DecodeMode::kGreedy, rng);
  EXPECT_EQ(result.accepted.size(), 1u);
  EXPECT_EQ(result.tokens_verified, 1);
}

TEST(Verifier, BonusAlwaysPresent) {
  Models m;
  const std::vector<Token> ctx = {9};
  const TokenTree tree(ctx.back());  // no speculated tokens at all
  Rng rng(1);
  const VerifyResult result =
      VerifyTree(m.target, 3, ctx, tree, {}, DecodeMode::kStochastic, rng);
  EXPECT_NE(result.bonus, kInvalidToken);
  EXPECT_EQ(result.TokensCommitted(), 1);
}

TEST(Verifier, DecodeOneTokenMatchesTargetArgmaxInGreedy) {
  Models m;
  const std::vector<Token> ctx = {4, 4};
  Rng rng(1);
  EXPECT_EQ(DecodeOneToken(m.target, 2, ctx, DecodeMode::kGreedy, rng),
            m.target.NextDist(2, ctx).ArgMax());
}

// Losslessness (§2, DESIGN.md §4.2): the distribution of the next committed
// token under tree speculation equals the target distribution, because the
// verifier draws from the target at every node. Chi-square over many trials.
TEST(Verifier, LosslessnessFirstCommittedTokenDistribution) {
  Models m(/*fidelity=*/0.6);  // a mediocre draft must not bias outputs
  const std::vector<Token> ctx = {3, 7};
  const SparseDist target_dist = m.target.NextDist(5, ctx);
  const TokenTree tree = BuildCandidateTree(m.draft, 5, ctx, BeamConfig{.depth = 3, .width = 3});
  Rng rng(1234);
  std::map<Token, int> counts;
  constexpr int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) {
    const VerifyResult result =
        VerifyTree(m.target, 5, ctx, tree, {}, DecodeMode::kStochastic, rng);
    const Token first = result.accepted.empty() ? result.bonus : result.accepted.front();
    ++counts[first];
  }
  double chi2 = 0.0;
  for (const auto& e : target_dist.entries()) {
    const double expected = e.prob * kTrials;
    const double observed = counts[e.token];
    chi2 += (observed - expected) * (observed - expected) / expected;
  }
  // Support is 5 tokens => 4 dof; 99.9th percentile ~ 18.5. Use 30 to be
  // flake-proof while still catching bias.
  EXPECT_LT(chi2, 30.0);
}

// Theorem 3.1: E[acc(T)] = sum of true path probabilities f(v) over the
// tree, where f(v) is the product of target conditionals. Monte Carlo.
TEST(Verifier, ExpectedAcceptedMatchesSumOfPathProbs) {
  Models m;
  const std::vector<Token> ctx = {2, 8};
  const TokenTree tree = BuildCandidateTree(m.draft, 6, ctx, BeamConfig{.depth = 3, .width = 3});
  // True f(v) from the target model.
  double expected_sum = 0.0;
  for (NodeId id = 1; id < tree.size(); ++id) {
    std::vector<Token> walk = ctx;
    double f = 1.0;
    for (Token tok : tree.PathTokens(id)) {
      f *= m.target.NextDist(6, walk).ProbOf(tok);
      walk.push_back(tok);
    }
    expected_sum += f;
  }
  Rng rng(555);
  double acc_sum = 0.0;
  constexpr int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) {
    acc_sum += static_cast<double>(
        VerifyTree(m.target, 6, ctx, tree, {}, DecodeMode::kStochastic, rng).accepted.size());
  }
  EXPECT_NEAR(acc_sum / kTrials, expected_sum, 0.05);
}

// Acceptance monotonicity: better drafts yield (weakly) more acceptance.
class FidelityAcceptanceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FidelityAcceptanceSweep, HigherFidelityAcceptsMore) {
  Models good(0.95);
  Models poor(0.2);
  const std::vector<Token> ctx = {static_cast<Token>(GetParam()), 1};
  const TokenTree good_tree =
      BuildCandidateTree(good.draft, GetParam(), ctx, BeamConfig{.depth = 4, .width = 2});
  const TokenTree poor_tree =
      BuildCandidateTree(poor.draft, GetParam(), ctx, BeamConfig{.depth = 4, .width = 2});
  Rng rng(GetParam() + 1);
  double good_acc = 0.0;
  double poor_acc = 0.0;
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    good_acc += static_cast<double>(
        VerifyTree(good.target, GetParam(), ctx, good_tree, {}, DecodeMode::kStochastic, rng)
            .accepted.size());
    poor_acc += static_cast<double>(
        VerifyTree(poor.target, GetParam(), ctx, poor_tree, {}, DecodeMode::kStochastic, rng)
            .accepted.size());
  }
  EXPECT_GE(good_acc, poor_acc) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FidelityAcceptanceSweep, ::testing::Range<uint64_t>(0, 6));

// --- Reuse of the target draws the tree builders attach ---

// One tree of each kind, all over the same request: a beam candidate tree,
// vLLM-Spec's chain (an all-ones static tree) and a static tree.
std::vector<std::pair<const char*, TokenTree>> BuilderTrees(const DraftLm& draft, uint64_t stream,
                                                            const std::vector<Token>& ctx) {
  std::vector<std::pair<const char*, TokenTree>> trees;
  trees.emplace_back("candidate",
                     BuildCandidateTree(draft, stream, ctx, BeamConfig{.depth = 4, .width = 3}));
  trees.emplace_back("chain", BuildStaticTree(draft, stream, ctx, {1, 1, 1, 1}));
  trees.emplace_back("static", BuildStaticTree(draft, stream, ctx, {3, 2, 1}));
  return trees;
}

TokenTree WithoutTargetDraws(const TokenTree& tree) {
  TokenTree bare = tree;
  bare.ClearTargetDraws();
  return bare;
}

// Verifies `tree` and its bare copy from equal Rng states `trials` times
// and expects equal verdicts every time and equal Rng states at the end.
void ExpectSameVerdicts(const SyntheticLm& target, uint64_t stream, const std::vector<Token>& ctx,
                        const TokenTree& tree, DecodeMode mode, int trials) {
  const TokenTree bare = WithoutTargetDraws(tree);
  // Whole tree, and the top half by path probability.
  std::vector<char> half(static_cast<size_t>(tree.size()), 0);
  std::vector<NodeId> order;
  tree.NodesByPathProb(order);
  for (size_t i = 0; i < order.size() / 2; ++i) {
    half[static_cast<size_t>(order[i])] = 1;
  }
  for (const std::vector<char>& selected : {std::vector<char>{}, half}) {
    Rng reuse_rng(99);
    Rng recompute_rng(99);
    for (int i = 0; i < trials; ++i) {
      const VerifyResult reused = VerifyTree(target, stream, ctx, tree, selected, mode, reuse_rng);
      const VerifyResult recomputed =
          VerifyTree(target, stream, ctx, bare, selected, mode, recompute_rng);
      ASSERT_TRUE(std::ranges::equal(reused.accepted, recomputed.accepted)) << "trial " << i;
      ASSERT_EQ(reused.bonus, recomputed.bonus) << "trial " << i;
      ASSERT_EQ(reused.tokens_verified, recomputed.tokens_verified) << "trial " << i;
    }
    EXPECT_EQ(reuse_rng.NextU64(), recompute_rng.NextU64());
  }
}

// The test models, and the Llama setup's (a 24-token Zipf-3 support).
std::vector<std::pair<SyntheticLm, DraftConfig>> ReuseModels() {
  const Setup llama = LlamaSetup();
  return {{SyntheticLm(TestLmConfig()), DraftConfig{.fidelity = 0.9}},
          {SyntheticLm(llama.lm_config), llama.draft_config}};
}

// Every attached draw is the target's at its node, and the builder ranked
// it as far as the verifier's sampler reads, so verification ranks no
// node again.
TEST(VerifierReuse, AttachedDistributionsAreTheTargets) {
  for (const auto& [target, draft_config] : ReuseModels()) {
    const DraftLm draft(&target, draft_config);
    const std::vector<Token> ctx = {3, 1, 4};
    for (const auto& [builder, tree] : BuilderTrees(draft, 8, ctx)) {
      SCOPED_TRACE(builder);
      for (NodeId id = 0; id < tree.size(); ++id) {
        const SupportDraw* attached = tree.TargetDraw(id, target, 8);
        // Every expanded node carries one; the last layer was never expanded.
        if (!tree.node(id).children.empty()) {
          ASSERT_NE(attached, nullptr) << "node " << id;
        }
        if (tree.node(id).depth == tree.MaxDepth()) {
          EXPECT_EQ(attached, nullptr) << "node " << id;
        }
        if (attached == nullptr) {
          continue;
        }
        std::vector<Token> context = ctx;
        for (Token t : tree.PathTokens(id)) {
          context.push_back(t);
        }
        EXPECT_GE(attached->reach, kSampleHead) << "node " << id;
        const SparseDist want = target.NextDist(8, context);
        const SparseDist got = SparseDist::FromWeights(attached->tokens, attached->weights);
        ASSERT_EQ(got.size(), want.size()) << "node " << id;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got.entry(i).token, want.entry(i).token);
          EXPECT_EQ(std::memcmp(&got.entry(i).prob, &want.entry(i).prob, sizeof(double)), 0);
        }
      }
    }
  }
}

class VerifierReuseSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifierReuseSweep, ReuseGivesTheSameVerdictsAndRngState) {
  for (const auto& [target, draft_config] : ReuseModels()) {
    const DraftLm draft(&target, draft_config);
    const std::vector<Token> ctx = {static_cast<Token>(GetParam()), 2, 7};
    for (const auto& [builder, tree] : BuilderTrees(draft, GetParam(), ctx)) {
      for (DecodeMode mode : {DecodeMode::kGreedy, DecodeMode::kStochastic}) {
        SCOPED_TRACE(testing::Message() << builder << " mode=" << static_cast<int>(mode));
        ExpectSameVerdicts(target, GetParam(), ctx, tree, mode, /*trials=*/200);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierReuseSweep, ::testing::Range<uint64_t>(0, 4));

TEST(VerifierReuse, OtherModelOrStreamIsRecomputed) {
  Models m;
  const SyntheticLm other(TestLmConfig(/*seed=*/22));
  const std::vector<Token> ctx = {5, 6};
  for (const auto& [builder, tree] : BuilderTrees(m.draft, 3, ctx)) {
    SCOPED_TRACE(builder);
    ASSERT_NE(tree.TargetDraw(kRootNode, m.target, 3), nullptr);
    for (NodeId id = 0; id < tree.size(); ++id) {
      EXPECT_EQ(tree.TargetDraw(id, other, 3), nullptr);
      EXPECT_EQ(tree.TargetDraw(id, m.target, 4), nullptr);
    }
    // Verifying against another model (or stream) must draw from that
    // model, exactly as a tree without attached distributions does.
    for (DecodeMode mode : {DecodeMode::kGreedy, DecodeMode::kStochastic}) {
      ExpectSameVerdicts(other, 3, ctx, tree, mode, /*trials=*/200);
      ExpectSameVerdicts(m.target, 4, ctx, tree, mode, /*trials=*/200);
    }
  }
}

}  // namespace
}  // namespace adaserve
