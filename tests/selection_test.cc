#include "src/core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace adaserve {
namespace {

// Builds a fixed tree:
//   root -> a(0.8) -> c(0.8*0.7=0.56)
//        -> b(0.3) -> d(0.3*0.5=0.15)
TokenTree MakeTree() {
  TokenTree tree(0);
  const NodeId a = tree.AddNode(kRootNode, 10, 0.8);
  const NodeId b = tree.AddNode(kRootNode, 11, 0.3);
  tree.AddNode(a, 12, 0.7);
  tree.AddNode(b, 13, 0.5);
  return tree;
}

TEST(Selection, SloPhaseStopsAtACap) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 1.7};
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), {});
  const int used = selector.SloPhase(100);
  // n_acc starts at 1.0; adding a (0.8) reaches 1.8 >= 1.7 => one token.
  EXPECT_EQ(used, 1);
  EXPECT_NEAR(selector.result().expected[0], 1.8, 1e-12);
  EXPECT_TRUE(selector.result().all_slo_met);
}

TEST(Selection, SloPhaseTakesNodesInDescendingPathProb) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 2.5};
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), {});
  selector.SloPhase(100);
  // Order: a(0.8), c(0.56), b(0.3) => 1 + 0.8 + 0.56 = 2.36 < 2.5, add b
  // => 2.66 >= 2.5. Selected: a, c, b but not d.
  const SelectionResult& result = selector.result();
  EXPECT_EQ(result.taken[0], 3);
  EXPECT_TRUE(result.selected[0][1]);  // a
  EXPECT_TRUE(result.selected[0][3]);  // c
  EXPECT_TRUE(result.selected[0][2]);  // b
  EXPECT_FALSE(result.selected[0][4]);  // d
}

TEST(Selection, NMaxCapsSloPhase) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 10.0};
  SelectionConfig config;
  config.n_max = 2;
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), config);
  const int used = selector.SloPhase(100);
  EXPECT_EQ(used, 2);
  EXPECT_FALSE(selector.result().all_slo_met);
}

TEST(Selection, BudgetCapsSloPhase) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 10.0};
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), {});
  const int used = selector.SloPhase(1);
  EXPECT_EQ(used, 1);
  EXPECT_EQ(selector.result().taken[0], 1);
}

TEST(Selection, ScarcityPrioritisesLargerACap) {
  const TokenTree t1 = MakeTree();
  const TokenTree t2 = MakeTree();
  std::vector<SelectionRequest> reqs = {{.tree = &t1, .a_cap = 1.5},
                                        {.tree = &t2, .a_cap = 3.0}};
  TokenSelector selector(reqs, {});
  selector.SloPhase(1);  // only one token available
  // Request 1 (a_cap 3.0) is served first.
  EXPECT_EQ(selector.result().taken[1], 1);
  EXPECT_EQ(selector.result().taken[0], 0);
}

TEST(Selection, ACapAtOrBelowOneNeedsNothing) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 1.0};
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), {});
  EXPECT_EQ(selector.SloPhase(100), 0);
  EXPECT_TRUE(selector.result().all_slo_met);
}

TEST(Selection, ThroughputPhasePicksGlobalBest) {
  // Tree 2's best candidate (0.9) beats tree 1's (0.8).
  TokenTree t1(0);
  t1.AddNode(kRootNode, 1, 0.8);
  TokenTree t2(0);
  t2.AddNode(kRootNode, 2, 0.9);
  std::vector<SelectionRequest> reqs = {{.tree = &t1, .a_cap = 0.0},
                                        {.tree = &t2, .a_cap = 0.0}};
  TokenSelector selector(reqs, {});
  selector.ThroughputPhase(1);
  EXPECT_EQ(selector.result().taken[0], 0);
  EXPECT_EQ(selector.result().taken[1], 1);
}

TEST(Selection, ThroughputPhaseIgnoresNMax) {
  // n_max binds only the SLO-customized phase (Algorithm 2).
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 0.0};
  SelectionConfig config;
  config.n_max = 1;
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), config);
  EXPECT_EQ(selector.ThroughputPhase(4), 4);
}

TEST(Selection, ExhaustsTreesGracefully) {
  const TokenTree tree = MakeTree();  // 4 candidates
  const SelectionRequest req{.tree = &tree, .a_cap = 0.0};
  TokenSelector selector(std::span<const SelectionRequest>(&req, 1), {});
  EXPECT_EQ(selector.ThroughputPhase(100), 4);
}

TEST(Selection, SelectTokensComposesBothPhases) {
  const TokenTree t1 = MakeTree();
  const TokenTree t2 = MakeTree();
  std::vector<SelectionRequest> reqs = {{.tree = &t1, .a_cap = 1.7},
                                        {.tree = &t2, .a_cap = 1.0}};
  const SelectionResult result = SelectTokens(reqs, 3);
  EXPECT_EQ(result.total_taken, 3);
  // Request 0: SLO phase takes a (0.8). Throughput phase then picks the two
  // globally best remaining: t2's a (0.8), then c from either (0.56; tie
  // broken by request order).
  EXPECT_GE(result.taken[0], 1);
  EXPECT_GE(result.taken[1], 1);
}

TEST(Selection, ResultMasksAreConnected) {
  Rng rng(3);
  // Random trees + random requirements: masks must always be connected.
  for (int trial = 0; trial < 20; ++trial) {
    TokenTree tree(0);
    for (int i = 0; i < 30; ++i) {
      const NodeId parent =
          static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(tree.size())));
      tree.AddNode(parent, static_cast<Token>(i), 0.05 + 0.9 * rng.Uniform());
    }
    const SelectionRequest req{.tree = &tree, .a_cap = 1.0 + 3.0 * rng.Uniform()};
    const SelectionResult result = SelectTokens(std::span<const SelectionRequest>(&req, 1),
                                                static_cast<int>(rng.UniformInt(20)));
    EXPECT_TRUE(tree.IsConnectedSelection(result.selected[0])) << "trial " << trial;
  }
}

TEST(Selection, ExpectedEqualsOnePlusSumOfSelectedPathProbs) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 5.0};
  const SelectionResult result = SelectTokens(std::span<const SelectionRequest>(&req, 1), 4);
  double sum = 1.0;
  for (NodeId id = 1; id < tree.size(); ++id) {
    if (result.selected[0][static_cast<size_t>(id)]) {
      sum += tree.node(id).path_prob;
    }
  }
  EXPECT_NEAR(result.expected[0], sum, 1e-12);
}

TEST(Selection, ZeroBudgetSelectsNothing) {
  const TokenTree tree = MakeTree();
  const SelectionRequest req{.tree = &tree, .a_cap = 3.0};
  const SelectionResult result = SelectTokens(std::span<const SelectionRequest>(&req, 1), 0);
  EXPECT_EQ(result.total_taken, 0);
  EXPECT_FALSE(result.all_slo_met);
}

TEST(Selection, EmptyRequestListIsFine) {
  const SelectionResult result = SelectTokens({}, 10);
  EXPECT_EQ(result.total_taken, 0);
  EXPECT_TRUE(result.all_slo_met);
}

// A random tree of up to `max_nodes` speculated tokens.
TokenTree RandomTree(Rng& rng, int max_nodes) {
  TokenTree tree(0);
  const int nodes = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(max_nodes) + 1));
  for (int j = 0; j < nodes; ++j) {
    const NodeId parent = static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(tree.size())));
    tree.AddNode(parent, static_cast<Token>(j), 0.05 + 0.9 * rng.Uniform());
  }
  return tree;
}

void ExpectSameResult(const SelectionResult& got, const SelectionResult& want) {
  EXPECT_EQ(got.selected, want.selected);
  ASSERT_EQ(got.expected.size(), want.expected.size());
  for (size_t i = 0; i < want.expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.expected[i], &want.expected[i], sizeof(double)), 0) << i;
  }
  EXPECT_EQ(got.taken, want.taken);
  EXPECT_EQ(got.total_taken, want.total_taken);
  EXPECT_EQ(got.all_slo_met, want.all_slo_met);
}

// One selector Reset for batches that shrink, grow, empty and refill, over
// trees of different sizes, selects exactly what a fresh selector does.
TEST(Selection, ResetSelectorMatchesFreshSelector) {
  Rng rng(17);
  const SelectionConfig config{.n_max = 6};
  TokenSelector reused(config);
  for (int batch : {5, 2, 9, 0, 3, 9, 1, 12, 4}) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    std::vector<TokenTree> trees;
    for (int i = 0; i < batch; ++i) {
      trees.push_back(RandomTree(rng, 30));
    }
    std::vector<SelectionRequest> reqs;
    for (const TokenTree& tree : trees) {
      // Few distinct requirements, so some tie.
      reqs.push_back({.tree = &tree, .a_cap = 1.0 + 0.5 * static_cast<double>(rng.UniformInt(5))});
    }
    const int slo_budget = static_cast<int>(rng.UniformInt(40));
    const int throughput_budget = static_cast<int>(rng.UniformInt(40));
    TokenSelector fresh(reqs, config);
    reused.Reset(reqs);
    EXPECT_EQ(reused.SloPhase(slo_budget), fresh.SloPhase(slo_budget));
    EXPECT_EQ(reused.ThroughputPhase(throughput_budget), fresh.ThroughputPhase(throughput_budget));
    ExpectSameResult(reused.result(), fresh.result());
  }
}

// Scarce budget goes to requests in descending A_cap order, ties in batch
// order: the order std::stable_sort gives. Chains of equal conditionals
// make each request's need a function of its A_cap alone. The batch is
// larger than the sort's insertion-sort cutoff, so an unbroken tie would
// show.
TEST(Selection, SloPhaseBreaksACapTiesByBatchOrder) {
  std::vector<double> a_caps;
  for (int i = 0; i < 48; ++i) {
    a_caps.push_back(std::vector<double>{2.0, 3.0, 2.0, 3.0, 1.5, 3.0, 2.0, 1.5}[i % 8]);
  }
  std::vector<TokenTree> chains;
  for (size_t i = 0; i < a_caps.size(); ++i) {
    TokenTree chain(0);
    for (NodeId cur = kRootNode; cur < 8;) {
      cur = chain.AddNode(cur, static_cast<Token>(cur), 0.9);
    }
    chains.push_back(std::move(chain));
  }
  std::vector<SelectionRequest> reqs;
  for (size_t i = 0; i < a_caps.size(); ++i) {
    reqs.push_back({.tree = &chains[i], .a_cap = a_caps[i]});
  }
  // Tokens each request needs: 1 + 0.9 + 0.81 + ... reaches A_cap.
  std::vector<int> need;
  for (double a_cap : a_caps) {
    double expected = 1.0;
    int n = 0;
    for (double p = 0.9; expected < a_cap; p *= 0.9) {
      expected += p;
      ++n;
    }
    need.push_back(n);
  }
  std::vector<size_t> order(a_caps.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return a_caps[a] > a_caps[b]; });
  for (int budget = 0; budget <= 120; ++budget) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    std::vector<int> want(a_caps.size(), 0);
    int left = budget;
    for (size_t idx : order) {
      want[idx] = std::min(need[idx], left);
      left -= want[idx];
    }
    TokenSelector selector(reqs, {});
    selector.SloPhase(budget);
    EXPECT_EQ(selector.result().taken, want);
  }
}

// Budget-compliance property over random scenarios.
class SelectionBudgetSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectionBudgetSweep, NeverExceedsBudget) {
  Rng rng(GetParam());
  std::vector<TokenTree> trees;
  std::vector<SelectionRequest> reqs;
  const int n = 1 + static_cast<int>(rng.UniformInt(6));
  trees.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TokenTree tree(0);
    const int nodes = 1 + static_cast<int>(rng.UniformInt(25));
    for (int j = 0; j < nodes; ++j) {
      const NodeId parent =
          static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(tree.size())));
      tree.AddNode(parent, static_cast<Token>(j), 0.05 + 0.9 * rng.Uniform());
    }
    trees.push_back(std::move(tree));
  }
  for (int i = 0; i < n; ++i) {
    reqs.push_back({.tree = &trees[static_cast<size_t>(i)],
                    .a_cap = 1.0 + 2.0 * rng.Uniform()});
  }
  const int budget = static_cast<int>(rng.UniformInt(40));
  const SelectionResult result = SelectTokens(reqs, budget);
  EXPECT_LE(result.total_taken, budget);
  int taken_sum = 0;
  for (int t : result.taken) {
    taken_sum += t;
  }
  EXPECT_EQ(taken_sum, result.total_taken);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionBudgetSweep, ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace adaserve
