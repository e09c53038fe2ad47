#include "src/spec/token_tree.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace adaserve {
namespace {

TEST(TokenTree, RootOnlyConstruction) {
  const TokenTree tree(42);
  EXPECT_EQ(tree.size(), 1);
  EXPECT_EQ(tree.node(kRootNode).token, 42);
  EXPECT_EQ(tree.node(kRootNode).path_prob, 1.0);
  EXPECT_EQ(tree.MaxDepth(), 0);
}

TEST(TokenTree, PathProbIsProductOfConditionals) {
  TokenTree tree(0);
  const NodeId a = tree.AddNode(kRootNode, 1, 0.5);
  const NodeId b = tree.AddNode(a, 2, 0.4);
  EXPECT_DOUBLE_EQ(tree.node(a).path_prob, 0.5);
  EXPECT_DOUBLE_EQ(tree.node(b).path_prob, 0.2);
  EXPECT_EQ(tree.node(b).depth, 2);
}

TEST(TokenTree, ChildrenRecorded) {
  TokenTree tree(0);
  const NodeId a = tree.AddNode(kRootNode, 1, 0.5);
  const NodeId b = tree.AddNode(kRootNode, 2, 0.3);
  ASSERT_EQ(tree.node(kRootNode).children.size(), 2u);
  EXPECT_EQ(tree.node(kRootNode).children[0], a);
  EXPECT_EQ(tree.node(kRootNode).children[1], b);
}

TEST(TokenTree, PathTokensExcludesRoot) {
  TokenTree tree(9);
  const NodeId a = tree.AddNode(kRootNode, 1, 0.5);
  const NodeId b = tree.AddNode(a, 2, 0.5);
  const std::vector<Token> path = tree.PathTokens(b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 1);
  EXPECT_EQ(path[1], 2);
  EXPECT_TRUE(tree.PathTokens(kRootNode).empty());
}

TEST(TokenTree, SumPathProbSkipsRoot) {
  TokenTree tree(0);
  const NodeId a = tree.AddNode(kRootNode, 1, 0.5);
  const NodeId b = tree.AddNode(a, 2, 0.4);
  EXPECT_DOUBLE_EQ(tree.SumPathProb({kRootNode, a, b}), 0.7);
}

TEST(TokenTree, NodesByPathProbDescending) {
  TokenTree tree(0);
  tree.AddNode(kRootNode, 1, 0.3);
  const NodeId b = tree.AddNode(kRootNode, 2, 0.6);
  tree.AddNode(b, 3, 0.5);  // path prob 0.3
  std::vector<NodeId> order = {7, 8, 9, 10, 11};  // Replaced, not appended to.
  tree.NodesByPathProb(order);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], b);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(tree.node(order[i - 1]).path_prob, tree.node(order[i]).path_prob);
  }
}

TEST(TokenTree, ConnectedSelectionDetection) {
  TokenTree tree(0);
  const NodeId a = tree.AddNode(kRootNode, 1, 0.5);
  const NodeId b = tree.AddNode(a, 2, 0.5);
  std::vector<char> selected(3, 0);
  selected[kRootNode] = 1;
  selected[static_cast<size_t>(b)] = 1;  // child without its parent
  EXPECT_FALSE(tree.IsConnectedSelection(selected));
  selected[static_cast<size_t>(a)] = 1;
  EXPECT_TRUE(tree.IsConnectedSelection(selected));
}

TEST(TokenTree, EmptySelectionOfRootIsConnected) {
  TokenTree tree(0);
  tree.AddNode(kRootNode, 1, 0.5);
  std::vector<char> selected(2, 0);
  selected[kRootNode] = 1;
  EXPECT_TRUE(tree.IsConnectedSelection(selected));
}

// Appendix B property: any prefix of the descending-path-probability order
// is a connected subtree, for random trees.
class ConnectivityPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConnectivityPropertySweep, GreedyPrefixAlwaysConnected) {
  Rng rng(GetParam());
  TokenTree tree(0);
  // Grow a random tree of 60 nodes with random conditionals.
  for (int i = 0; i < 60; ++i) {
    const NodeId parent = static_cast<NodeId>(rng.UniformInt(static_cast<uint64_t>(tree.size())));
    tree.AddNode(parent, static_cast<Token>(i), 0.05 + 0.9 * rng.Uniform());
  }
  std::vector<NodeId> order;
  tree.NodesByPathProb(order);
  std::vector<char> selected(static_cast<size_t>(tree.size()), 0);
  selected[kRootNode] = 1;
  for (NodeId id : order) {
    selected[static_cast<size_t>(id)] = 1;
    EXPECT_TRUE(tree.IsConnectedSelection(selected))
        << "prefix ending at node " << id << " disconnected (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectivityPropertySweep, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace adaserve
