#include "src/spec/beam_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/baselines/static_tree_spec.h"
#include "src/harness/experiment.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

// The branching of a k-token chain: a static tree with one child per level.
std::vector<int> Chain(int k) { return std::vector<int>(static_cast<size_t>(k), 1); }

LmConfig TestLmConfig() {
  LmConfig config;
  config.vocab_size = 500;
  config.support = 6;
  config.context_order = 2;
  config.zipf_exponent = 2.0;
  config.seed = 11;
  return config;
}

struct Models {
  SyntheticLm target;
  DraftLm draft;
  Models() : target(TestLmConfig()), draft(&target, DraftConfig{.fidelity = 0.9}) {}
};

TEST(BeamSearch, TreeShapeMatchesTheorem) {
  // After d steps with width w, the candidate tree has 1 + w*d nodes and
  // depth <= d (§4.3 Step 1).
  Models m;
  const std::vector<Token> ctx = {1, 2, 3};
  for (int d : {1, 2, 4}) {
    for (int w : {1, 2, 4}) {
      const TokenTree tree =
          BuildCandidateTree(m.draft, 7, ctx, BeamConfig{.depth = d, .width = w});
      EXPECT_EQ(tree.size(), 1 + w * d) << "d=" << d << " w=" << w;
      EXPECT_LE(tree.MaxDepth(), d);
    }
  }
}

TEST(BeamSearch, EachLayerHasWidthNodes) {
  Models m;
  const std::vector<Token> ctx = {5};
  const TokenTree tree = BuildCandidateTree(m.draft, 3, ctx, BeamConfig{.depth = 3, .width = 2});
  std::map<int, int> per_depth;
  for (NodeId id = 1; id < tree.size(); ++id) {
    ++per_depth[tree.node(id).depth];
  }
  int total = 0;
  for (const auto& [depth, count] : per_depth) {
    EXPECT_LE(count, 2);
    total += count;
  }
  EXPECT_EQ(total, 6);
}

TEST(BeamSearch, RootAnchorsOnLastCommittedToken) {
  Models m;
  const std::vector<Token> ctx = {1, 2, 99};
  const TokenTree tree = BuildCandidateTree(m.draft, 7, ctx, BeamConfig{.depth = 1, .width = 1});
  EXPECT_EQ(tree.node(kRootNode).token, 99);
}

TEST(BeamSearch, EmptyContextUsesSentinelRoot) {
  Models m;
  const TokenTree tree = BuildCandidateTree(m.draft, 7, {}, BeamConfig{.depth = 1, .width = 1});
  EXPECT_EQ(tree.node(kRootNode).token, kInvalidToken);
}

TEST(BeamSearch, Deterministic) {
  Models m;
  const std::vector<Token> ctx = {4, 5};
  const BeamConfig beam{.depth = 3, .width = 3};
  const TokenTree a = BuildCandidateTree(m.draft, 9, ctx, beam);
  const TokenTree b = BuildCandidateTree(m.draft, 9, ctx, beam);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.node(id).token, b.node(id).token);
    EXPECT_EQ(a.node(id).path_prob, b.node(id).path_prob);
  }
}

TEST(BeamSearch, WidthOneIsGreedyChain) {
  Models m;
  const std::vector<Token> ctx = {8};
  const TokenTree beam = BuildCandidateTree(m.draft, 2, ctx, BeamConfig{.depth = 4, .width = 1});
  const TokenTree chain = BuildStaticTree(m.draft, 2, ctx, Chain(4));
  ASSERT_EQ(beam.size(), chain.size());
  for (NodeId id = 1; id < beam.size(); ++id) {
    EXPECT_EQ(beam.node(id).token, chain.node(id).token);
  }
}

TEST(BeamSearch, KeptNodesDominateDiscardedSiblings) {
  // Every node kept at a step has path probability >= any extension of the
  // same step that was discarded. We verify a weaker but checkable form:
  // within a layer, kept nodes are the top-w extensions of the previous
  // frontier, so the minimum kept path prob at depth k is >= the prob of
  // any *other* child of the frontier. Checked by re-expanding manually.
  Models m;
  const std::vector<Token> ctx = {3, 1};
  const int w = 2;
  const TokenTree tree = BuildCandidateTree(m.draft, 5, ctx, BeamConfig{.depth = 2, .width = w});
  // Depth-1 kept nodes:
  std::vector<double> kept_probs;
  for (NodeId id = 1; id < tree.size(); ++id) {
    if (tree.node(id).depth == 1) {
      kept_probs.push_back(tree.node(id).path_prob);
    }
  }
  ASSERT_EQ(kept_probs.size(), static_cast<size_t>(w));
  const double min_kept = std::min(kept_probs[0], kept_probs[1]);
  // All root children in the draft distribution not kept must be <= min_kept.
  const SparseDist dist = m.draft.NextDist(5, ctx);
  int above = 0;
  for (const auto& e : dist.entries()) {
    if (e.prob > min_kept + 1e-12) {
      ++above;
    }
  }
  EXPECT_LE(above, w);
}

TEST(ChainTree, GreedyChainFollowsDraftArgmax) {
  Models m;
  std::vector<Token> ctx = {6, 7};
  const TokenTree chain = BuildStaticTree(m.draft, 4, ctx, Chain(3));
  ASSERT_EQ(chain.size(), 4);
  NodeId cur = kRootNode;
  for (int i = 0; i < 3; ++i) {
    const SparseDist dist = m.draft.NextDist(4, ctx);
    ASSERT_EQ(chain.node(cur).children.size(), 1u);
    cur = chain.node(cur).children[0];
    EXPECT_EQ(chain.node(cur).token, dist.ArgMax());
    ctx.push_back(dist.ArgMax());
  }
}

TEST(ChainTree, CondProbsMatchDraft) {
  Models m;
  const std::vector<Token> ctx = {6, 7};
  const TokenTree chain = BuildStaticTree(m.draft, 4, ctx, Chain(1));
  const SparseDist dist = m.draft.NextDist(4, ctx);
  EXPECT_NEAR(chain.node(1).cond_prob, dist.ProbOf(dist.ArgMax()), 1e-12);
}

// Theorem 4.1 (spot check): the depth-D optimal tree is contained in a
// depth-D beam with sufficiently large width. We check that the w best
// depth-1 nodes of a wide beam all appear in any wider beam.
class BeamNestingSweep : public ::testing::TestWithParam<int> {};

TEST_P(BeamNestingSweep, NarrowBeamNodesAppearInWiderBeam) {
  Models m;
  const std::vector<Token> ctx = {static_cast<Token>(GetParam())};
  const TokenTree narrow =
      BuildCandidateTree(m.draft, 1, ctx, BeamConfig{.depth = 2, .width = 2});
  const TokenTree wide = BuildCandidateTree(m.draft, 1, ctx, BeamConfig{.depth = 2, .width = 5});
  // Every (depth, token-path) in narrow must exist in wide.
  for (NodeId id = 1; id < narrow.size(); ++id) {
    const std::vector<Token> path = narrow.PathTokens(id);
    bool found = false;
    for (NodeId wid = 1; wid < wide.size(); ++wid) {
      if (wide.PathTokens(wid) == path) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "narrow-beam path missing from wide beam";
  }
}

INSTANTIATE_TEST_SUITE_P(Contexts, BeamNestingSweep, ::testing::Range(0, 8));

// The reference beam: every frontier node extends its whole draft
// distribution (and carries its target draw), and each step keeps
// the top `width` under the builder's order. BuildCandidateTree, which
// reads only draft heads, must build the same tree.
TokenTree ReferenceBuildCandidateTree(const DraftLm& draft, uint64_t stream,
                                      std::span<const Token> committed,
                                      const BeamConfig& config) {
  struct Extension {
    NodeId parent;
    Token token;
    double cond_prob;
    double path_prob;
  };
  TokenTree tree(committed.empty() ? kInvalidToken : committed.back());
  std::vector<NodeId> frontier = {kRootNode};
  for (int step = 0; step < config.depth && !frontier.empty(); ++step) {
    std::vector<Extension> extensions;
    for (NodeId node : frontier) {
      std::vector<Token> context(committed.begin(), committed.end());
      const std::vector<Token> path = tree.PathTokens(node);
      context.insert(context.end(), path.begin(), path.end());
      draft.target().Draw(stream, context, tree.AttachTargetDraw(node, draft.target(), stream));
      const SparseDist dist = draft.NextDist(stream, context);
      for (const auto& e : dist.entries()) {
        extensions.push_back({node, e.token, e.prob, tree.node(node).path_prob * e.prob});
      }
    }
    std::sort(extensions.begin(), extensions.end(), [](const Extension& a, const Extension& b) {
      if (a.path_prob != b.path_prob) {
        return a.path_prob > b.path_prob;
      }
      if (a.parent != b.parent) {
        return a.parent < b.parent;
      }
      return a.token < b.token;
    });
    extensions.resize(std::min(extensions.size(), static_cast<size_t>(config.width)));
    frontier.clear();
    for (const Extension& e : extensions) {
      frontier.push_back(tree.AddNode(e.parent, e.token, e.cond_prob));
    }
  }
  return tree;
}

// Each setup's draft, plus its target under a fully uninformed and a
// perfectly distilled draft (the pure-noise and pure-target heads).
class BuilderEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  BuilderEquivalence() : exp_(GetParam() ? LlamaSetup() : QwenSetup()) {
    for (double fidelity : {exp_.setup().draft_config.fidelity, 0.0, 1.0}) {
      DraftConfig config = exp_.setup().draft_config;
      config.fidelity = fidelity;
      drafts_.push_back(std::make_unique<DraftLm>(&exp_.target(), config));
    }
  }

  // A committed sequence per stream, of varying length.
  static std::vector<Token> Committed(uint64_t stream) {
    Rng rng(stream);
    std::vector<Token> committed(1 + stream % 7);
    for (Token& t : committed) {
      t = static_cast<Token>(rng.UniformInt(32000));
    }
    return committed;
  }

  Experiment exp_;
  std::vector<std::unique_ptr<DraftLm>> drafts_;
};

TEST_P(BuilderEquivalence, CandidateTreeMatchesWholeDistributionBeam) {
  for (const auto& draft : drafts_) {
    for (uint64_t stream = 0; stream < 12; ++stream) {
      const std::vector<Token> committed = Committed(stream);
      for (int width = 1; width <= 4; ++width) {
        for (int depth = 1; depth <= 8; ++depth) {
          SCOPED_TRACE(testing::Message() << "fidelity=" << draft->config().fidelity
                                          << " stream=" << stream << " w=" << width
                                          << " d=" << depth);
          const BeamConfig beam{.depth = depth, .width = width};
          ExpectSameTree(BuildCandidateTree(*draft, stream, committed, beam),
                         ReferenceBuildCandidateTree(*draft, stream, committed, beam),
                         exp_.target(), stream);
        }
      }
    }
  }
}

TEST_P(BuilderEquivalence, ChainTreeMatchesWholeDistributionChain) {
  for (const auto& draft : drafts_) {
    for (uint64_t stream = 0; stream < 12; ++stream) {
      const std::vector<Token> committed = Committed(stream);
      SCOPED_TRACE(testing::Message() << "fidelity=" << draft->config().fidelity
                                      << " stream=" << stream);
      // The reference chain: the argmax of each whole draft distribution.
      TokenTree want(committed.back());
      std::vector<Token> context(committed);
      for (NodeId cur = kRootNode; cur < 6;) {
        exp_.target().Draw(stream, context, want.AttachTargetDraw(cur, exp_.target(), stream));
        const SparseDist::Entry top = draft->NextDist(stream, context).entry(0);
        cur = want.AddNode(cur, top.token, top.prob);
        context.push_back(top.token);
      }
      ExpectSameTree(BuildStaticTree(*draft, stream, committed, Chain(6)), want, exp_.target(),
                     stream);
    }
  }
}

// Rebuilding into a tree and scratch last used for a larger tree, on a
// longer context, for another stream and another model gives the fresh
// build node for node, attached target draws included.
TEST_P(BuilderEquivalence, RebuildIntoUsedStorageMatchesFreshBuild) {
  const Models other;
  const std::vector<Token> longer(64, 3);
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  for (const auto& draft : drafts_) {
    for (uint64_t stream = 0; stream < 12; ++stream) {
      const std::vector<Token> committed = Committed(stream);
      for (int width = 1; width <= 4; ++width) {
        for (int depth = 1; depth <= 8; ++depth) {
          SCOPED_TRACE(testing::Message() << "fidelity=" << draft->config().fidelity
                                          << " stream=" << stream << " w=" << width
                                          << " d=" << depth);
          const BeamConfig beam{.depth = depth, .width = width};
          BuildCandidateTree(other.draft, stream + 1, longer, BeamConfig{.depth = 9, .width = 5},
                             scratch, tree);
          BuildCandidateTree(*draft, stream, committed, beam, scratch, tree);
          ExpectSameTree(tree, BuildCandidateTree(*draft, stream, committed, beam), exp_.target(),
                         stream);
          BuildStaticTree(other.draft, stream + 1, longer, Chain(9), scratch, tree);
          BuildStaticTree(*draft, stream, committed, Chain(depth), scratch, tree);
          ExpectSameTree(tree, BuildStaticTree(*draft, stream, committed, Chain(depth)),
                         exp_.target(), stream);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Setups, BuilderEquivalence, ::testing::Bool(),
                         [](const auto& info) { return info.param ? "Llama" : "Qwen"; });

// A near-uniform model: every support weight is 1 within an ulp or two, so
// a node's draft probabilities are equal or adjacent doubles, and their
// products with a 1/5-ish path probability often round to one double. The
// whole-distribution beam then keeps entries past their node's top w
// (the test counts them), and ties at the cut run past the top w + 1.
TEST(BeamTies, PathProductTiesAtTheCutMatchWholeDistributionBeam) {
  const SyntheticLm target(LmConfig{.vocab_size = 500,
                                    .context_order = 2,
                                    .support = 5,
                                    .zipf_exponent = 0.0,
                                    .weight_jitter = 3e-16,
                                    .seed = 5});
  const DraftLm draft(&target, DraftConfig{.fidelity = 1.0});
  int past_top_w = 0;
  for (uint64_t stream = 0; stream < 16; ++stream) {
    const std::vector<Token> committed = {static_cast<Token>(stream), 3};
    for (int width = 1; width <= 4; ++width) {
      SCOPED_TRACE(testing::Message() << "stream=" << stream << " w=" << width);
      const BeamConfig beam{.depth = 4, .width = width};
      const TokenTree want = ReferenceBuildCandidateTree(draft, stream, committed, beam);
      ExpectSameTree(BuildCandidateTree(draft, stream, committed, beam), want, target, stream);
      for (NodeId id = 1; id < want.size(); ++id) {
        std::vector<Token> context(committed);
        const std::vector<Token> path = want.PathTokens(want.node(id).parent);
        context.insert(context.end(), path.begin(), path.end());
        const SparseDist dist = draft.NextDist(stream, context);
        size_t rank = 0;
        while (dist.entry(rank).token != want.node(id).token) {
          ++rank;
        }
        past_top_w += rank >= static_cast<size_t>(width) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(past_top_w, 0);
}

// Two adjacent doubles whose products with `parent_path` round to one
// double: a tie the beam's order breaks by token.
TEST(ExtensionCut, PathProductTieAtTheCutExtendsIt) {
  constexpr double kParentPath = 0.75;
  double lo = 0.4;
  double hi = std::nextafter(lo, 1.0);
  while (kParentPath * hi != kParentPath * lo) {
    lo = hi;
    hi = std::nextafter(lo, 1.0);
  }
  // The draft head ranks token 9 (higher prob) ahead of token 3, but their
  // path products tie, so the step ranks token 3 first: a width-1 step
  // must see both.
  const std::vector<SparseDist::Entry> head = {{9, hi}, {3, lo}, {4, 0.1}};
  EXPECT_EQ(ExtensionCut(head, kParentPath, 1), 2u);
  EXPECT_EQ(ExtensionCut(head, kParentPath, 2), 2u);
  EXPECT_EQ(ExtensionCut(head, kParentPath, 3), 3u);
  EXPECT_EQ(ExtensionCut(head, kParentPath, 5), 3u);
  // At path probability 1 the products are the probabilities: no tie.
  EXPECT_EQ(ExtensionCut(head, 1.0, 1), 1u);
}

// Expanding a node twice reuses its attached target draw, and
// each head is the prefix of the draft's whole distribution.
TEST(ExpandNode, ReexpansionReusesTargetDraw) {
  Models m;
  const std::vector<Token> committed = {4, 9};
  std::vector<Token> context(committed);
  TokenTree tree(committed.back());
  const SparseDist whole = m.draft.NextDist(3, committed);
  const DistHead two = ExpandNode(m.draft, 3, kRootNode, 2, context, tree);
  const DistHead all = ExpandNode(m.draft, 3, kRootNode, kWholeDist, context, tree);
  EXPECT_EQ(context, committed);
  ASSERT_EQ(two.size(), 2u);
  ASSERT_EQ(all.size(), whole.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(all[i].token, whole.entry(i).token);
    EXPECT_TRUE(SameBits(all[i].prob, whole.entry(i).prob));
    if (i < two.size()) {
      EXPECT_EQ(two[i].token, whole.entry(i).token);
      EXPECT_TRUE(SameBits(two[i].prob, whole.entry(i).prob));
    }
  }
  // Drawn and ranked once, for the first head and the verifier's sampler.
  const SupportDraw* attached = tree.TargetDraw(kRootNode, m.target, 3);
  ASSERT_NE(attached, nullptr);
  EXPECT_EQ(attached->reach, kSampleHead);
  SupportDraw want;
  m.target.Draw(3, committed, want);
  EXPECT_TRUE(std::ranges::equal(attached->tokens, want.tokens));
}

}  // namespace
}  // namespace adaserve
