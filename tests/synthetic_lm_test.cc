#include "src/model/synthetic_lm.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/model/draft_lm.h"
#include "src/model/sampler.h"

namespace adaserve {
namespace {

LmConfig SmallConfig() {
  LmConfig config;
  config.vocab_size = 1000;
  config.support = 8;
  config.context_order = 2;
  config.zipf_exponent = 2.0;
  config.seed = 5;
  return config;
}

TEST(SyntheticLm, DeterministicForSameContext) {
  const SyntheticLm lm(SmallConfig());
  const std::vector<Token> ctx = {1, 2, 3};
  const SparseDist a = lm.NextDist(7, ctx);
  const SparseDist b = lm.NextDist(7, ctx);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).token, b.entry(i).token);
    EXPECT_EQ(a.entry(i).prob, b.entry(i).prob);
  }
}

TEST(SyntheticLm, StreamsAreIndependent) {
  const SyntheticLm lm(SmallConfig());
  const std::vector<Token> ctx = {1, 2, 3};
  const SparseDist a = lm.NextDist(7, ctx);
  const SparseDist b = lm.NextDist(8, ctx);
  EXPECT_NE(a.ArgMax(), b.ArgMax());
}

TEST(SyntheticLm, ContextChangesDistribution) {
  const SyntheticLm lm(SmallConfig());
  const SparseDist a = lm.NextDist(7, std::vector<Token>{1, 2});
  const SparseDist b = lm.NextDist(7, std::vector<Token>{1, 3});
  EXPECT_NE(a.ArgMax(), b.ArgMax());
}

TEST(SyntheticLm, OnlyTrailingWindowMatters) {
  LmConfig config = SmallConfig();
  config.context_order = 2;
  const SyntheticLm lm(config);
  const SparseDist a = lm.NextDist(7, std::vector<Token>{9, 9, 1, 2});
  const SparseDist b = lm.NextDist(7, std::vector<Token>{5, 5, 1, 2});
  EXPECT_EQ(a.ArgMax(), b.ArgMax());
  EXPECT_EQ(a.entry(0).prob, b.entry(0).prob);
}

// A context and a suffix give the distribution of their concatenation,
// bit for bit, whichever of them the trailing window falls in.
TEST(SyntheticLm, ContextPlusSuffixMatchesConcatenation) {
  for (int order : {1, 2, 3, 9}) {
    LmConfig config = SmallConfig();
    config.context_order = order;
    const SyntheticLm lm(config);
    for (size_t context_len = 0; context_len <= 12; ++context_len) {
      for (size_t suffix_len = 0; suffix_len <= 12; ++suffix_len) {
        std::vector<Token> context;
        std::vector<Token> suffix;
        for (size_t i = 0; i < context_len; ++i) {
          context.push_back(static_cast<Token>(10 + i));
        }
        for (size_t i = 0; i < suffix_len; ++i) {
          suffix.push_back(static_cast<Token>(500 + i));
        }
        std::vector<Token> whole = context;
        whole.insert(whole.end(), suffix.begin(), suffix.end());
        const SparseDist want = lm.NextDist(3, whole);
        const SparseDist got = lm.NextDist(3, context, suffix);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got.entry(i).token, want.entry(i).token);
          EXPECT_EQ(got.entry(i).prob, want.entry(i).prob)
              << "order=" << order << " context=" << context_len << " suffix=" << suffix_len;
        }
      }
    }
  }
}

TEST(SyntheticLm, TokensWithinVocab) {
  const SyntheticLm lm(SmallConfig());
  for (uint64_t s = 0; s < 20; ++s) {
    const SparseDist d = lm.NextDist(s, std::vector<Token>{static_cast<Token>(s)});
    for (const auto& e : d.entries()) {
      EXPECT_GE(e.token, 0);
      EXPECT_LT(e.token, 1000);
    }
  }
}

TEST(SyntheticLm, SupportSizeBounded) {
  const SyntheticLm lm(SmallConfig());
  const SparseDist d = lm.NextDist(1, std::vector<Token>{4});
  EXPECT_LE(d.size(), 8u);
  EXPECT_GE(d.size(), 1u);
}

TEST(SyntheticLm, HigherZipfLowersEntropy) {
  LmConfig flat = SmallConfig();
  flat.zipf_exponent = 0.5;
  LmConfig peaked = SmallConfig();
  peaked.zipf_exponent = 4.0;
  const SyntheticLm lm_flat(flat);
  const SyntheticLm lm_peaked(peaked);
  double h_flat = 0.0;
  double h_peaked = 0.0;
  for (uint64_t s = 0; s < 50; ++s) {
    const std::vector<Token> ctx = {static_cast<Token>(s)};
    h_flat += lm_flat.NextDist(s, ctx).Entropy();
    h_peaked += lm_peaked.NextDist(s, ctx).Entropy();
  }
  EXPECT_GT(h_flat, h_peaked);
}

TEST(SyntheticLm, DifferentModelSeedsAreUnrelated) {
  LmConfig a_config = SmallConfig();
  LmConfig b_config = SmallConfig();
  b_config.seed = 999;
  const SyntheticLm a(a_config);
  const SyntheticLm b(b_config);
  const std::vector<Token> ctx = {1, 2};
  EXPECT_NE(a.NextDist(7, ctx).ArgMax(), b.NextDist(7, ctx).ArgMax());
}

TEST(DraftLm, FullFidelityEqualsTarget) {
  const SyntheticLm target(SmallConfig());
  const DraftLm draft(&target, DraftConfig{.fidelity = 1.0});
  const std::vector<Token> ctx = {3, 4};
  const SparseDist t = target.NextDist(7, ctx);
  const SparseDist d = draft.NextDist(7, ctx);
  ASSERT_EQ(t.size(), d.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.entry(i).token, d.entry(i).token);
    EXPECT_NEAR(t.entry(i).prob, d.entry(i).prob, 1e-12);
  }
}

TEST(DraftLm, ZeroFidelityIgnoresTarget) {
  const SyntheticLm target(SmallConfig());
  const DraftLm draft(&target, DraftConfig{.fidelity = 0.0, .noise_seed = 123});
  const std::vector<Token> ctx = {3, 4};
  // The noise component has a different seed, so argmaxes should disagree
  // (with overwhelming probability over a 1000-token vocab).
  EXPECT_NE(target.NextDist(7, ctx).ArgMax(), draft.NextDist(7, ctx).ArgMax());
}

// The core assumption of §4.2 Challenge 1: draft probabilities approximate
// target acceptance probabilities, better with higher fidelity.
class FidelitySweep : public ::testing::TestWithParam<double> {};

TEST_P(FidelitySweep, AgreementGrowsWithFidelity) {
  const double alpha = GetParam();
  const SyntheticLm target(SmallConfig());
  const DraftLm draft(&target, DraftConfig{.fidelity = alpha});
  int agree = 0;
  constexpr int kContexts = 200;
  for (int i = 0; i < kContexts; ++i) {
    const std::vector<Token> ctx = {static_cast<Token>(i), static_cast<Token>(i * 7)};
    if (target.NextDist(3, ctx).ArgMax() == draft.NextDist(3, ctx).ArgMax()) {
      ++agree;
    }
  }
  const double rate = agree / static_cast<double>(kContexts);
  if (alpha >= 0.9) {
    EXPECT_GT(rate, 0.9);
  } else if (alpha >= 0.6) {
    EXPECT_GT(rate, 0.6);
  } else if (alpha <= 0.2) {
    EXPECT_LT(rate, 0.6);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, FidelitySweep, ::testing::Values(0.1, 0.2, 0.6, 0.9, 1.0));

TEST(Sampler, GreedyPicksArgmax) {
  const SparseDist d = SparseDist::FromWeights(std::vector<Token>{1, 2},
                                               std::vector<double>{0.3, 0.7});
  Rng rng(1);
  EXPECT_EQ(SampleToken(d, DecodeMode::kGreedy, rng), 2);
}

TEST(Sampler, StochasticStaysInSupport) {
  const SparseDist d = SparseDist::FromWeights(std::vector<Token>{1, 2},
                                               std::vector<double>{0.3, 0.7});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Token t = SampleToken(d, DecodeMode::kStochastic, rng);
    EXPECT_TRUE(t == 1 || t == 2);
  }
}

}  // namespace
}  // namespace adaserve
