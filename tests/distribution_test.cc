#include "src/model/distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "src/harness/experiment.h"
#include "src/model/synthetic_lm.h"

namespace adaserve {
namespace {

SparseDist MakeDist(std::vector<Token> tokens, std::vector<double> weights) {
  return SparseDist::FromWeights(tokens, weights);
}

TEST(SparseDist, NormalisesWeights) {
  const SparseDist d = MakeDist({1, 2, 3}, {1.0, 2.0, 1.0});
  EXPECT_NEAR(d.TotalMass(), 1.0, 1e-12);
  EXPECT_NEAR(d.ProbOf(2), 0.5, 1e-12);
  EXPECT_NEAR(d.ProbOf(1), 0.25, 1e-12);
}

TEST(SparseDist, EntriesSortedDescending) {
  const SparseDist d = MakeDist({5, 6, 7}, {0.1, 0.7, 0.2});
  EXPECT_EQ(d.entry(0).token, 6);
  EXPECT_EQ(d.entry(1).token, 7);
  EXPECT_EQ(d.entry(2).token, 5);
}

TEST(SparseDist, CoalescesDuplicateTokens) {
  const SparseDist d = MakeDist({1, 1, 2}, {0.25, 0.25, 0.5});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_NEAR(d.ProbOf(1), 0.5, 1e-12);
}

TEST(SparseDist, DropsZeroWeights) {
  const SparseDist d = MakeDist({1, 2, 3}, {1.0, 0.0, 1.0});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.ProbOf(2), 0.0);
}

TEST(SparseDist, ProbOfMissingTokenIsZero) {
  const SparseDist d = MakeDist({1}, {1.0});
  EXPECT_EQ(d.ProbOf(99), 0.0);
}

TEST(SparseDist, ArgMaxBreaksTiesTowardSmallerToken) {
  const SparseDist d = MakeDist({9, 3}, {0.5, 0.5});
  EXPECT_EQ(d.ArgMax(), 3);
}

TEST(SparseDist, SampleFrequenciesMatchProbs) {
  const SparseDist d = MakeDist({1, 2, 3}, {0.6, 0.3, 0.1});
  Rng rng(77);
  std::map<Token, int> counts;
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    ++counts[d.Sample(rng)];
  }
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.1, 0.01);
}

TEST(SparseDist, EntropyOfUniform) {
  const SparseDist d = MakeDist({1, 2, 3, 4}, {1, 1, 1, 1});
  EXPECT_NEAR(d.Entropy(), std::log(4.0), 1e-12);
}

TEST(SparseDist, EntropyOfPointMassIsZero) {
  EXPECT_NEAR(MakeDist({1}, {1.0}).Entropy(), 0.0, 1e-12);
}

TEST(Mix, WeightedAverageOverUnionSupport) {
  const SparseDist a = MakeDist({1, 2}, {0.5, 0.5});
  const SparseDist b = MakeDist({2, 3}, {0.5, 0.5});
  const SparseDist m = Mix(a, b, 0.5);
  EXPECT_NEAR(m.ProbOf(1), 0.25, 1e-12);
  EXPECT_NEAR(m.ProbOf(2), 0.5, 1e-12);
  EXPECT_NEAR(m.ProbOf(3), 0.25, 1e-12);
}

TEST(Mix, ExtremeWeightsRecoverInputs) {
  const SparseDist a = MakeDist({1}, {1.0});
  const SparseDist b = MakeDist({2}, {1.0});
  EXPECT_NEAR(Mix(a, b, 1.0).ProbOf(1), 1.0, 1e-12);
  EXPECT_NEAR(Mix(a, b, 0.0).ProbOf(2), 1.0, 1e-12);
}

// The historical FromWeights, kept as the reference the hash-indexed one
// must match bit for bit: linear-scan coalescing in input order, then
// std::sort by (descending prob, ascending token).
std::vector<SparseDist::Entry> ReferenceFromWeights(const std::vector<Token>& tokens,
                                                    const std::vector<double>& weights) {
  std::vector<SparseDist::Entry> entries;
  double total = 0.0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (weights[i] <= 0.0) {
      continue;
    }
    total += weights[i];
    bool merged = false;
    for (SparseDist::Entry& e : entries) {
      if (e.token == tokens[i]) {
        e.prob += weights[i];
        merged = true;
        break;
      }
    }
    if (!merged) {
      entries.push_back({tokens[i], weights[i]});
    }
  }
  for (SparseDist::Entry& e : entries) {
    e.prob /= total;
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.prob != b.prob) {
      return a.prob > b.prob;
    }
    return a.token < b.token;
  });
  return entries;
}

void ExpectBitIdentical(const SparseDist& got, const std::vector<SparseDist::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.entry(i).token, want[i].token) << "entry " << i;
    EXPECT_EQ(std::memcmp(&got.entry(i).prob, &want[i].prob, sizeof(double)), 0)
        << "entry " << i << ": " << got.entry(i).prob << " vs " << want[i].prob;
  }
}

// Sizes 1..200 cross the inline entry capacity (48) and the inline hash
// index (64 inputs). Each size draws tokens from a duplicate-heavy, a wide
// or a signed range, and weights that include zeros and exact ties.
class FromWeightsEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FromWeightsEquivalenceSweep, MatchesScanAndSortReference) {
  for (size_t n = 1; n <= 200; ++n) {
    Rng rng(GetParam() * 1000 + n);
    const uint64_t shape = rng.UniformInt(3);
    std::vector<Token> tokens;
    std::vector<double> weights;
    for (size_t i = 0; i < n; ++i) {
      Token token = 0;
      if (shape == 0) {
        token = static_cast<Token>(rng.UniformInt(n / 4 + 1));
      } else if (shape == 1) {
        token = static_cast<Token>(rng.UniformInt(32000));
      } else {
        token = static_cast<Token>(rng.UniformInt(101)) - 50;
      }
      const double u = rng.Uniform();
      double w = rng.Uniform();
      if (u < 0.15) {
        w = 0.0;
      } else if (u < 0.5) {
        w = 0.125 * static_cast<double>(1 + rng.UniformInt(4));
      }
      tokens.push_back(token);
      weights.push_back(w);
    }
    weights[rng.UniformInt(n)] = 0.5;  // At least one positive weight.
    SCOPED_TRACE(testing::Message() << "n=" << n << " shape=" << shape);
    ExpectBitIdentical(SparseDist::FromWeights(tokens, weights),
                       ReferenceFromWeights(tokens, weights));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FromWeightsEquivalenceSweep, ::testing::Range<uint64_t>(0, 8));

// Mix as FromWeights over a's scaled entries followed by b's, through the
// reference algorithm.
std::vector<SparseDist::Entry> ReferenceMix(const SparseDist& a, const SparseDist& b,
                                            double weight) {
  std::vector<Token> tokens;
  std::vector<double> weights;
  for (const auto& e : a.entries()) {
    tokens.push_back(e.token);
    weights.push_back(weight * e.prob);
  }
  for (const auto& e : b.entries()) {
    tokens.push_back(e.token);
    weights.push_back((1.0 - weight) * e.prob);
  }
  return ReferenceFromWeights(tokens, weights);
}

bool Disjoint(const SparseDist& a, const SparseDist& b) {
  return std::none_of(a.entries().begin(), a.entries().end(),
                      [&](const SparseDist::Entry& e) { return b.ProbOf(e.token) > 0.0; });
}

// Mix of real synthetic-LM outputs: the 24+24-token shape a draft model
// hands FromWeights on every tree node.
TEST(FromWeightsEquivalence, MixOfSyntheticLmOutputs) {
  const SyntheticLm target(LmConfig{});
  const SyntheticLm noise(LmConfig{.seed = 0x5eedbeef});
  constexpr double kMixWeights[] = {0.0, 0.3, 0.8, 1.0};
  Rng rng(11);
  std::vector<Token> context;
  for (int i = 0; i < 300; ++i) {
    context.push_back(static_cast<Token>(rng.UniformInt(32000)));
    const auto stream = static_cast<uint64_t>(i % 7);
    const SparseDist a = target.NextDist(stream, context);
    const SparseDist b = noise.NextDist(stream, context);
    const double weight = kMixWeights[i % 4];
    SCOPED_TRACE(testing::Message() << "i=" << i);
    ExpectBitIdentical(Mix(a, b, weight), ReferenceMix(a, b, weight));
  }
}

// The draft mixtures the serving setups build: each setup's target config
// and its draft's noise model (the target config under the noise seed), at
// every fidelity a setup uses plus both extremes. The TP8 and draft-offload
// Llama setups share Llama's configs and differ only in fidelity (0.93).
// About 2% of these inputs share a token and take the coalescing path; the
// rest take the merge.
TEST(MixEquivalence, SetupDraftMixtures) {
  constexpr double kFidelities[] = {0.0, 0.82, 0.85, 0.93, 1.0};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    LmConfig noise_config = setup.lm_config;
    noise_config.seed = setup.draft_config.noise_seed;
    noise_config.support = setup.draft_config.noise_support;
    const SyntheticLm noise(noise_config);
    Rng rng(setup.lm_config.seed);
    std::vector<Token> context;
    int shared = 0;
    constexpr int kContexts = 2000;
    for (int i = 0; i < kContexts; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      const auto stream = static_cast<uint64_t>(i % 13);
      const SparseDist a = target.NextDist(stream, context);
      const SparseDist b = noise.NextDist(stream, context);
      shared += Disjoint(a, b) ? 0 : 1;
      for (double fidelity : kFidelities) {
        SCOPED_TRACE(testing::Message() << "i=" << i << " fidelity=" << fidelity);
        ExpectBitIdentical(Mix(a, b, fidelity), ReferenceMix(a, b, fidelity));
      }
    }
    EXPECT_GT(shared, 0);
    EXPECT_LT(shared, kContexts / 10);
  }
}

TEST(MixEquivalence, SharedTokenIsCoalesced) {
  const SparseDist a = MakeDist({1, 2, 3}, {0.5, 0.3, 0.2});
  const SparseDist b = MakeDist({7, 2}, {0.6, 0.4});
  const SparseDist m = Mix(a, b, 0.7);
  EXPECT_EQ(m.size(), 4u);
  ExpectBitIdentical(m, ReferenceMix(a, b, 0.7));
  // Sharing the last entry of each run, and sharing every token.
  const SparseDist c = MakeDist({10, 11, 12}, {0.6, 0.3, 0.1});
  const SparseDist d = MakeDist({20, 12}, {0.9, 0.1});
  ExpectBitIdentical(Mix(c, d, 0.25), ReferenceMix(c, d, 0.25));
  ExpectBitIdentical(Mix(c, c, 0.4), ReferenceMix(c, c, 0.4));
}

TEST(MixEquivalence, TiesAcrossRunsOrderByToken) {
  // Equal weights on equal probabilities: token 3 of b ties token 9 of a
  // and must come first.
  const SparseDist a = MakeDist({9, 5}, {0.75, 0.25});
  const SparseDist b = MakeDist({3, 1}, {0.75, 0.25});
  const SparseDist m = Mix(a, b, 0.5);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.entry(0).token, 3);
  EXPECT_EQ(m.entry(1).token, 9);
  EXPECT_EQ(m.entry(2).token, 1);
  EXPECT_EQ(m.entry(3).token, 5);
  ExpectBitIdentical(m, ReferenceMix(a, b, 0.5));
}

TEST(MixEquivalence, TiesMadeByScalingOrderByToken) {
  // Distinct in a, but a subnormal weight rounds both to the same double:
  // token 4 then ranks ahead of token 5.
  const SparseDist a = MakeDist({5, 4}, {0.5000000001, 0.4999999999});
  ASSERT_EQ(a.entry(0).token, 5);
  const SparseDist b = MakeDist({8, 6}, {0.6, 0.4});
  constexpr double kWeight = 1e-320;
  ASSERT_EQ(kWeight * a.entry(0).prob, kWeight * a.entry(1).prob);
  const SparseDist m = Mix(a, b, kWeight);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.entry(2).token, 4);
  EXPECT_EQ(m.entry(3).token, 5);
  ExpectBitIdentical(m, ReferenceMix(a, b, kWeight));
}

// Every head of Mix(a, b, weight), one entry up to past the whole support,
// is the full mixture's prefix bit for bit.
void ExpectHeadsArePrefixes(const SparseDist& a, const SparseDist& b, double weight) {
  const SparseDist full = Mix(a, b, weight);
  for (size_t n = 1; n <= full.size() + 1; ++n) {
    const DistHead head = MixHead(a, b, weight, n);
    ASSERT_EQ(head.size(), std::min(n, full.size())) << "n=" << n;
    for (size_t i = 0; i < head.size(); ++i) {
      EXPECT_EQ(head[i].token, full.entry(i).token) << "n=" << n << " entry " << i;
      EXPECT_EQ(std::memcmp(&head[i].prob, &full.entry(i).prob, sizeof(double)), 0)
          << "n=" << n << " entry " << i << ": " << head[i].prob << " vs " << full.entry(i).prob;
    }
  }
  EXPECT_EQ(MixHead(a, b, weight, kWholeDist).size(), full.size());
}

// The setup mixtures of MixEquivalence.SetupDraftMixtures, every head
// length.
TEST(MixHeadEquivalence, SetupDraftMixtures) {
  constexpr double kFidelities[] = {0.0, 0.82, 0.85, 0.93, 1.0};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    LmConfig noise_config = setup.lm_config;
    noise_config.seed = setup.draft_config.noise_seed;
    noise_config.support = setup.draft_config.noise_support;
    const SyntheticLm noise(noise_config);
    Rng rng(setup.lm_config.seed);
    std::vector<Token> context;
    int shared = 0;
    constexpr int kContexts = 1000;
    for (int i = 0; i < kContexts; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      const auto stream = static_cast<uint64_t>(i % 13);
      const SparseDist a = target.NextDist(stream, context);
      const SparseDist b = noise.NextDist(stream, context);
      shared += Disjoint(a, b) ? 0 : 1;
      for (double fidelity : kFidelities) {
        SCOPED_TRACE(testing::Message() << "i=" << i << " fidelity=" << fidelity);
        ExpectHeadsArePrefixes(a, b, fidelity);
      }
    }
    EXPECT_GT(shared, 0);
  }
}

TEST(MixHeadEquivalence, SharedTokenFallback) {
  const SparseDist a = MakeDist({1, 2, 3}, {0.5, 0.3, 0.2});
  const SparseDist b = MakeDist({7, 2}, {0.6, 0.4});
  ExpectHeadsArePrefixes(a, b, 0.7);
  const SparseDist c = MakeDist({10, 11, 12}, {0.6, 0.3, 0.1});
  const SparseDist d = MakeDist({20, 12}, {0.9, 0.1});
  ExpectHeadsArePrefixes(c, d, 0.25);
  ExpectHeadsArePrefixes(c, c, 0.4);
}

TEST(MixHeadEquivalence, TiesMadeByScalingAtTheCut) {
  // A subnormal weight rounds a's three entries (two of them tied) to one
  // double, which ranks after both of b's. The merge emits them in a's order (7
  // first), the sorted mixture in token order (3, 5, 7): a head cut inside
  // that group must take the group's smallest tokens, not the first
  // merged.
  const SparseDist a = MakeDist({7, 5, 3}, {0.3334, 0.3333, 0.3333});
  ASSERT_EQ(a.entry(0).token, 7);
  const SparseDist b = MakeDist({8, 6}, {0.6, 0.4});
  constexpr double kWeight = 1e-320;
  ASSERT_EQ(kWeight * a.entry(0).prob, kWeight * a.entry(2).prob);
  const DistHead head = MixHead(a, b, kWeight, 3);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[2].token, 3);
  EXPECT_EQ(MixHead(a, b, kWeight, 4)[3].token, 5);
  ExpectHeadsArePrefixes(a, b, kWeight);
}

TEST(SparseDist, HeadIsPrefix) {
  const SparseDist d = MakeDist({5, 6, 7}, {0.1, 0.7, 0.2});
  const DistHead head = d.Head(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[0].token, 6);
  EXPECT_EQ(head[1].token, 7);
  EXPECT_EQ(head[1].prob, d.entry(1).prob);
  EXPECT_EQ(d.Head(kWholeDist).size(), 3u);
}

}  // namespace
}  // namespace adaserve
