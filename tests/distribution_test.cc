#include "src/model/distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/golden.h"
#include "src/model/dist_kernels.h"
#include "src/model/draft_lm.h"
#include "src/model/sampler.h"
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

// The historical FromWeights, kept as the reference the current one must
// match bit for bit: linear-scan coalescing in input order, then std::sort
// by (descending prob, ascending token).
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

using dist_kernels::Width;

std::string WidthName(Width width) { return width == Width::kWide ? "Wide" : "Narrow"; }

// True if this CPU cannot run `width`'s kernels: their cases skip.
bool Unsupported(Width width) { return width == Width::kWide && !dist_kernels::WideSupported(); }

constexpr char kNoWideKernels[] = "this CPU has no AVX-512 (x86-64-v4) kernels";

// Tests over both kernel widths. FromWeights, Mix and NextDist take the
// width the process chose; each case also calls its own width's kernel.
class KernelWidth : public ::testing::TestWithParam<Width> {
 protected:
  void SetUp() override {
    if (Unsupported(GetParam())) {
      GTEST_SKIP() << kNoWideKernels;
    }
  }
};

std::string KernelWidthName(const testing::TestParamInfo<Width>& info) {
  return WidthName(info.param);
}

TEST(KernelChoice, ChosenOncePerProcess) {
  const Width chosen = dist_kernels::Chosen();
  EXPECT_EQ(chosen, dist_kernels::WideSupported() ? Width::kWide : Width::kNarrow);
  EXPECT_EQ(dist_kernels::Chosen(), chosen);
}

// The inputs the rank kernel must take: n = 1..kRankWidth distinct tokens
// with positive weights, none equal to a pad lane's token (INT32_MIN + i
// for lanes i = n..kRankWidth - 1).
bool RankShaped(const std::vector<Token>& tokens, const std::vector<double>& weights) {
  const size_t n = tokens.size();
  std::set<Token> taken(tokens.begin(), tokens.end());
  for (size_t i = n; i < dist_kernels::kRankWidth; ++i) {
    taken.insert(std::numeric_limits<Token>::min() + static_cast<Token>(i));
  }
  return n >= 1 && n <= dist_kernels::kRankWidth && taken.size() == dist_kernels::kRankWidth &&
         std::all_of(weights.begin(), weights.end(), [](double w) { return w > 0.0; });
}

// FromWeights, and the rank kernel at `width`, against the reference: the
// kernel takes every rank-shaped input and returns the reference's bits,
// and leaves every other input to the scan untouched.
void ExpectMatchesReference(Width width, const std::vector<Token>& tokens,
                            const std::vector<double>& weights) {
  const std::vector<SparseDist::Entry> want = ReferenceFromWeights(tokens, weights);
  ExpectBitIdentical(SparseDist::FromWeights(tokens, weights), want);
  dist_kernels::EntryScratch out;
  const bool ranked = dist_kernels::RankInto(width, tokens, weights, out);
  EXPECT_EQ(ranked, RankShaped(tokens, weights));
  if (!ranked) {
    EXPECT_TRUE(out.empty());
    return;
  }
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i].token, want[i].token) << "entry " << i;
    EXPECT_EQ(std::memcmp(&out[i].prob, &want[i].prob, sizeof(double)), 0)
        << "entry " << i << ": " << out[i].prob << " vs " << want[i].prob;
  }
}

// Sizes 1..200 cross the rank path's width (24) and the inline entry
// capacity (48). Each size draws tokens from a duplicate-heavy, a wide or a
// signed range, and weights that include zeros and exact ties, so most
// inputs take the first-appearance scan.
class FromWeightsEquivalenceSweep : public ::testing::TestWithParam<std::tuple<uint64_t, Width>> {
 protected:
  void SetUp() override {
    if (Unsupported(std::get<1>(GetParam()))) {
      GTEST_SKIP() << kNoWideKernels;
    }
  }
};

TEST_P(FromWeightsEquivalenceSweep, MatchesScanAndSortReference) {
  const auto [seed, width] = GetParam();
  for (size_t n = 1; n <= 200; ++n) {
    Rng rng(seed * 1000 + n);
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
    ExpectMatchesReference(width, tokens, weights);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FromWeightsEquivalenceSweep,
                         ::testing::Combine(::testing::Range<uint64_t>(0, 8),
                                            ::testing::Values(Width::kNarrow, Width::kWide)),
                         [](const auto& info) {
                           return WidthName(std::get<1>(info.param)) + "_" +
                                  std::to_string(std::get<0>(info.param));
                         });

// The noise model of a setup's draft: the target config under the noise
// seed and support.
LmConfig NoiseConfig(const adaserve::Setup& setup) {
  LmConfig noise_config = setup.lm_config;
  noise_config.seed = setup.draft_config.noise_seed;
  noise_config.support = setup.draft_config.noise_support;
  return noise_config;
}

// The (token, weight) draw SyntheticLm::NextDist hands FromWeights, rebuilt
// here at the baseline ISA so the kernels can be checked against it.
void DrawSupport(const LmConfig& config, uint64_t stream, std::span<const Token> context,
                 std::vector<Token>& tokens, std::vector<double>& weights) {
  const auto order = static_cast<size_t>(config.context_order);
  const std::span<const Token> window = context.last(std::min(order, context.size()));
  uint64_t state =
      HashCombine(HashCombine(Mix64(config.seed), stream), HashTokens(config.seed, window));
  tokens.clear();
  weights.clear();
  for (int i = 0; i < config.support; ++i) {
    const uint64_t r1 = SplitMix64(state);
    const uint64_t r2 = SplitMix64(state);
    const double jitter_u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
    tokens.push_back(static_cast<Token>(r1 % static_cast<uint64_t>(config.vocab_size)));
    weights.push_back(std::pow(static_cast<double>(i + 1), -config.zipf_exponent) *
                      (1.0 + config.weight_jitter * (2.0 * jitter_u - 1.0)));
  }
}

bool RepeatsToken(std::vector<Token> tokens) {
  std::sort(tokens.begin(), tokens.end());
  return std::adjacent_find(tokens.begin(), tokens.end()) != tokens.end();
}

// The support draw kernel at `width` against the reference draw.
void ExpectDrawMatches(Width width, const LmConfig& config, uint64_t stream,
                       std::span<const Token> context, const std::vector<Token>& tokens,
                       const std::vector<double>& weights) {
  const auto order = static_cast<size_t>(config.context_order);
  const std::span<const Token> window = context.last(std::min(order, context.size()));
  const uint64_t h =
      HashCombine(HashCombine(Mix64(config.seed), stream), HashTokens(config.seed, window));
  std::vector<double> zipf;
  for (int i = 0; i < config.support; ++i) {
    zipf.push_back(std::pow(static_cast<double>(i + 1), -config.zipf_exponent));
  }
  dist_kernels::TokenScratch drawn_tokens;
  dist_kernels::WeightScratch drawn_weights;
  dist_kernels::DrawSupport(width, h, static_cast<uint64_t>(config.vocab_size),
                            config.weight_jitter, zipf, drawn_tokens, drawn_weights);
  ASSERT_EQ(drawn_tokens.size(), tokens.size());
  ASSERT_EQ(drawn_weights.size(), weights.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(drawn_tokens[i], tokens[i]) << "slot " << i;
    EXPECT_EQ(std::memcmp(&drawn_weights[i], &weights[i], sizeof(double)), 0)
        << "slot " << i << ": " << drawn_weights[i] << " vs " << weights[i];
  }
}

// Every setup's target and noise draws: 24 distinct tokens with positive
// weights (the rank path) except the ~1% that repeat a token (the scan).
// The draw is checked against NextDist itself, so it cannot drift from it,
// and against the draw kernel. The same configs at other support sizes
// cover the kernels' lane tails (1, 7, 9, 23, 25, 49) and the inline
// capacity's spill (49, 64).
TEST_P(KernelWidth, SetupNextDistDraws) {
  constexpr int kSupports[] = {1, 7, 8, 9, 23, 24, 25, 48, 49, 64};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    for (const LmConfig& setup_config : {setup.lm_config, NoiseConfig(setup)}) {
      for (int support : kSupports) {
        LmConfig config = setup_config;
        config.support = support;
        SCOPED_TRACE(testing::Message() << "support=" << support);
        const bool setup_support = support == setup_config.support;
        const SyntheticLm lm(config);
        Rng rng(config.seed);
        std::vector<Token> context;
        std::vector<Token> tokens;
        std::vector<double> weights;
        int repeats = 0;
        const int contexts = setup_support ? 2000 : 200;
        for (int i = 0; i < contexts; ++i) {
          context.push_back(static_cast<Token>(rng.UniformInt(32000)));
          const auto stream = static_cast<uint64_t>(i % 13);
          DrawSupport(config, stream, context, tokens, weights);
          repeats += RepeatsToken(tokens) ? 1 : 0;
          SCOPED_TRACE(testing::Message() << "i=" << i);
          ExpectDrawMatches(GetParam(), config, stream, context, tokens, weights);
          const SparseDist dist = lm.NextDist(stream, context);
          ExpectBitIdentical(dist, ReferenceFromWeights(tokens, weights));
          ExpectMatchesReference(GetParam(), tokens, weights);
        }
        if (setup_support) {
          EXPECT_GT(repeats, 0);
          EXPECT_LT(repeats, contexts / 20);
        }
      }
    }
  }
}

// Distinct tokens and distinct positive weights, sizes 1..25: the rank
// path up to its width, then the scan.
TEST_P(KernelWidth, DistinctSupportsAcrossTheRankWidth) {
  Rng rng(29);
  for (size_t n = 1; n <= 25; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<Token> tokens;
      std::vector<double> weights;
      for (size_t i = 0; i < n; ++i) {
        tokens.push_back(static_cast<Token>(1000 * i + rng.UniformInt(1000)));
        weights.push_back(std::pow(static_cast<double>(i + 1), -3.0) * (0.6 + 0.8 * rng.Uniform()));
      }
      for (size_t i = n - 1; i > 0; --i) {
        const size_t j = rng.UniformInt(i + 1);
        std::swap(tokens[i], tokens[j]);
      }
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      ExpectMatchesReference(GetParam(), tokens, weights);
    }
  }
}

// Inputs that look like the rank path's but must leave it, each as small
// as it gets and at the full width, and exact ties, which it sorts.
TEST_P(KernelWidth, RankPathExits) {
  const Width width = GetParam();
  std::vector<Token> tokens(24);
  std::vector<double> weights(24);
  for (size_t i = 0; i < 24; ++i) {
    tokens[i] = static_cast<Token>(24 - i);
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  ExpectMatchesReference(width, tokens, weights);
  {
    SCOPED_TRACE("exact prob tie between distinct tokens");
    ExpectMatchesReference(width, {9, 3, 5}, {0.25, 0.5, 0.25});
    std::vector<double> tied = weights;
    tied[17] = tied[3];
    ExpectMatchesReference(width, tokens, tied);
    ExpectMatchesReference(width, tokens, std::vector<double>(24, 1.0));
  }
  {
    SCOPED_TRACE("one repeated token");
    ExpectMatchesReference(width, {4, 7, 4}, {0.5, 0.3, 0.2});
    std::vector<Token> repeated = tokens;
    repeated[23] = repeated[0];
    ExpectMatchesReference(width, repeated, weights);
    // A repeat in every pair of lanes a group compares.
    for (size_t i = 0; i < 24; ++i) {
      for (size_t j = i + 1; j < 24; ++j) {
        repeated = tokens;
        repeated[j] = repeated[i];
        SCOPED_TRACE(testing::Message() << "tokens " << i << " and " << j);
        ExpectMatchesReference(width, repeated, weights);
      }
    }
  }
  {
    SCOPED_TRACE("negative token ids, pad tokens included");
    constexpr Token kMin = std::numeric_limits<Token>::min();
    ExpectMatchesReference(width, {-1, -50, 7}, {0.2, 0.5, 0.3});
    for (Token pad = kMin; pad < kMin + 24; ++pad) {
      ExpectMatchesReference(width, {5, pad, -5}, {0.2, 0.5, 0.3});
    }
    std::vector<Token> negative = tokens;
    for (Token& t : negative) {
      t = kMin + 24 - t;
    }
    ExpectMatchesReference(width, negative, weights);
  }
  {
    SCOPED_TRACE("one zero weight");
    ExpectMatchesReference(width, {1, 2, 3}, {0.5, 0.0, 0.5});
    std::vector<double> zeroed = weights;
    zeroed[11] = 0.0;
    ExpectMatchesReference(width, tokens, zeroed);
  }
}

bool Disjoint(const SparseDist& a, const SparseDist& b) {
  return std::none_of(a.entries().begin(), a.entries().end(),
                      [&](const SparseDist::Entry& e) { return b.ProbOf(e.token) > 0.0; });
}

// Mix by its definition. Disjoint supports: every positive scaled entry,
// weight * p_a or (1 - weight) * p_b, undivided, sorted as SparseDist
// sorts. A shared token: FromWeights over a's scaled entries followed by
// b's, through the reference algorithm.
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
  if (!Disjoint(a, b)) {
    return ReferenceFromWeights(tokens, weights);
  }
  std::vector<SparseDist::Entry> entries;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (weights[i] > 0.0) {
      entries.push_back({tokens[i], weights[i]});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const auto& x, const auto& y) {
    if (x.prob != y.prob) {
      return x.prob > y.prob;
    }
    return x.token < y.token;
  });
  return entries;
}

// Mix of real synthetic-LM outputs: the 24+24-token shape a draft model
// mixes on every tree node.
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
// rest take the merge, which does not divide by the mixed total.
TEST(MixEquivalence, SetupDraftMixtures) {
  constexpr double kFidelities[] = {0.0, 0.82, 0.85, 0.93, 1.0};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    const SyntheticLm noise(NoiseConfig(setup));
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
    const SyntheticLm noise(NoiseConfig(setup));
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

// The head lengths the bounded draft head is checked at: every n from one
// entry to past the 24-slot support, and the whole distribution.
std::vector<size_t> HeadLengths() {
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 25; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(kWholeDist);
  return lengths;
}

template <typename Got>
void ExpectEntries(const Got& got, std::span<const SparseDist::Entry> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].token, want[i].token) << "entry " << i;
    EXPECT_EQ(std::memcmp(&got[i].prob, &want[i].prob, sizeof(double)), 0)
        << "entry " << i << ": " << got[i].prob << " vs " << want[i].prob;
  }
}

// Equal doubles, bit for bit.
template <typename Got>
void ExpectSameBits(const Got& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "slot " << i << ": " << got[i] << " vs " << want[i];
  }
}

// The first `n` entries of `full` (all of them for n past its end).
std::span<const SparseDist::Entry> Prefix(const std::vector<SparseDist::Entry>& full, size_t n) {
  return std::span<const SparseDist::Entry>(full).first(std::min(n, full.size()));
}

// The entries of `full` whose tokens are those of `tokens` at `slots`, in
// full's order.
std::vector<SparseDist::Entry> AtSlots(std::span<const SparseDist::Entry> full,
                                       std::span<const Token> tokens,
                                       std::span<const uint32_t> slots) {
  std::set<Token> kept;
  for (const uint32_t s : slots) {
    kept.insert(tokens[s]);
  }
  std::vector<SparseDist::Entry> entries;
  for (const SparseDist::Entry& e : full) {
    if (kept.count(e.token) != 0) {
      entries.push_back(e);
    }
  }
  return entries;
}

// A noise draw ranked at `width` and every head length, against the whole
// noise distribution: SyntheticLm::Draw draws the whole support, and
// RankSlots at HeadSlots(n) declines exactly the draws that repeat a token
// and otherwise returns NextDist's entries at HeadSlots(n), in NextDist's
// order and bit for bit, as SyntheticLm::RankHead does. On a target support
// `target_dist` shares no token with, MixDisjointHead over those entries is
// the first n entries of Mix(target_dist, NextDist) at every weight. Counts
// the draws that repeat a token and those sharing one with the target.
void ExpectHeadDrawsMatch(Width width, const SyntheticLm& noise, uint64_t stream,
                          std::span<const Token> context, const SparseDist& target_dist,
                          std::span<const double> weights, int& repeats, int& shared) {
  const SparseDist full = noise.NextDist(stream, context);
  std::vector<Token> tokens;
  std::vector<double> drawn;
  DrawSupport(noise.config(), stream, context, tokens, drawn);
  const bool repeated = RepeatsToken(tokens);
  const bool disjoint = Disjoint(target_dist, full);
  repeats += repeated ? 1 : 0;
  shared += disjoint ? 0 : 1;
  std::vector<std::vector<SparseDist::Entry>> mixtures;
  for (const double weight : weights) {
    mixtures.push_back(ReferenceMix(target_dist, full, weight));
  }
  SupportDraw draw;
  noise.Draw(stream, context, draw);
  ASSERT_EQ(std::vector<Token>(draw.tokens.begin(), draw.tokens.end()), tokens);
  ExpectSameBits(draw.weights, drawn);
  for (const size_t n : HeadLengths()) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    DistHead head;
    const bool ranked = dist_kernels::RankSlots(width, draw.tokens, draw.weights,
                                                noise.HeadSlots(n), head);
    SupportDraw library = draw;
    ASSERT_EQ(noise.RankHead(library, n), ranked);
    ExpectEntries(library.head, {head.data(), head.size()});
    ASSERT_EQ(ranked, !repeated);
    if (!ranked) {
      EXPECT_TRUE(head.empty());
      continue;
    }
    ExpectEntries(head, AtSlots(full.entries(), tokens, noise.HeadSlots(n)));
    if (!disjoint) {
      continue;
    }
    for (size_t w = 0; w < weights.size(); ++w) {
      SCOPED_TRACE(testing::Message() << "weight=" << weights[w]);
      ExpectEntries(MixDisjointHead(target_dist.entries(), {head.data(), head.size()},
                                    weights[w], n),
                    Prefix(mixtures[w], n));
    }
  }
}

// The setup draft mixtures of MixEquivalence.SetupDraftMixtures through the
// bounded head: about 1% of the noise draws repeat a token and 2% share one
// with the target; both are counted so the sweep is known to reach them.
TEST_P(KernelWidth, HeadDrawsOfSetupDraftMixtures) {
  constexpr double kFidelities[] = {0.0, 0.82, 0.85, 0.93, 1.0};
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    const SyntheticLm noise(NoiseConfig(setup));
    Rng rng(setup.lm_config.seed);
    std::vector<Token> context;
    int repeats = 0;
    int shared = 0;
    for (int i = 0; i < 600; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      const auto stream = static_cast<uint64_t>(i % 13);
      SCOPED_TRACE(testing::Message() << "i=" << i);
      ExpectHeadDrawsMatch(GetParam(), noise, stream, context, target.NextDist(stream, context),
                           kFidelities, repeats, shared);
    }
    EXPECT_GT(repeats, 0);
    EXPECT_GT(shared, 0);
  }
}

// A draw of `tokens` and `weights`, unranked, as SyntheticLm::Draw leaves
// one.
SupportDraw MakeDraw(std::span<const Token> tokens, std::span<const double> weights) {
  SupportDraw draw;
  for (size_t i = 0; i < tokens.size(); ++i) {
    draw.tokens.push_back(tokens[i]);
    draw.weights.push_back(weights[i]);
  }
  return draw;
}

// DraftLm::NextHead, bounded head and fallbacks alike, against the
// reference mixture at every head length over the setup draft mixtures,
// on the target's draw both fresh and as a beam node carries it (ranked
// for n = 5, so a shorter head mixes a longer target run). At fidelity 1
// the draft is the target itself; below 2^-53 it takes the whole path.
// Target draws that repeat a token and supports that share one are
// counted, so the sweep is known to reach both fallbacks.
TEST(DraftNextHead, MatchesTheMixturesPrefix) {
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    const SyntheticLm noise(NoiseConfig(setup));
    std::vector<DraftLm> drafts;
    for (const double fidelity : {0.0, 0x1.0p-60, 0x1.0p-53, 0.82, 0.85, 0.93, 1.0}) {
      DraftConfig config = setup.draft_config;
      config.fidelity = fidelity;
      drafts.emplace_back(&target, config);
    }
    Rng rng(setup.lm_config.seed + 1);
    std::vector<Token> context;
    int repeats = 0;
    int shared = 0;
    for (int i = 0; i < 600; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      const auto stream = static_cast<uint64_t>(i % 13);
      const SparseDist a = target.NextDist(stream, context);
      const SparseDist b = noise.NextDist(stream, context);
      SupportDraw fresh;
      target.Draw(stream, context, fresh);
      SupportDraw node = fresh;
      target.RankHead(node, 5);
      repeats += node.head.empty() ? 1 : 0;
      shared += Disjoint(a, b) ? 0 : 1;
      for (const DraftLm& draft : drafts) {
        const std::vector<SparseDist::Entry> mixture =
            draft.config().fidelity == 1.0
                ? std::vector<SparseDist::Entry>(a.entries().begin(), a.entries().end())
                : ReferenceMix(a, b, draft.config().fidelity);
        for (const size_t n : HeadLengths()) {
          SCOPED_TRACE(testing::Message() << "i=" << i << " fidelity=" << draft.config().fidelity
                                          << " n=" << n);
          for (const SupportDraw& target_draw : {fresh, node}) {
            SupportDraw draw = target_draw;
            ExpectEntries(draft.NextHead(stream, context, draw, n), Prefix(mixture, n));
          }
        }
      }
    }
    EXPECT_GT(repeats, 0);
    EXPECT_GT(shared, 0);
  }
}

// The Llama draft's head on a target draw whose slot `target_slot` holds
// the token of the noise draw's slot `noise_slot`, and whose other tokens
// the noise draw lacks: the head must be the coalesced mixture's. The
// target's weights are its Zipf table's own (a jitter draw of u = 1/2), so
// its head slots bound it as they bound the model's draws.
void ExpectSharedTokenHead(size_t target_slot, size_t noise_slot) {
  const adaserve::Setup setup = LlamaSetup();
  const SyntheticLm target(setup.lm_config);
  const SyntheticLm noise(NoiseConfig(setup));
  const DraftLm draft(&target, setup.draft_config);
  const std::vector<Token> context = {5, 6, 7};
  std::vector<Token> tokens;
  std::vector<double> drawn;
  DrawSupport(noise.config(), 3, context, tokens, drawn);
  ASSERT_FALSE(RepeatsToken(tokens));
  std::vector<Token> target_tokens;
  std::vector<double> target_weights;
  for (Token t = 0; target_tokens.size() < 24; ++t) {
    if (std::count(tokens.begin(), tokens.end(), t) == 0) {
      target_tokens.push_back(t);
      target_weights.push_back(
          std::pow(static_cast<double>(target_tokens.size()), -setup.lm_config.zipf_exponent));
    }
  }
  target_tokens[target_slot] = tokens[noise_slot];
  const SparseDist a = SparseDist::FromWeights(target_tokens, target_weights);
  const SparseDist b = noise.NextDist(3, context);
  ASSERT_FALSE(Disjoint(a, b));
  const std::vector<SparseDist::Entry> mixture = ReferenceMix(a, b, setup.draft_config.fidelity);
  for (const size_t n : HeadLengths()) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    SupportDraw draw = MakeDraw(target_tokens, target_weights);
    ExpectEntries(draft.NextHead(3, context, draw, n), Prefix(mixture, n));
  }
}

// A token shared in the last slot of either draw or both, which no bounded
// head ranks: only the test over both whole supports finds it.
TEST(DraftNextHead, TokenSharedOutsideTheHeadSlots) {
  const SyntheticLm noise(NoiseConfig(LlamaSetup()));
  ASSERT_EQ(std::count(noise.HeadSlots(5).begin(), noise.HeadSlots(5).end(), 23), 0);
  for (const auto& [target_slot, noise_slot] :
       {std::pair<size_t, size_t>{23, 23}, {23, 0}, {0, 23}}) {
    SCOPED_TRACE(testing::Message() << "target slot " << target_slot << ", noise slot "
                                    << noise_slot);
    ExpectSharedTokenHead(target_slot, noise_slot);
  }
}

// The two argmax tokens are one token: the heads share it.
TEST(DraftNextHead, TokenSharedAtBothArgmaxes) { ExpectSharedTokenHead(0, 0); }

// What a sweep of lazy samples reached.
struct LazySampleCounts {
  // Stochastic draws that landed past the ranked head.
  int past_head = 0;
  // Draws that repeat a token, which the sampler samples by the scan.
  int repeats = 0;
};

// The lazy sampler on `lm`'s draw against SampleToken over FromWeights of
// it: the same token, and the Rng left in the same state, in both modes.
// SampleToken on the fresh draw ranks its own head; SampleRanked reads the
// draw unranked and ranked as tree nodes carry it, at 1, kSampleHead, 5
// and every slot.
void ExpectLazySamplesMatch(const SyntheticLm& lm, uint64_t stream,
                            std::span<const Token> context, uint64_t seed,
                            LazySampleCounts& counts) {
  SupportDraw fresh;
  lm.Draw(stream, context, fresh);
  const std::vector<Token> tokens(fresh.tokens.begin(), fresh.tokens.end());
  const std::vector<double> weights(fresh.weights.begin(), fresh.weights.end());
  const SparseDist dist = SparseDist::FromWeights(tokens, weights);
  counts.repeats += RepeatsToken(tokens) ? 1 : 0;
  for (const DecodeMode mode : {DecodeMode::kGreedy, DecodeMode::kStochastic}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    Rng want_rng(seed);
    const Token want = SampleToken(dist, mode, want_rng);
    const uint64_t want_next = want_rng.NextU64();
    SupportDraw draw = fresh;
    Rng rng(seed);
    ASSERT_EQ(SampleToken(lm, draw, mode, rng), want);
    ASSERT_EQ(rng.NextU64(), want_next);
    EXPECT_EQ(draw.reach, kSampleHead);
    const std::span<const SparseDist::Entry> head = draw.Ranked();
    if (mode == DecodeMode::kStochastic && !head.empty() && head.size() < tokens.size()) {
      const size_t at = static_cast<size_t>(
          std::find_if(dist.entries().begin(), dist.entries().end(),
                       [&](const SparseDist::Entry& e) { return e.token == want; }) -
          dist.entries().begin());
      counts.past_head += at >= head.size() ? 1 : 0;
    }
    for (const size_t reach : {size_t{0}, size_t{1}, kSampleHead, size_t{5}, kWholeDist}) {
      SCOPED_TRACE(testing::Message() << "reach=" << reach);
      SupportDraw ranked = fresh;
      if (reach > 0) {
        lm.RankHead(ranked, reach);
      }
      Rng ranked_rng(seed);
      ASSERT_EQ(SampleRanked(ranked, mode, ranked_rng), want);
      ASSERT_EQ(ranked_rng.NextU64(), want_next);
    }
  }
}

// Every setup's target over 10k draws each: the draws past the head and
// the ~1% that repeat a token are counted, so the sweep is known to take
// both branches.
TEST(LazySampler, SetupTargetsMatchTheWholeDistribution) {
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup(), GoldenSetup()}) {
    SCOPED_TRACE(setup.label);
    const SyntheticLm target(setup.lm_config);
    Rng rng(setup.lm_config.seed + 2);
    std::vector<Token> context;
    LazySampleCounts counts;
    for (int i = 0; i < 10000; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      SCOPED_TRACE(testing::Message() << "i=" << i);
      ExpectLazySamplesMatch(target, static_cast<uint64_t>(i % 13), context,
                             static_cast<uint64_t>(i), counts);
    }
    EXPECT_GT(counts.past_head, 0);
    EXPECT_GT(counts.repeats, 0);
  }
}

// Where the head is not the setups': a support shorter than the head
// (every slot ranked), exponent 0 (every slot a head slot, all of it
// ranked), jitter 0 (the first slots in table order), and a vocabulary so
// small that nearly every draw repeats a token (the scan path).
TEST(LazySampler, HeadShapesMatchTheWholeDistribution) {
  const LmConfig setup = LlamaSetup().lm_config;
  for (const LmConfig& config :
       {LmConfig{.support = 1}, LmConfig{.support = 2}, LmConfig{.zipf_exponent = 0.0},
        LmConfig{.zipf_exponent = 0.0, .weight_jitter = 0.0},
        LmConfig{.zipf_exponent = 3.0, .weight_jitter = 0.0},
        LmConfig{.vocab_size = 40, .support = setup.support,
                 .zipf_exponent = setup.zipf_exponent}}) {
    SCOPED_TRACE(testing::Message() << "support=" << config.support
                                    << " exponent=" << config.zipf_exponent
                                    << " jitter=" << config.weight_jitter
                                    << " vocab=" << config.vocab_size);
    const SyntheticLm lm(config);
    Rng rng(23);
    std::vector<Token> context;
    LazySampleCounts counts;
    for (int i = 0; i < 1000; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      SCOPED_TRACE(testing::Message() << "i=" << i);
      ExpectLazySamplesMatch(lm, 1, context, static_cast<uint64_t>(i), counts);
    }
    if (config.vocab_size == 40) {
      EXPECT_GT(counts.repeats, 900);
    }
    if (config.weight_jitter == 0.0 && config.zipf_exponent == 3.0) {
      EXPECT_GT(counts.past_head, 0);
    }
  }
}

// The slots the bound keeps where it is tight: the setups' table (exponent
// 3, jitter 0.4), exponent 0 (every weight alike: every slot, and every
// entry tied), jitter 0 (the table's own order: the first n). Head draws of
// each, and of the default config, against the whole distribution.
TEST_P(KernelWidth, HeadSlotsWhereTheBoundIsTight) {
  const auto slots = [](const SyntheticLm& lm, size_t n) {
    return std::vector<uint32_t>(lm.HeadSlots(n).begin(), lm.HeadSlots(n).end());
  };
  const auto first = [](uint32_t n) {
    std::vector<uint32_t> v;
    for (uint32_t s = 0; s < n; ++s) {
      v.push_back(s);
    }
    return v;
  };
  const SyntheticLm setup_table(LlamaSetup().lm_config);
  EXPECT_EQ(slots(setup_table, 1), first(1));
  EXPECT_EQ(slots(setup_table, 2), first(2));
  EXPECT_EQ(slots(setup_table, 3), first(3));
  EXPECT_EQ(slots(setup_table, 4), first(5));
  EXPECT_EQ(slots(setup_table, 5), first(6));
  EXPECT_EQ(slots(setup_table, 24), first(24));
  EXPECT_EQ(slots(setup_table, kWholeDist), first(24));
  const SyntheticLm flat(LmConfig{.zipf_exponent = 0.0});
  const SyntheticLm flat_exact(LmConfig{.zipf_exponent = 0.0, .weight_jitter = 0.0});
  const SyntheticLm exact(LmConfig{.zipf_exponent = 3.0, .weight_jitter = 0.0});
  for (size_t n = 1; n <= 25; ++n) {
    EXPECT_EQ(slots(flat, n), first(24)) << "n=" << n;
    EXPECT_EQ(slots(flat_exact, n), first(24)) << "n=" << n;
    EXPECT_EQ(slots(exact, n), first(static_cast<uint32_t>(std::min<size_t>(n, 24))))
        << "n=" << n;
  }
  constexpr double kWeights[] = {0.0, 0.5, 0.85, 1.0};
  for (const LmConfig& config : {LmConfig{}, LlamaSetup().lm_config, flat.config(),
                                 flat_exact.config(), exact.config()}) {
    SCOPED_TRACE(testing::Message() << "exponent=" << config.zipf_exponent
                                    << " jitter=" << config.weight_jitter);
    LmConfig noise_config = config;
    noise_config.seed = 0x5eedbeef;
    const SyntheticLm target(config);
    const SyntheticLm noise(noise_config);
    Rng rng(17);
    std::vector<Token> context;
    int repeats = 0;
    int shared = 0;
    for (int i = 0; i < 200; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      SCOPED_TRACE(testing::Message() << "i=" << i);
      ExpectHeadDrawsMatch(GetParam(), noise, 1, context, target.NextDist(1, context), kWeights,
                           repeats, shared);
    }
  }
}

// Every slot's weight at an end of its jitter range: one slot as heavy as
// a draw makes it and the rest as light (the bound's worst case for that
// slot), or the reverse. RankSlots over HeadSlots(n) then mixes to the
// whole draw's head, against a target of the same weights on other tokens,
// so that at weight 0.5 every entry ties one of the other run at the cut.
TEST_P(KernelWidth, HeadSlotsAtPinnedWeights) {
  const Width width = GetParam();
  for (const LmConfig& config :
       {LlamaSetup().lm_config, LmConfig{}, LmConfig{.zipf_exponent = 3.0, .weight_jitter = 0.9},
        LmConfig{.zipf_exponent = 0.5, .weight_jitter = 0.05}}) {
    SCOPED_TRACE(testing::Message() << "exponent=" << config.zipf_exponent
                                    << " jitter=" << config.weight_jitter);
    const SyntheticLm lm(config);
    const auto support = static_cast<size_t>(config.support);
    std::vector<double> low;
    std::vector<double> high;
    for (size_t i = 0; i < support; ++i) {
      const double zipf = std::pow(static_cast<double>(i + 1), -config.zipf_exponent);
      low.push_back(zipf * (1.0 + config.weight_jitter * (2.0 * 0.0 - 1.0)));
      high.push_back(zipf * (1.0 + config.weight_jitter * (2.0 * (1.0 - 0x1.0p-53) - 1.0)));
    }
    std::vector<Token> tokens;
    std::vector<Token> target_tokens;
    for (size_t i = 0; i < support; ++i) {
      tokens.push_back(static_cast<Token>(1000 + 7 * ((i * 5) % support)));
      target_tokens.push_back(static_cast<Token>(2000 + i));
    }
    for (size_t pinned = 0; pinned < support; ++pinned) {
      for (const bool heavy : {true, false}) {
        std::vector<double> weights = heavy ? low : high;
        weights[pinned] = heavy ? high[pinned] : low[pinned];
        SCOPED_TRACE(testing::Message() << "slot " << pinned << (heavy ? " heavy" : " light"));
        const SparseDist full = SparseDist::FromWeights(tokens, weights);
        const SparseDist target = SparseDist::FromWeights(target_tokens, weights);
        for (const size_t n : HeadLengths()) {
          SCOPED_TRACE(testing::Message() << "n=" << n);
          DistHead head;
          ASSERT_TRUE(dist_kernels::RankSlots(width, tokens, weights, lm.HeadSlots(n), head));
          ExpectEntries(head, AtSlots(full.entries(), tokens, lm.HeadSlots(n)));
          for (const double weight : {0.5, 0.85}) {
            ExpectEntries(MixDisjointHead(target.entries(), {head.data(), head.size()}, weight, n),
                          Prefix(ReferenceMix(target, full, weight), n));
          }
        }
      }
    }
  }
}

// RankSlots declines what RankInto declines, leaving `out` empty, and over
// every slot ranks as RankInto does.
TEST_P(KernelWidth, RankSlotsTakesWhatRankIntoTakes) {
  const Width width = GetParam();
  const std::vector<uint32_t> all = {0, 1, 2};
  const auto declines = [&](const std::vector<Token>& tokens, const std::vector<double>& weights) {
    DistHead out;
    const bool ranked = dist_kernels::RankSlots(width, tokens, weights, all, out);
    EXPECT_TRUE(out.empty());
    return !ranked;
  };
  EXPECT_TRUE(declines({4, 7, 4}, {0.5, 0.3, 0.2}));
  EXPECT_TRUE(declines({4, 7, 5}, {0.5, 0.0, 0.2}));
  EXPECT_TRUE(declines({4, std::numeric_limits<Token>::min() + 5, 5}, {0.5, 0.3, 0.2}));
  EXPECT_TRUE(declines({4, 7, 5}, {0.5, std::numeric_limits<double>::infinity(), 0.2}));
  std::vector<Token> wide(dist_kernels::kRankWidth + 1);
  for (size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<Token>(i);
  }
  EXPECT_TRUE(declines(wide, std::vector<double>(wide.size(), 1.0)));
  Rng rng(31);
  for (size_t n = 1; n <= dist_kernels::kRankWidth; ++n) {
    std::vector<Token> tokens;
    std::vector<double> weights;
    std::vector<uint32_t> slots;
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(static_cast<Token>(rng.UniformInt(32000)));
      weights.push_back(0.125 * static_cast<double>(1 + rng.UniformInt(4)));
      slots.push_back(static_cast<uint32_t>(n - 1 - i));
    }
    SCOPED_TRACE(testing::Message() << "n=" << n);
    dist_kernels::EntryScratch ranked;
    DistHead sliced;
    ASSERT_EQ(dist_kernels::RankInto(width, tokens, weights, ranked),
              dist_kernels::RankSlots(width, tokens, weights, slots, sliced));
    ExpectEntries(sliced, {ranked.data(), ranked.size()});
  }
}

// The shared-token kernel against a set intersection: the setup draft
// mixtures' target and noise supports, then supports of 1..100 entries
// (past the 48-entry block a's groups are held in) sharing one token at
// every position, or none.
TEST_P(KernelWidth, SharesTokenMatchesSetIntersection) {
  const Width width = GetParam();
  const auto shares = [](const SparseDist& a, const SparseDist& b) {
    return !Disjoint(a, b);
  };
  // The kernel over the entries, checked to agree with it over their bare
  // tokens.
  const auto kernel_shares = [width](std::span<const SparseDist::Entry> a,
                                     std::span<const SparseDist::Entry> b) {
    const auto tokens_of = [](std::span<const SparseDist::Entry> entries) {
      std::vector<Token> tokens;
      for (const SparseDist::Entry& e : entries) {
        tokens.push_back(e.token);
      }
      return tokens;
    };
    const bool entries = dist_kernels::SharesToken(width, a, b);
    EXPECT_EQ(dist_kernels::SharesToken(width, std::span<const Token>(tokens_of(a)),
                                        std::span<const Token>(tokens_of(b))),
              entries);
    return entries;
  };
  for (const adaserve::Setup& setup : {LlamaSetup(), QwenSetup()}) {
    const SyntheticLm target(setup.lm_config);
    const SyntheticLm noise(NoiseConfig(setup));
    Rng rng(setup.lm_config.seed);
    std::vector<Token> context;
    int shared = 0;
    for (int i = 0; i < 2000; ++i) {
      context.push_back(static_cast<Token>(rng.UniformInt(32000)));
      const SparseDist a = target.NextDist(static_cast<uint64_t>(i % 13), context);
      const SparseDist b = noise.NextDist(static_cast<uint64_t>(i % 13), context);
      shared += shares(a, b) ? 1 : 0;
      ASSERT_EQ(kernel_shares(a.entries(), b.entries()), shares(a, b))
          << setup.label << " i=" << i;
    }
    EXPECT_GT(shared, 0);
  }
  const auto dist = [](Token first, size_t n) {
    std::vector<Token> tokens;
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(first + static_cast<Token>(i));
    }
    return SparseDist::FromWeights(tokens, std::vector<double>(n, 1.0));
  };
  for (size_t na : {1, 3, 4, 5, 8, 9, 24, 47, 48, 49, 100}) {
    for (size_t nb : {1, 4, 7, 8, 9, 24, 25, 48, 100}) {
      const SparseDist a = dist(0, na);
      SCOPED_TRACE(testing::Message() << "na=" << na << " nb=" << nb);
      EXPECT_FALSE(kernel_shares(a.entries(), dist(1000, nb).entries()));
      EXPECT_FALSE(kernel_shares(a.entries(), {}));
      EXPECT_FALSE(kernel_shares({}, a.entries()));
      // b's tokens are 1000 + k except one, at each of b's positions,
      // equal to a's first, middle or last token. Descending weights keep
      // b's entries in input order.
      for (size_t pos = 0; pos < nb; ++pos) {
        for (const auto t : {Token{0}, static_cast<Token>(na / 2), static_cast<Token>(na - 1)}) {
          std::vector<Token> tokens;
          std::vector<double> weights;
          for (size_t k = 0; k < nb; ++k) {
            tokens.push_back(k == pos ? t : 1000 + static_cast<Token>(k));
            weights.push_back(static_cast<double>(nb - k));
          }
          const SparseDist b = SparseDist::FromWeights(tokens, weights);
          ASSERT_EQ(b.entry(pos).token, t);
          ASSERT_TRUE(kernel_shares(a.entries(), b.entries())) << "pos=" << pos << " t=" << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelWidth, ::testing::Values(Width::kNarrow, Width::kWide),
                         KernelWidthName);

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
