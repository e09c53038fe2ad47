// Microbenchmarks (google-benchmark): CPU cost of the hot scheduling
// operations — candidate-tree construction, two-phase selection, and tree
// verification. These ground the Fig. 15 claim that scheduling overhead is
// a fraction of a percent of iteration time (iterations are tens of ms).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/adaserve.h"
#include "src/model/dist_kernels.h"

namespace adaserve {
namespace {

const Experiment& GetExperiment() {
  static const Experiment* exp = new Experiment(LlamaSetup());
  return *exp;
}

std::vector<Token> MakeContext(uint64_t seed, int len) {
  Rng rng(seed);
  std::vector<Token> ctx;
  ctx.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    ctx.push_back(static_cast<Token>(rng.UniformInt(32000)));
  }
  return ctx;
}

// The distribution rows rotate over kInputs inputs, each a distinct
// stream seed and committed prefix as slobench's layer timings take them
// from finished requests, so every call meets a fresh hashed support as in
// serving. Replaying one input, or even 256, lets the branch predictor
// learn them and hides the mispredictions real calls pay.
constexpr size_t kInputs = 1024;

struct StreamContext {
  uint64_t stream;
  std::vector<Token> context;
};

const std::vector<StreamContext>& Contexts() {
  static const auto* contexts = [] {
    auto* v = new std::vector<StreamContext>;
    for (size_t i = 0; i < kInputs; ++i) {
      v->push_back({100 + i, MakeContext(100 + i, 1 + static_cast<int>(i % 32))});
    }
    return v;
  }();
  return *contexts;
}

void BM_DraftNextDist(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<StreamContext>& contexts = Contexts();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.draft().NextDist(contexts[i].stream, contexts[i].context));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK(BM_DraftNextDist);

// Building a width-4 candidate tree. reuse:1 rebuilds into one tree and
// scratch kept across iterations, as the schedulers do; reuse:0 builds a
// fresh tree every time.
void BM_BuildCandidateTree(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<Token> ctx = MakeContext(2, 32);
  const BeamConfig beam{.depth = static_cast<int>(state.range(0)), .width = 4};
  const bool reuse = state.range(1) != 0;
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  for (auto _ : state) {
    if (reuse) {
      BuildCandidateTree(exp.draft(), 7, ctx, beam, scratch, tree);
      benchmark::DoNotOptimize(&tree);
      benchmark::ClobberMemory();
    } else {
      benchmark::DoNotOptimize(BuildCandidateTree(exp.draft(), 7, ctx, beam));
    }
  }
}
BENCHMARK(BM_BuildCandidateTree)->ArgNames({"depth", "reuse"})->ArgsProduct({{2, 4, 8}, {0, 1}});

// One tick's speculate phase: candidate trees (depth 4, width 2) for a
// batch of 16 requests, rebuilt into a TreeBatch as the schedulers do.
// team:0 runs the batch inline; team:1 runs it on the process-wide
// fork-join team (min(hardware threads, 4) members).
void BM_SpeculateBatch(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  constexpr int kBatch = 16;
  std::vector<std::vector<Token>> contexts;
  for (int i = 0; i < kBatch; ++i) {
    contexts.push_back(MakeContext(static_cast<uint64_t>(i), 32));
  }
  const BeamConfig beam{.depth = 4, .width = 2};
  ForkJoinTeam inline_team(0);
  ForkJoinTeam& team = state.range(0) != 0 ? ForkJoinTeam::Shared() : inline_team;
  TreeBatch batch;
  for (auto _ : state) {
    batch.Build(team, kBatch, [&](int i, BuildScratch& scratch, TokenTree& tree) {
      BuildCandidateTree(exp.draft(), static_cast<uint64_t>(i), contexts[static_cast<size_t>(i)],
                         beam, scratch, tree);
    });
    benchmark::DoNotOptimize(&batch.tree(0));
    benchmark::ClobberMemory();
  }
  state.counters["members"] = team.members();
}
BENCHMARK(BM_SpeculateBatch)->ArgName("team")->Arg(0)->Arg(1);

// Expanding one tree node: its target draw (attached to the node, ranked
// at its head) plus the draft head a builder reads. head:1 is the chain's
// argmax, head:5 a width-4 beam step's cut, head:all the whole mixture.
void BM_ExpandNode(benchmark::State& state, size_t head) {
  const Experiment& exp = GetExperiment();
  std::vector<StreamContext> inputs = Contexts();
  size_t i = 0;
  for (auto _ : state) {
    StreamContext& input = inputs[i];
    TokenTree tree(input.context.back());
    benchmark::DoNotOptimize(
        ExpandNode(exp.draft(), input.stream, kRootNode, head, input.context, tree));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK_CAPTURE(BM_ExpandNode, head:1, size_t{1});
BENCHMARK_CAPTURE(BM_ExpandNode, head:5, size_t{5});
BENCHMARK_CAPTURE(BM_ExpandNode, head:all, kWholeDist);

void BM_SelectTokens(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const int batch = static_cast<int>(state.range(0));
  std::vector<std::vector<Token>> contexts;
  std::vector<TokenTree> trees;
  for (int i = 0; i < batch; ++i) {
    contexts.push_back(MakeContext(static_cast<uint64_t>(i), 32));
    trees.push_back(BuildCandidateTree(exp.draft(), static_cast<uint64_t>(i), contexts.back(),
                                       BeamConfig{.depth = 6, .width = 4}));
  }
  std::vector<SelectionRequest> reqs(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    reqs[static_cast<size_t>(i)] = {.tree = &trees[static_cast<size_t>(i)], .a_cap = 2.0};
  }
  // reuse:1 resets one selector kept across iterations, as AdaServe does;
  // reuse:0 selects with a fresh one every time.
  const bool reuse = state.range(1) != 0;
  TokenSelector selector;
  for (auto _ : state) {
    if (reuse) {
      selector.Reset(reqs);
      const int used = selector.SloPhase(/*budget=*/128);
      selector.ThroughputPhase(128 - used);
      benchmark::DoNotOptimize(&selector.result());
      benchmark::ClobberMemory();
    } else {
      benchmark::DoNotOptimize(SelectTokens(reqs, /*budget=*/128));
    }
  }
}
BENCHMARK(BM_SelectTokens)->ArgNames({"batch", "reuse"})->ArgsProduct({{8, 32, 64}, {0, 1}});

// Verifying a beam tree. The builder attaches the ranked target draw of
// every node it expanded, so verification draws one only past the last
// layer; reuse:0 verifies a copy without them, which draws every one.
void BM_VerifyTree(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<Token> ctx = MakeContext(3, 32);
  TokenTree tree = BuildCandidateTree(exp.draft(), 7, ctx, BeamConfig{.depth = 6, .width = 4});
  if (state.range(0) == 0) {
    tree.ClearTargetDraws();
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyTree(exp.target(), 7, ctx, tree, {}, DecodeMode::kStochastic, rng));
  }
}
BENCHMARK(BM_VerifyTree)->ArgName("reuse")->Arg(0)->Arg(1);

void BM_OptimalConstruct(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<Token> ctx = MakeContext(4, 32);
  const OracleRequest req{.stream = 7, .committed = ctx, .a_req = 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OptimalConstruct(exp.target(), std::span<const OracleRequest>(&req, 1),
                         static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_OptimalConstruct)->Arg(16)->Arg(64);

// The Llama setup's target and noise distributions at every input.
struct DraftPair {
  SparseDist target;
  SparseDist noise;
};

const std::vector<DraftPair>& DraftPairs() {
  static const auto* pairs = [] {
    const Experiment& exp = GetExperiment();
    const DraftConfig& draft = exp.setup().draft_config;
    LmConfig noise_config = exp.target().config();
    noise_config.seed = draft.noise_seed;
    noise_config.support = draft.noise_support;
    const SyntheticLm noise(noise_config);
    auto* v = new std::vector<DraftPair>;
    for (const StreamContext& c : Contexts()) {
      v->push_back(
          {exp.target().NextDist(c.stream, c.context), noise.NextDist(c.stream, c.context)});
    }
    return v;
  }();
  return *pairs;
}

// The (token, weight) draw SyntheticLm::NextDist hands FromWeights, rebuilt
// here so FromWeights can be timed alone.
// The hash NextDist seeds the draw with: stream and context window.
uint64_t DrawHash(const LmConfig& config, const StreamContext& c) {
  const auto order = static_cast<size_t>(config.context_order);
  const std::span<const Token> context(c.context);
  const std::span<const Token> window = context.last(std::min(order, context.size()));
  return HashCombine(HashCombine(Mix64(config.seed), c.stream), HashTokens(config.seed, window));
}

void DrawSupport(const LmConfig& config, const StreamContext& c, std::vector<Token>& tokens,
                 std::vector<double>& weights) {
  uint64_t state = DrawHash(config, c);
  for (int i = 0; i < config.support; ++i) {
    const uint64_t r1 = SplitMix64(state);
    const uint64_t r2 = SplitMix64(state);
    const double jitter_u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
    tokens.push_back(static_cast<Token>(r1 % static_cast<uint64_t>(config.vocab_size)));
    weights.push_back(std::pow(static_cast<double>(i + 1), -config.zipf_exponent) *
                      (1.0 + config.weight_jitter * (2.0 * jitter_u - 1.0)));
  }
}

// The serving loop's hottest function: about half of slobench's self time
// on every workload. n = 24 is the Llama target's support draw, the input
// of every NextDist; n = 48 is the Llama target's and noise's entries
// scaled by the draft fidelity, the concatenation Mix hands FromWeights
// when the supports share a token.
void BM_SparseDistFromWeights(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const double fidelity = exp.setup().draft_config.fidelity;
  std::vector<std::vector<Token>> tokens(kInputs);
  std::vector<std::vector<double>> weights(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    const DraftPair& pair = DraftPairs()[i];
    if (state.range(0) == 24) {
      DrawSupport(exp.target().config(), Contexts()[i], tokens[i], weights[i]);
      const SparseDist built = SparseDist::FromWeights(tokens[i], weights[i]);
      if (!std::ranges::equal(built.entries(), pair.target.entries(),
                              [](const SparseDist::Entry& a, const SparseDist::Entry& b) {
                                return a.token == b.token && a.prob == b.prob;
                              })) {
        state.SkipWithError("the support draw no longer matches SyntheticLm::NextDist");
        return;
      }
      continue;
    }
    for (const auto& e : pair.target.entries()) {
      tokens[i].push_back(e.token);
      weights[i].push_back(fidelity * e.prob);
    }
    for (const auto& e : pair.noise.entries()) {
      tokens[i].push_back(e.token);
      weights[i].push_back((1.0 - fidelity) * e.prob);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseDist::FromWeights(std::span<const Token>(tokens[i]),
                                                     std::span<const double>(weights[i])));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK(BM_SparseDistFromWeights)->Arg(24)->Arg(48);

// Duplicate-heavy, unsorted input (~2x duplicates): the coalescing path.
void BM_SparseDistFromWeightsDuplicates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<Token> tokens;
  std::vector<double> weights;
  for (int i = 0; i < n; ++i) {
    tokens.push_back(static_cast<Token>(rng.UniformInt(n / 2)));
    weights.push_back(rng.Uniform() + 0.01);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SparseDist::FromWeights(std::span<const Token>(tokens), std::span<const double>(weights)));
  }
}
BENCHMARK(BM_SparseDistFromWeightsDuplicates)->Arg(16)->Arg(24)->Arg(48)->Arg(64);

// The draft model's per-node mixture of the Llama setup: its 24-token
// target support and its draft's noise support, at the setup's fidelity.
// About 2% of the inputs share a token and take FromWeights; the rest
// merge the two sorted runs.
void BM_Mix(benchmark::State& state) {
  const double fidelity = GetExperiment().setup().draft_config.fidelity;
  const std::vector<DraftPair>& pairs = DraftPairs();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mix(pairs[i].target, pairs[i].noise, fidelity));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK(BM_Mix);

// The draft head a tree builder reads, built on the node's target draw:
// the Llama target's and noise model's support draws, each ranked only at
// the slots that can reach the head, mixed. About 4% of the inputs repeat
// a token or share one between the supports and mix the whole
// distributions. head:1 is a static level of one, head:5 a width-4 beam
// step's cut. Each call takes its target draw unranked, as a fresh node's
// is.
void BM_DraftNextHead(benchmark::State& state, size_t head) {
  const Experiment& exp = GetExperiment();
  const std::vector<StreamContext>& contexts = Contexts();
  std::vector<SupportDraw> draws(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    exp.target().Draw(contexts[i].stream, contexts[i].context, draws[i]);
  }
  size_t i = 0;
  for (auto _ : state) {
    SupportDraw& draw = draws[i];
    draw.head.clear();
    draw.reach = 0;
    benchmark::DoNotOptimize(
        exp.draft().NextHead(contexts[i].stream, contexts[i].context, draw, head));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK_CAPTURE(BM_DraftNextHead, head:1, size_t{1});
BENCHMARK_CAPTURE(BM_DraftNextHead, head:5, size_t{5});

// Target-model next-token distribution: hash the context window, draw 24
// support tokens with jittered Zipf weights from the hash stream, then
// FromWeights, all on SmallVector scratch (no heap allocation).
void BM_TargetNextDist(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<StreamContext>& contexts = Contexts();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.target().NextDist(contexts[i].stream, contexts[i].context));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK(BM_TargetNextDist);

// A baseline's plain decode step: one stochastic token from the Llama
// target, drawn in full and ranked only at the sampler's head.
void BM_DecodeOneToken(benchmark::State& state) {
  const Experiment& exp = GetExperiment();
  const std::vector<StreamContext>& contexts = Contexts();
  Rng rng(8);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeOneToken(exp.target(), contexts[i].stream, contexts[i].context,
                                            DecodeMode::kStochastic, rng));
    i = (i + 1) % kInputs;
  }
}
BENCHMARK(BM_DecodeOneToken);

// The vector kernels under FromWeights and NextDist at each width, on the
// Llama target's draws (the inputs of FromWeights/24 and TargetNextDist).
// The library calls the chosen width (the distribution_kernels context
// entry); a CPU without AVX-512 skips the wide rows.
bool SkipUnsupported(benchmark::State& state, dist_kernels::Width width) {
  if (width == dist_kernels::Width::kWide && !dist_kernels::WideSupported()) {
    state.SkipWithError("this CPU has no AVX-512 (x86-64-v4)");
    return true;
  }
  return false;
}

// FromWeights' rank path alone.
void BM_RankKernel(benchmark::State& state, dist_kernels::Width width) {
  if (SkipUnsupported(state, width)) {
    return;
  }
  const LmConfig& config = GetExperiment().target().config();
  std::vector<std::vector<Token>> tokens(kInputs);
  std::vector<std::vector<double>> weights(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    DrawSupport(config, Contexts()[i], tokens[i], weights[i]);
  }
  size_t i = 0;
  for (auto _ : state) {
    dist_kernels::EntryScratch out;
    benchmark::DoNotOptimize(dist_kernels::RankInto(width, tokens[i], weights[i], out));
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % kInputs;
  }
}
BENCHMARK_CAPTURE(BM_RankKernel, narrow, dist_kernels::Width::kNarrow);
BENCHMARK_CAPTURE(BM_RankKernel, wide, dist_kernels::Width::kWide);

// NextDist's support draw alone, from each input's context hash.
void BM_DrawKernel(benchmark::State& state, dist_kernels::Width width) {
  if (SkipUnsupported(state, width)) {
    return;
  }
  const LmConfig& config = GetExperiment().target().config();
  std::vector<double> zipf;
  for (int i = 0; i < config.support; ++i) {
    zipf.push_back(std::pow(static_cast<double>(i + 1), -config.zipf_exponent));
  }
  std::vector<uint64_t> hashes;
  for (const StreamContext& c : Contexts()) {
    hashes.push_back(DrawHash(config, c));
  }
  size_t i = 0;
  for (auto _ : state) {
    dist_kernels::TokenScratch tokens;
    dist_kernels::WeightScratch weights;
    dist_kernels::DrawSupport(width, hashes[i], static_cast<uint64_t>(config.vocab_size),
                              config.weight_jitter, zipf, tokens, weights);
    benchmark::DoNotOptimize(tokens.data());
    benchmark::DoNotOptimize(weights.data());
    i = (i + 1) % kInputs;
  }
}
BENCHMARK_CAPTURE(BM_DrawKernel, narrow, dist_kernels::Width::kNarrow);
BENCHMARK_CAPTURE(BM_DrawKernel, wide, dist_kernels::Width::kWide);

// Percentile queries at metrics finalization: the cached sorted view makes
// the k-th query O(1) after the first.
void BM_SamplesPercentiles(benchmark::State& state) {
  Rng rng(9);
  Samples s;
  for (int i = 0; i < 4096; ++i) {
    s.Add(rng.Uniform());
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
      acc += s.Percentile(p);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SamplesPercentiles);

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  // Which kernel width the library rows timed, recorded in every report.
  using adaserve::dist_kernels::Width;
  benchmark::AddCustomContext(
      "distribution_kernels",
      adaserve::dist_kernels::Chosen() == Width::kWide ? "wide (x86-64-v4)" : "narrow");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
