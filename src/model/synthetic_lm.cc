#include "src/model/synthetic_lm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/arena.h"
#include "src/common/logging.h"
#include "src/model/dist_kernels.h"

namespace adaserve {

namespace dist_kernels {
namespace {

// DrawSupport at kLanes slots per step. Slot i's draws are the SplitMix64
// outputs Mix64(h + (2i + 1) * gamma) and Mix64(h + (2i + 2) * gamma), so
// a step mixes and jitters kLanes slots lane-wise; only the modulo by the
// vocabulary is scalar.
template <size_t kLanes>
[[gnu::always_inline]] inline void DrawBody(uint64_t h, uint64_t vocab_size, double jitter,
                                            std::span<const double> zipf, TokenScratch& tokens,
                                            WeightScratch& weights) {
  using U64Lanes = Lanes<uint64_t, kLanes>;
  using ProbLanes = Lanes<double, kLanes>;
  U64Lanes state = {};  // Before slot k's first draw.
  for (size_t k = 0; k < kLanes; ++k) {
    state[k] = h + 2 * k * kSplitMixGamma;
  }
  for (size_t i = 0; i < zipf.size(); i += kLanes) {
    U64Lanes r1 = state + kSplitMixGamma;
    U64Lanes r2 = state + 2 * kSplitMixGamma;
    Mix64InPlace(r1);
    Mix64InPlace(r2);
    state += 2 * kLanes * kSplitMixGamma;
    const size_t slots = std::min(kLanes, zipf.size() - i);
    ProbLanes zipf_lanes = {};
    if (slots == kLanes) {
      std::memcpy(&zipf_lanes, &zipf[i], sizeof(ProbLanes));
    } else {
      for (size_t k = 0; k < slots; ++k) {
        zipf_lanes[k] = zipf[i + k];
      }
    }
    // r2 >> 11 is below 2^53: signed, and exact as a double.
    const auto top53 = __builtin_convertvector(r2 >> 11, Lanes<int64_t, kLanes>);
    const ProbLanes u = __builtin_convertvector(top53, ProbLanes) * 0x1.0p-53;
    const ProbLanes w = zipf_lanes * (1.0 + jitter * (2.0 * u - 1.0));
    for (size_t k = 0; k < slots; ++k) {
      tokens.push_back(static_cast<Token>(r1[k] % vocab_size));
      weights.push_back(w[k]);
    }
  }
}

#if ADASERVE_WIDE_KERNELS
[[gnu::target("arch=x86-64-v4")]] void DrawSupportWide(uint64_t h, uint64_t vocab_size,
                                                       double jitter, std::span<const double> zipf,
                                                       TokenScratch& tokens,
                                                       WeightScratch& weights) {
  DrawBody<8>(h, vocab_size, jitter, zipf, tokens, weights);
}
#endif

}  // namespace

void DrawSupport([[maybe_unused]] Width width, uint64_t h, uint64_t vocab_size, double jitter,
                 std::span<const double> zipf, TokenScratch& tokens, WeightScratch& weights) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    DrawSupportWide(h, vocab_size, jitter, zipf, tokens, weights);
    return;
  }
#endif
  // One lane: SSE2 has no 64-bit lane multiply, so two lanes would cost
  // more than two scalar mixes.
  DrawBody<1>(h, vocab_size, jitter, zipf, tokens, weights);
}

}  // namespace dist_kernels

SyntheticLm::SyntheticLm(const LmConfig& config) : config_(config) {
  ADASERVE_CHECK(config_.vocab_size > 1) << "vocab too small";
  ADASERVE_CHECK(config_.support > 0 && config_.support <= config_.vocab_size)
      << "bad support size";
  ADASERVE_CHECK(config_.context_order >= 1) << "context order must be >= 1";
  ADASERVE_CHECK(config_.weight_jitter >= 0.0 && config_.weight_jitter < 1.0)
      << "jitter must be in [0, 1)";
  zipf_.reserve(static_cast<size_t>(config_.support));
  for (int i = 0; i < config_.support; ++i) {
    zipf_.push_back(std::pow(static_cast<double>(i + 1), -config_.zipf_exponent));
  }
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context) const {
  // Key the distribution on the trailing window only; this bounds hashing
  // cost and mimics the short effective memory of n-gram statistics.
  const size_t order = static_cast<size_t>(config_.context_order);
  const size_t start = context.size() > order ? context.size() - order : 0;
  uint64_t h = HashCombine(Mix64(config_.seed), stream);
  h = HashCombine(h, HashTokens(config_.seed, context.subspan(start)));

  // Inline scratch: the support is a few dozen tokens, so building the
  // weight list must not hit the heap on this per-token hot path.
  dist_kernels::TokenScratch tokens;
  dist_kernels::WeightScratch weights;
  dist_kernels::DrawSupport(dist_kernels::Chosen(), h,
                            static_cast<uint64_t>(config_.vocab_size), config_.weight_jitter,
                            zipf_, tokens, weights);
  return SparseDist::FromWeights({tokens.data(), tokens.size()},
                                 {weights.data(), weights.size()});
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context,
                                 std::span<const Token> suffix) const {
  const size_t order = static_cast<size_t>(config_.context_order);
  const std::span<const Token> from_suffix = suffix.last(std::min(order, suffix.size()));
  const std::span<const Token> from_context =
      context.last(std::min(order - from_suffix.size(), context.size()));
  SmallVector<Token, 8> window;
  for (Token t : from_context) {
    window.push_back(t);
  }
  for (Token t : from_suffix) {
    window.push_back(t);
  }
  return NextDist(stream, {window.data(), window.size()});
}

}  // namespace adaserve
